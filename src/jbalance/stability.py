"""Algebro-geometric weights for deformation-to-the-normal-cone test
configurations: blow-up intersection tables on B = Bl_{D x 0}(M x P^1),
J-weight, Donaldson-Futaki invariant, normalised Chow/Hilbert weights,
positivity checks and numerical cone criteria.

Everything here is exact rational arithmetic (fractions.Fraction); no
floating point enters this module.  Dimensional constants such as (n+1)! are
dropped uniformly, so all outputs are sign/ordering statements.

Intersection calculus on the 3-fold blow-up along the curve D x {0} (surface
case n = 2): products of three pulled-back surface classes vanish,
p*a . p*b . E = 0, p*a . E^2 = -(a.D), E^3 = -D^2, and the relative
canonical class is K_{B/M x P^1} = E.

With those zeroes a table has four free entries, E^2.L1, E^2.L2, E^2.K and
E^3, and every weight below is a linear combination of the four pairings
of A = r L1 - E that ``IntersectionTable.square`` returns in closed form:

    A^2 . a = E^2 . a                   for a in {L1, L2, K},
    A^2 . E = -2 r E^2.L1 + E^3,
    A^3     = r A^2.L1 - A^2.E = 3 r E^2.L1 - E^3.

On a blow-up table these read A^2 . E = 2 r L1.D - D^2 and
A^3 = D^2 - 3 r L1.D.  The weights are the closed forms alone.  An r-sweep
goes one step further: ``SweepForms`` holds each of its values, times r, as
a quadratic in r with integer coefficients, so a row costs one Fraction per
value.  ``certify_closed_forms`` checks both; the test suite runs it on a
grid that proves them for every table.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement


class StabilityError(ValueError):
    """Inconsistent class data or invalid configuration."""


def rational(value, name):
    """``value`` as an exact Fraction: an integer, a Fraction or a decimal /
    rational string.  Floats are refused, since the rational a float was
    meant to be is a guess; ``name`` labels the field in the error."""
    if type(value) is Fraction:
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise StabilityError(f"{name} must be an integer or a decimal/rational string "
                         f"such as \"1/3\", not {value!r}")


def j_constant(l1_l2, l1_l1):
    """The J-constant L1.L2 / L1^2 of a pair of classes, exact."""
    return Fraction(l1_l2, l1_l1)


@dataclass(frozen=True)
class CurveClass:
    """A Mori-cone generator with its pairings against L1, L2, K_M."""

    name: str
    l1: Fraction
    l2: Fraction
    k: Fraction

    def pair(self, a1, a2, ak):
        """Pairing with the class a1 L1 + a2 L2 + ak K."""
        return a1 * self.l1 + a2 * self.l2 + ak * self.k


@dataclass(frozen=True)
class SurfaceClassData:
    """Pairing table of (L1, L2, K_M) on a surface plus Mori generators.

    klt is a user-asserted flag echoed into the K-stability verdict; no
    singularity computation is attempted here.
    """

    l1l1: Fraction
    l1l2: Fraction
    l2l2: Fraction
    kl1: Fraction
    kl2: Fraction
    kk: Fraction
    mori: tuple
    klt: bool = True

    def __post_init__(self):
        for name in ("l1l1", "l1l2", "l2l2", "kl1", "kl2", "kk"):
            object.__setattr__(self, name, rational(getattr(self, name), name))
        if self.l1l1 <= 0:
            raise StabilityError("L1^2 must be positive")
        if not self.mori:
            raise StabilityError("at least one Mori generator required")
        for c in self.mori:
            if c.l1 <= 0:
                raise StabilityError(f"L1 must pair positively with {c.name} (ampleness)")

    @classmethod
    def from_json(cls, data):
        """Directly supplied pairing values, e.g.
        {"L1L1": 1, "L1L2": 1, ..., "mori": [{"name": "C", "l1": 1,
        "l2": 1, "k": -3}], "klt": true}.  Refuses a "mori" that is not a
        list of objects and a "klt" that is not a boolean."""
        try:
            mori = data["mori"]
            if not isinstance(mori, list) or not all(isinstance(g, dict) for g in mori):
                raise StabilityError(f"class data 'mori' must be a list of objects "
                                     f"with keys l1, l2, k, got {mori!r}")
            klt = data.get("klt", True)
            if not isinstance(klt, bool):
                raise StabilityError(f"class data 'klt' must be true or false, got {klt!r}")
            gens = tuple(CurveClass(name=g.get("name", f"C{i}"),
                                    **{f: rational(g[f], f"mori[{i}].{f}")
                                       for f in ("l1", "l2", "k")})
                         for i, g in enumerate(mori))
            return cls(l1l1=data["L1L1"], l1l2=data["L1L2"], l2l2=data["L2L2"],
                       kl1=data["KL1"], kl2=data["KL2"], kk=data["KK"],
                       mori=gens, klt=klt)
        except KeyError as exc:
            raise StabilityError(f"class data lacks {exc}")

    @classmethod
    def from_polytope(cls, P, l2_spec, klt=True, pairings=None):
        """Exact class data from the toric fan (bridges the geometry module):
        the six pairings from geometry.intersection_numbers (or ``pairings``,
        its table when already computed), the Mori generators' from
        MoriGenerator.pair."""
        from .geometry import intersection_numbers, mori_generators, surface_classes
        tab = intersection_numbers(P, l2_spec) if pairings is None else pairings
        classes = surface_classes(P, l2_spec)
        gens = tuple(CurveClass(f"D{g.facet_index}", *(Fraction(g.pair(c)) for c in classes))
                     for g in mori_generators(P))
        return cls(l1l1=tab["L1L1"], l1l2=tab["L1L2"], l2l2=tab["L2L2"],
                   kl1=tab["KL1"], kl2=tab["KL2"], kk=tab["KK"], mori=gens, klt=klt)

    def gamma(self):
        """The J-constant gamma = L1.L2 / L1^2, exact."""
        return j_constant(self.l1l2, self.l1l1)

    def gamma_canonical(self):
        """gamma_K = K_M.L1 / L1^2, the J-constant with L2 = K_M."""
        return j_constant(self.kl1, self.l1l1)


@dataclass(frozen=True)
class NormalConeConfig:
    """Flag ideal I_D + (t): deformation to the normal cone of a divisor D.

    Fields are the pairings of the centre class D and the exponent r of the
    test configuration.  r_min is the user-supplied lower end of the declared
    semi-ample range (the paper leaves the Seshadri-type bound to the user);
    violated positivity checks flag inadmissible r independently.
    """

    dd: Fraction
    l1d: Fraction
    l2d: Fraction
    kd: Fraction
    r: Fraction
    r_min: Fraction = Fraction(1)
    name: str = "D"

    def __post_init__(self):
        for name in ("dd", "l1d", "l2d", "kd", "r", "r_min"):
            object.__setattr__(self, name, rational(getattr(self, name), name))
        if self.l1d <= 0:
            raise StabilityError("L1.D must be positive for an effective centre")
        check_exponent(self.r, self.r_min)


def check_exponent(r, r_min=None):
    """The exponent r as an exact Fraction, refused unless r > 0 and, when
    ``r_min`` is given, r >= r_min."""
    r = rational(r, "r")
    if r <= 0:
        raise StabilityError("exponent r must be positive")
    if r_min is not None and r < r_min:
        raise StabilityError(f"r = {r} below the declared r_min = {r_min}")
    return r


_BASIS = ("L1", "L2", "K", "E")
# the sorted keys of a table: one per product of three basis classes
_TRIPLES = frozenset(combinations_with_replacement(sorted(_BASIS), 3))


class IntersectionTable:
    """Symmetric triple products among the pullbacks L1, L2, K and E on the
    3-fold B; user-supplied tables are validated for malformed, repeated
    and missing keys and the structural zeroes, the only checks that depend
    on the data.

    ``square``'s closed forms equal the trilinear ``product`` for every
    table and r (``certify_closed_forms``, proved on a grid by the test
    suite).  By trilinearity,
    A^3 = r A^2.L1 - A^2.E and A^2.(K + E) = A^2.K + A^2.E, so the DF
    decomposition identity of ``df_weight``, and every pairing that
    ``j_weight`` and ``inequality_checks`` read, equal the trilinear
    expansion at every r > 0.
    """

    def __init__(self, entries):
        self._t = {}
        for spelling, val in entries.items():
            key = tuple(sorted(spelling))
            if key not in _TRIPLES:
                raise StabilityError(f"triple product {'/'.join(spelling)!r} is not "
                                     f"three of {', '.join(_BASIS)}")
            if key in self._t:
                raise StabilityError(f"triple product {'/'.join(key)} given under two spellings")
            self._t[key] = rational(val, "/".join(key))
        for key in combinations_with_replacement(sorted(_BASIS), 3):
            if key not in self._t:
                raise StabilityError(f"missing triple product {key}")
            if "E" not in key and self._t[key] != 0:
                raise StabilityError(f"three pulled-back classes must vanish: {key}")
            if key.count("E") == 1 and self._t[key] != 0:
                raise StabilityError(f"p*a . p*b . E must vanish: {key}")
        self._e2 = {a: self.triple(a, "E", "E") for a in ("L1", "L2", "K")}
        self._e3 = self.triple("E", "E", "E")

    @classmethod
    def from_json(cls, data):
        """Entries keyed 'A/B/C' with integer or rational string values."""
        return cls({tuple(k.split("/")): v for k, v in data.items()})

    def triple(self, a, b, c):
        return self._t[tuple(sorted((a, b, c)))]

    def product(self, c1, c2, c3):
        """Trilinear extension to coefficient dicts over the basis."""
        total = Fraction(0)
        for a, x in c1.items():
            if x == 0:
                continue
            for b, y in c2.items():
                if y == 0:
                    continue
                for c, z in c3.items():
                    if z == 0:
                        continue
                    t = self.triple(a, b, c)
                    if t != 0:
                        total += x * y * z * t
        return total

    def square(self, r):
        """{a: (r L1 - E)^2 . a} over the basis, from the four free entries
        (closed forms in the module docstring)."""
        e2 = self._e2
        return {"L1": e2["L1"], "L2": e2["L2"], "K": e2["K"],
                "E": -2 * rational(r, "r") * e2["L1"] + self._e3}


def blowup_table(data, cfg):
    """IntersectionTable for the blow-up of M x P^1 along D x {0}."""
    entries = dict.fromkeys(combinations_with_replacement(sorted(_BASIS), 3), Fraction(0))
    entries.update({("E", "E", "K"): -cfg.kd, ("E", "E", "L1"): -cfg.l1d,
                    ("E", "E", "L2"): -cfg.l2d, ("E", "E", "E"): -cfg.dd})
    return IntersectionTable(entries)


def trivial_table():
    """Table of the trivial configuration (E = 0): every product vanishes."""
    return IntersectionTable({k: Fraction(0) for k in combinations_with_replacement(_BASIS, 3)})


def _cube(square, r):
    """(r L1 - E)^3 = r (r L1 - E)^2.L1 - (r L1 - E)^2.E."""
    return r * square["L1"] - square["E"]


def _j_weight(square, gamma, r):
    return -Fraction(2, 3) * gamma / r * _cube(square, r) + square["L2"]


def _df_weight(square, gamma_k, r):
    lead = -Fraction(2, 3) * gamma_k / r
    return lead * _cube(square, r) + square["K"] + square["E"]


def j_weight(table, gamma, r):
    """J-weight of (B, r L1 - E) for the surface case, up to the positive
    dimensional constant:

        (r L1 - E)^2 . ( -(2/3) gamma r^{-1} (r L1 - E) + L2 ).
    """
    r = check_exponent(r)
    return _j_weight(table.square(r), rational(gamma, "gamma"), r)


def df_weight(table, data, r):
    """Donaldson-Futaki invariant of (B, r L1 - E), up to the same positive
    constant, via the relative-canonical decomposition (K_{B/M x P^1} = E)

        DF = J_{K_M}-weight + (r L1 - E)^2 . E,

    in closed form, which equals the direct trilinear expansion at every r
    (see IntersectionTable and ``certify_closed_forms``)."""
    r = check_exponent(r)
    return _df_weight(table.square(r), data.gamma_canonical(), r)


def inequality_checks(table, r, nef_classes=None):
    """Sign report for the positivity lemmas on (B, r L1 - E), n = 2.

    (i)  (r L1 - E)^2 . R <= 0 for each supplied nef class R (dict over
         {L1, L2, K}); L1 itself is always included.
    (ii) (r L1 - E)^2 . E > 0.
    (iii) (r L1 - E)^2 . (r L1 + 2 E) > 0.
    (surface) (r L1 - E)^2 . (r L1 + E) >= 0.

    A violated inequality flags the configuration as outside the admissible
    semi-ample range.
    """
    r = check_exponent(r)
    return _inequality_checks(table.square(r), r, nef_classes)


def _inequality_checks(sq, r, nef_classes=None):
    nef_vals = {"L1": sq["L1"]}
    for i, cls in enumerate(nef_classes or []):
        nef_vals[f"nef{i}"] = sum((rational(v, f"nef{i}.{k}") * sq[k]
                                   for k, v in cls.items()), Fraction(0))
    report = {"r": r, "nef_pairings": nef_vals,
              "ii_exceptional": sq["E"],
              "iii_combined": r * sq["L1"] + 2 * sq["E"],
              "surface": r * sq["L1"] + sq["E"]}
    report["admissible"] = _admissible(nef_vals.values(), report["ii_exceptional"],
                                       report["iii_combined"], report["surface"])
    return report


def _admissible(nef_pairings, ii, iii, surface):
    return all(v <= 0 for v in nef_pairings) and ii > 0 and iii > 0 and surface >= 0


class SweepForms:
    """The rows of an r-sweep on one table as closed forms in r.

    With a = E^2.L1, b = E^2.L2, c = E^2.K, e = E^3 (the four free entries
    of the table), gamma and gamma_K, the sweep's values times r are
    polynomials of degree <= 2 in r:

        r J(r)       = (2/3) gamma e + (b - 2 gamma a) r,
        r DF(r)      = (2/3) gamma_K e + (c + e - 2 gamma_K a) r - 2 a r^2,
        r ii(r)      = e r - 2 a r^2,
        r iii(r)     = 2 e r - 3 a r^2,
        r surface(r) = e r - a r^2,

    and the L1 nef pairing is a, whatever r.  Each form is held as integer
    numerators (n0, n1, n2) over one positive denominator ``den`` shared by
    all five, so at r = p/q a value is the one Fraction
    (n0 q^2 + n1 p q + n2 p^2) / (den p q); ``certify_closed_forms`` checks
    them against the reference helpers.
    """

    COLUMNS = ("j_weight", "df_weight", "ineq_ii", "ineq_iii", "ineq_surface")

    def __init__(self, table, gamma, gamma_k):
        gamma = rational(gamma, "gamma")
        gamma_k = rational(gamma_k, "gamma_K")
        a, b, c = (table.triple(x, "E", "E") for x in ("L1", "L2", "K"))
        e = table.triple("E", "E", "E")
        zero = Fraction(0)
        forms = ((Fraction(2, 3) * gamma * e, b - 2 * gamma * a, zero),
                 (Fraction(2, 3) * gamma_k * e, c + e - 2 * gamma_k * a, -2 * a),
                 (zero, e, -2 * a),
                 (zero, 2 * e, -3 * a),
                 (zero, e, -a))
        self.den = math.lcm(*(x.denominator for form in forms for x in form))
        self.numerators = tuple(tuple(x.numerator * (self.den // x.denominator) for x in form)
                                for form in forms)
        self.l1_pairing = a

    def row(self, r):
        """(J, DF, ii, iii, surface, admissible) at the Fraction r > 0."""
        p, q = r.numerator, r.denominator
        qq, pq, pp = q * q, p * q, p * p
        d = self.den * pq
        nums = [n0 * qq + n1 * pq + n2 * pp for n0, n1, n2 in self.numerators]
        # d > 0, so each value has the sign of its integer numerator
        return (*[Fraction(n, d) for n in nums],
                _admissible((self.l1_pairing,), *nums[2:]))


def certify_closed_forms(table, gamma, gamma_k):
    """The table's ``SweepForms``, once ``square`` equals the trilinear
    ``product(A, A, {a: 1})`` (A = r L1 - E) for each basis class a, and each
    row equals ``_j_weight``, ``_df_weight`` and ``_inequality_checks`` on the
    square, at r = 1, 2, 3; else StabilityError.  Times r, every side is of
    degree <= 2 in r and <= 1 in each of a, b, c, e, gamma and gamma_K, so
    (Alon's Combinatorial Nullstellensatz) passing on a grid of two values
    of each proves both identities for every table and r > 0."""
    forms = SweepForms(table, gamma, gamma_k)
    gamma, gamma_k = rational(gamma, "gamma"), rational(gamma_k, "gamma_K")
    for r in (1, 2, 3):
        A = {"L1": Fraction(r), "E": Fraction(-1)}
        sq = table.square(r)
        for a in _BASIS:
            if sq[a] != table.product(A, A, {a: Fraction(1)}):
                raise StabilityError(
                    f"(r L1 - E)^2.{a} at r = {r} differs from the trilinear "
                    f"expansion: decomposition identity violated (internal error)")
        rep = _inequality_checks(sq, Fraction(r))
        reference = (_j_weight(sq, gamma, r), _df_weight(sq, gamma_k, r),
                     rep["ii_exceptional"], rep["iii_combined"], rep["surface"],
                     rep["admissible"])
        for name, got, want in zip(SweepForms.COLUMNS + ("admissible",),
                                   forms.row(Fraction(r)), reference):
            if got != want:
                raise StabilityError(
                    f"closed form of {name} at r = {r} reads {got}, the "
                    f"reference helpers {want} (internal error)")
    return forms


# ---------------------------------------------------------------------------
# Chow / Hilbert weight polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightPolynomials:
    """Hilbert and weight polynomials of a test configuration and of the
    induced configuration on a subvariety of dimension m.

    Coefficients descending: h = (a0, a1, ...) of degree n, w = (b0, b1, ...)
    of degree n+1, hhat of degree m, what of degree m+1.
    """

    n: int
    m: int
    h: tuple
    w: tuple
    hhat: tuple
    what: tuple

    def __post_init__(self):
        for name, deg in (("h", self.n), ("w", self.n + 1),
                          ("hhat", self.m), ("what", self.m + 1)):
            coeffs = tuple(rational(c, name) for c in getattr(self, name))
            object.__setattr__(self, name, coeffs)
            if len(coeffs) != deg + 1:
                raise StabilityError(f"{name} must have degree {deg}")
        if self.h[0] <= 0 or self.hhat[0] <= 0:
            raise StabilityError("leading Hilbert coefficients a0, a0-hat must be positive")

    @classmethod
    def from_json(cls, data):
        """{"n": int, "m": int, "h": [...], "w": [...], "hhat": [...],
        "what": [...]}, coefficients as for ``rational``."""
        try:
            n, m = data["n"], data["m"]
            coeffs = {f: data[f] for f in ("h", "w", "hhat", "what")}
        except KeyError as exc:
            raise StabilityError(f"weight polynomials lack {exc}")
        for f, v in (("n", n), ("m", m)):
            if type(v) is not int:
                raise StabilityError(f"weights.{f} must be an integer, not {v!r}")
        for f, v in coeffs.items():
            if not isinstance(v, list):
                raise StabilityError(f"weights.{f} must be a list of coefficients, not {v!r}")
        return cls(n=n, m=m, **{f: tuple(v) for f, v in coeffs.items()})

    @property
    def a0(self):
        return self.h[0]

    @property
    def b0(self):
        return self.w[0]

    @property
    def a0_hat(self):
        return self.hhat[0]

    @property
    def b0_hat(self):
        return self.what[0]


def _poly_eval(coeffs_desc, x):
    total = Fraction(0)
    for c in coeffs_desc:
        total = total * x + c
    return total


def chow_hilbert_weight(wp, r):
    """Normalised weight hat w_{r,k} = hat w(k) r h(r) - k w(r) hat h(k).

    Returns a dict with the coefficients of hat w_{r,k} in k (descending,
    degree m+1), the leading coefficient e_{m+1}(r), and the r-leading
    coefficient of e_{m+1}(r), which equals b0_hat a0 - b0 a0_hat (the
    numerator of the J-weight of the configuration).
    """
    r = check_exponent(r)
    hr = _poly_eval(wp.h, r)
    wr = _poly_eval(wp.w, r)
    # hat w(k) * (r h(r)): degree m+1 in k
    term1 = [c * r * hr for c in wp.what]
    # k * w(r) * hat h(k): degree m+1 in k
    term2 = [c * wr for c in wp.hhat] + [Fraction(0)]
    coeffs = [c1 - c2 for c1, c2 in zip(term1, term2)]
    e_top = coeffs[0]
    # e_{m+1}(r) = b0_hat r h(r) - w(r) a0_hat is a polynomial in r of degree
    # n+1 whose leading coefficient is b0_hat a0 - b0 a0_hat
    lead_r = wp.b0_hat * wp.a0 - wp.b0 * wp.a0_hat
    return {"coeffs_in_k": tuple(coeffs), "degree_k": wp.m + 1,
            "e_top": e_top, "e_top_leading_in_r": lead_r,
            "j_weight_normalised": lead_r / wp.a0}


# ---------------------------------------------------------------------------
# cone criteria
# ---------------------------------------------------------------------------

@dataclass
class Verdict:
    name: str
    applicable: bool
    holds: bool
    margin: object = None
    note: str = ""

    def as_dict(self):
        return {"criterion": self.name, "applicable": self.applicable,
                "holds": self.holds,
                "margin": None if self.margin is None else str(self.margin),
                "note": self.note}


def cone_criteria(data):
    """Numerical stability verdicts from exact pairing arithmetic.

    * J-stable (sufficient): gamma L1 - L2 nef against all generators,
      gamma > 0.
    * J-semistable (surface criterion): (4/3) gamma L1 - L2 nef, gamma > 0.
    * K-stable cone: gamma_K L1 - K_M nef with gamma_K = K.L1/L1^2 > 0 and
      the klt flag set.
    * Donaldson necessary condition: 2 gamma L1 - L2 strictly positive
      against all generators.

    gamma <= 0 marks the L2-criteria inapplicable, per the hypotheses.
    """
    gamma = data.gamma()
    gamma_k = data.gamma_canonical()
    verdicts = []

    def min_pair(a1, a2, ak):
        return min(c.pair(a1, a2, ak) for c in data.mori)

    applicable = gamma > 0
    if applicable:
        m1 = min_pair(gamma, Fraction(-1), Fraction(0))
        verdicts.append(Verdict("j_stable_sufficient", True, m1 >= 0, m1,
                                "gamma L1 - L2 nef"))
        m2 = min_pair(Fraction(4, 3) * gamma, Fraction(-1), Fraction(0))
        verdicts.append(Verdict("j_semistable_surface", True, m2 >= 0, m2,
                                "(4/3) gamma L1 - L2 nef"))
        m3 = min_pair(2 * gamma, Fraction(-1), Fraction(0))
        verdicts.append(Verdict("donaldson_necessary", True, m3 > 0, m3,
                                "2 gamma L1 - L2 > 0 (strict)"))
    else:
        for name in ("j_stable_sufficient", "j_semistable_surface", "donaldson_necessary"):
            verdicts.append(Verdict(name, False, False, None,
                                    "inapplicable: gamma <= 0"))
    if gamma_k > 0:
        mk = min_pair(gamma_k, Fraction(0), Fraction(-1))
        holds = mk >= 0 and data.klt
        note = "gamma_K L1 - K_M nef" + ("" if data.klt else "; klt flag not set")
        verdicts.append(Verdict("k_stable_cone", True, holds, mk, note))
    else:
        verdicts.append(Verdict("k_stable_cone", False, False, None,
                                "inapplicable: gamma_K <= 0"))
    return {"gamma": gamma, "gamma_canonical": gamma_k,
            "verdicts": verdicts}
