"""Algebro-geometric weights for deformation-to-the-normal-cone test
configurations: blow-up intersection tables on B = Bl_{D x 0}(M x P^1),
J-weight, Donaldson-Futaki invariant, normalised Chow/Hilbert weights,
positivity checks and numerical cone criteria.

Everything here is exact rational arithmetic (fractions.Fraction, or
integers over one denominator); no floating point enters this module.
Dimensional constants such as (n+1)! are dropped uniformly, so all outputs
are sign/ordering statements.

Intersection calculus on the 3-fold blow-up along the curve D x {0} (surface
case n = 2): products of three pulled-back surface classes vanish,
p*a . p*b . E = 0, p*a . E^2 = -(a.D), E^3 = -D^2, and the relative
canonical class is K_{B/M x P^1} = E.

With those zeroes a table is its four free entries a = E^2.L1, b = E^2.L2,
c = E^2.K and e = E^3.  For A = r L1 - E, trilinearity gives A^2.x = E^2.x
for x in {L1, L2, K}, A^2.E = e - 2 r a and A^3 = 3 r a - e, so every
weight, times r, is a polynomial of degree <= 2 in r (``closed_forms``):

    r J(r)       = (2/3) gamma e + (b - 2 gamma a) r,
    r DF(r)      = (2/3) gamma_K e + (c + e - 2 gamma_K a) r - 2 a r^2,
    r ii(r)      = e r - 2 a r^2,              ii = A^2.E,
    r iii(r)     = 2 e r - 3 a r^2,            iii = A^2.(r L1 + 2 E),
    r surface(r) = e r - a r^2,                surface = A^2.(r L1 + E).

``j_weight``, ``df_weight``, ``inequality_checks`` and the r-sweep's
``SweepForms`` all read these coefficients; a sweep row at r = p/q is five
integers over one denominator, written as text with no Fraction
(``ratio_text``).  ``certify_closed_forms`` checks them against the
trilinear ``IntersectionTable.product``; the test suite runs it on a grid
that proves them for every table.
"""

import math
from dataclasses import dataclass
from fractions import Fraction


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

    klt is read by the K-stability verdict: supplied class data asserts it
    (no singularity computation is attempted here), and a smooth toric
    surface, the only kind ``from_polytope`` reads, is klt.
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

    def pairings(self):
        """The six pairings, keyed as geometry.intersection_numbers keys
        them."""
        return {"L1L1": self.l1l1, "L1L2": self.l1l2, "L2L2": self.l2l2,
                "KL1": self.kl1, "KL2": self.kl2, "KK": self.kk}

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
    def from_polytope(cls, P, l2_spec):
        """Exact class data from the toric fan, the one place a surface's
        Mori cone is read off it: the six pairings from
        geometry.intersection_numbers, and the boundary curves D_i, which
        span the Mori cone, one per numerical class (distinct column
        D_i . D_j of P.int_intersection_matrix), each named after its first
        facet and paired with L1, L2 and K."""
        from .geometry import divisor_dots, intersection_numbers, surface_classes
        tab = intersection_numbers(P, l2_spec)
        first = {}
        for i, column in enumerate(zip(*P.int_intersection_matrix)):
            first.setdefault(column, i)
        dots = [divisor_dots(P, c) for c in surface_classes(P, l2_spec)]   # (L1, L2, K) . D_i
        gens = tuple(CurveClass(f"D{i}", *(Fraction(row[i]) for row in dots))
                     for i in first.values())
        return cls(l1l1=tab["L1L1"], l1l2=tab["L1L2"], l2l2=tab["L2L2"],
                   kl1=tab["KL1"], kl2=tab["KL2"], kk=tab["KK"], mori=gens)

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
    test configuration.  r_min is the lower end of the declared semi-ample
    range, r >= 1/eps for the Seshadri-type constant eps of D (the largest
    c with L1 - c D nef): presets.normal_cone_from_facet computes it exactly
    for a toric boundary divisor, a hand-supplied centre declares its own
    (default 1).  r defaults to r_min.  Violated positivity checks flag
    inadmissible r independently.
    """

    dd: Fraction
    l1d: Fraction
    l2d: Fraction
    kd: Fraction
    r: Fraction = None
    r_min: Fraction = Fraction(1)
    name: str = "D"

    def __post_init__(self):
        if self.r is None:
            object.__setattr__(self, "r", rational(self.r_min, "r_min"))
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


_BASIS = frozenset(("L1", "L2", "K", "E"))


@dataclass(frozen=True)
class IntersectionTable:
    """Triple products among the pullbacks L1, L2, K and E on the 3-fold B,
    held as the four free entries E^2.L1, E^2.L2, E^2.K and E^3; every
    product with fewer than two E's is one of the structural zeroes.

    ``triple`` and the trilinear ``product`` read the entries and nothing
    else, so they are the independent reference that ``closed_forms`` is
    certified against (``certify_closed_forms``, proved on a grid by the
    test suite).
    """

    e2l1: Fraction
    e2l2: Fraction
    e2k: Fraction
    e3: Fraction

    def __post_init__(self):
        for name in ("e2l1", "e2l2", "e2k", "e3"):
            object.__setattr__(self, name, rational(getattr(self, name), name))

    def triple(self, a, b, c):
        """a.b.c for classes a, b, c of the basis L1, L2, K, E."""
        if not _BASIS.issuperset((a, b, c)):
            raise StabilityError(f"triple product {a}/{b}/{c} is not three of "
                                 f"{', '.join(sorted(_BASIS))}")
        _, second, x = sorted((a, b, c))     # "E" sorts first
        if second != "E":
            return Fraction(0)
        return {"L1": self.e2l1, "L2": self.e2l2, "K": self.e2k, "E": self.e3}[x]

    def product(self, c1, c2, c3):
        """Trilinear extension to coefficient dicts over the basis."""
        return sum((x * y * z * self.triple(a, b, c) for a, x in c1.items()
                    for b, y in c2.items() for c, z in c3.items()), Fraction(0))


def blowup_table(data, cfg):
    """IntersectionTable for the blow-up of M x P^1 along D x {0}:
    E^2.a = -(a.D) and E^3 = -D^2."""
    return IntersectionTable(-cfg.l1d, -cfg.l2d, -cfg.kd, -cfg.dd)


def trivial_table():
    """Table of the trivial configuration (E = 0): every product vanishes."""
    return IntersectionTable(0, 0, 0, 0)


def closed_forms(table, gamma, gamma_k):
    """The five values of (B, r L1 - E) times r, J, DF, ii, iii and surface
    in that order, each as its coefficients (c0, c1, c2) in
    r value(r) = c0 + c1 r + c2 r^2 (module docstring)."""
    gamma = rational(gamma, "gamma")
    gamma_k = rational(gamma_k, "gamma_K")
    a, b, c, e = table.e2l1, table.e2l2, table.e2k, table.e3
    zero = Fraction(0)
    return ((Fraction(2, 3) * gamma * e, b - 2 * gamma * a, zero),
            (Fraction(2, 3) * gamma_k * e, c + e - 2 * gamma_k * a, -2 * a),
            (zero, e, -2 * a),
            (zero, 2 * e, -3 * a),
            (zero, e, -a))


def _value(form, r):
    """A closed form's value at r: (c0 + c1 r + c2 r^2) / r."""
    c0, c1, c2 = form
    return (c0 + (c1 + c2 * r) * r) / r


def j_weight(table, gamma, r):
    """J-weight of (B, r L1 - E) for the surface case, up to the positive
    dimensional constant:

        (r L1 - E)^2 . ( -(2/3) gamma r^{-1} (r L1 - E) + L2 ).
    """
    r = check_exponent(r)
    return _value(closed_forms(table, gamma, 0)[0], r)


def df_weight(table, data, r):
    """Donaldson-Futaki invariant of (B, r L1 - E), up to the same positive
    constant, via the relative-canonical decomposition (K_{B/M x P^1} = E)

        DF = J_{K_M}-weight + (r L1 - E)^2 . E."""
    r = check_exponent(r)
    return _value(closed_forms(table, 0, data.gamma_canonical())[1], r)


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
    ii, iii, surface = (_value(form, r) for form in closed_forms(table, 0, 0)[2:])
    pairing = {"L1": table.e2l1, "L2": table.e2l2, "K": table.e2k, "E": ii}   # A^2.x
    nef_vals = {"L1": table.e2l1}
    for i, cls in enumerate(nef_classes or []):
        nef_vals[f"nef{i}"] = sum((rational(v, f"nef{i}.{k}") * pairing[k]
                                   for k, v in cls.items()), Fraction(0))
    return {"r": r, "nef_pairings": nef_vals, "ii_exceptional": ii,
            "iii_combined": iii, "surface": surface,
            "admissible": _admissible(nef_vals.values(), ii, iii, surface)}


def _admissible(nef_pairings, ii, iii, surface):
    return all(v <= 0 for v in nef_pairings) and ii > 0 and iii > 0 and surface >= 0


def ratio_text(n, d):
    """The rational n/d (d > 0) as str(Fraction(n, d)) prints it, "n" or
    "n/d" in lowest terms, from one gcd and no Fraction."""
    g = math.gcd(n, d)
    if g == d:
        return str(n // g)
    return f"{n // g}/{d // g}"


class SweepForms:
    """The rows of an r-sweep on one table: ``closed_forms`` as integer
    numerators (n0, n1, n2) over one positive denominator ``den`` shared by
    all five, so at r = p/q a value is the integer (n0 q^2 + n1 p q + n2 p^2)
    over den p q, which ``text_row`` writes as text without a Fraction.  The
    L1 nef pairing is E^2.L1 whatever r, so its sign is read once per table.
    """

    COLUMNS = ("j_weight", "df_weight", "ineq_ii", "ineq_iii", "ineq_surface")

    def __init__(self, table, gamma, gamma_k):
        forms = closed_forms(table, gamma, gamma_k)
        self.den = math.lcm(*(x.denominator for form in forms for x in form))
        self.numerators = tuple(tuple(x.numerator * (self.den // x.denominator) for x in form)
                                for form in forms)
        self._l1_nef = table.e2l1 <= 0   # the L1 nef pairing's side of admissible

    def text_row(self, r):
        """The sweep's CSV row at the Fraction r > 0: r and the five values
        as ``str(Fraction)`` prints them, then admissible, read from the
        numerators' signs (den p q > 0)."""
        p, q = r.numerator, r.denominator
        qq, pq, pp = q * q, p * q, p * p
        d = self.den * pq
        row, nums = [ratio_text(p, q)], []
        for n0, n1, n2 in self.numerators:
            n = n0 * qq + n1 * pq + n2 * pp
            row.append(ratio_text(n, d))
            nums.append(n)
        row.append(self._l1_nef and _admissible((), *nums[2:]))
        return row


def certify_closed_forms(table, gamma, gamma_k):
    """The table's ``SweepForms``, once at r = 1, 2, 3 each of
    ``closed_forms``, as its exact value and as its ``text_row`` cell, and
    the row's admissible equal the trilinear ``product`` expansion with
    A = r L1 - E: J = -(2/3) gamma r^{-1} A^3 + A^2.L2,
    DF = -(2/3) gamma_K r^{-1} A^3 + A^2.K + A^2.E, ii = A^2.E and so on;
    else StabilityError.  Times r, every side is of degree <= 2 in r and
    <= 1 in each of the four entries, gamma and gamma_K, so (Alon's
    Combinatorial Nullstellensatz) passing on a grid of two values of each
    proves the forms for every table and r > 0."""
    forms = SweepForms(table, gamma, gamma_k)
    exact = closed_forms(table, gamma, gamma_k)
    gamma, gamma_k = rational(gamma, "gamma"), rational(gamma_k, "gamma_K")
    for r in (1, 2, 3):
        r = Fraction(r)
        A = {"L1": r, "E": Fraction(-1)}

        def pair(c):
            return table.product(A, A, c)

        lead = -Fraction(2, 3) / r * pair(A)
        ii, iii, surface = (pair({"E": 1}), pair({"L1": r, "E": 2}),
                            pair({"L1": r, "E": 1}))
        want = (gamma * lead + pair({"L2": 1}), gamma_k * lead + pair({"K": 1}) + ii,
                ii, iii, surface)
        row = forms.text_row(r)
        checks = [("r", row[0], str(r))]
        for name, form, cell, value in zip(SweepForms.COLUMNS, exact, row[1:], want):
            checks += [(name, _value(form, r), value), (name, cell, str(value))]
        checks.append(("admissible", row[-1],
                       _admissible((pair({"L1": 1}),), ii, iii, surface)))
        for name, got, expected in checks:
            if got != expected:
                raise StabilityError(
                    f"closed form of {name} at r = {r} reads {got}, the trilinear "
                    f"expansion {expected} (internal error)")
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
