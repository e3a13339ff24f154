"""Balanced-metric quantisation of the J-flow on polarised toric surfaces.

Modules: kernel (the softmax kernel and its node blocks, under the
potentials and the nodes the quadrature's tensor grid leaves to it),
geometry (potentials, polytopes, bases, quadrature, intersection numbers),
quantisation (Hilb/FS maps, moment map, balance iteration, Bergman
asymptotics, all as sums over the tensor grid), flows (balancing ODE,
continuum J-flow, residuals), functionals (J_chi, I_{mu_J}, I_{mu0},
I_hat, P_hat), stability (exact test-configuration weights) and cli.
"""

from .geometry import (AffineTilt, AxisPotential, BlendPotential,
                       DelzantPolytope, GaussianBump, GeometryError,
                       LatticeSectionBasis, LogSumExpPotential, QuadratureRule,
                       ScaledPotential, SumPotential, build_quadrature,
                       calibrate, enumerate_lattice_points,
                       intersection_numbers, mori_generators, polytope_preset,
                       reference_potential)
from .quantisation import (HermitianForm, Quantisation, QuantisationError,
                           bergman_check, qk_operator)
from .functionals import (PotentialPath, aym_energy, convexity_probe, i_hat,
                          i_hat_relative, i_mu0, i_mu_j, j_energy,
                          j_energy_between, match_determinant, p_hat)
from .flows import (FlowState, balancing_flow, critical_residual,
                    grid_from_potential, jflow_run, jflow_step,
                    quantization_comparison)
from .stability import (CurveClass, IntersectionTable, NormalConeConfig,
                        StabilityError, SurfaceClassData, WeightPolynomials,
                        blowup_table, chow_hilbert_weight, cone_criteria,
                        df_weight, inequality_checks, j_weight, trivial_table)
from .presets import (Problem, chi_potential, make_problem,
                      normal_cone_from_facet, problem_names,
                      separable_critical_potential)

__version__ = "0.1.0"
