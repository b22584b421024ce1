"""capsym: harmonic potentials on smooth exterior/interior domains,
electrostatic capacity, conformal level-set geometry, and the numerical
symmetry criteria that single out the round ball."""

from .conformal import (dmu_g_weight, dsigma_g_weight, hess_f_conformal,
                        level_set_mean_curvature, mean_curvature_conformal,
                        p_function, quasi_einstein_residual, ricci_conformal,
                        scalar_curvature)
from .criteria import (CriterionReport, SymmetryCertificate, capacity,
                       check_C12, check_C13, check_C17, check_neumann,
                       check_pointwise, check_T11, check_T16, check_T19,
                       inferred_ball_radius, normalization_c1,
                       normalization_c2, p_function_spread, run_battery,
                       sample_region_points, symmetry_certificate)
from .errors import (CapsymError, CriticalPointError,
                     InsufficientSamplesError, InvalidDomainError,
                     IrregularLevelSetError, LevelRangeError,
                     NonStarShapedLevelSetError, OutOfRegionError,
                     SolverFailureError)
from .geometry import (DomainSpec, SurfaceQuadrature, angular_grid,
                       build_quadrature, real_sph_harm, unit_directions,
                       unit_sphere_area)
from .harmonic import (DecayReport, FieldStates, HarmonicSolution,
                       decay_report, solve_exterior, solve_interior)
from .identities import (IdentityResidual, WeightSpec, bochner_sides,
                         interior_flux_cubed_limit, weighted_identity_check)
from .levelset import LevelSet, extract_level_set, surface_integral

__version__ = "0.1.0"
