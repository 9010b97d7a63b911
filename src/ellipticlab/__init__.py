"""Numerical laboratory for elliptic regularity estimates on lattices."""

from .grid import (Grid, ScalarField, Region, Ball, ClosedBall, Cube,
                   SubLevel, ball_volume, oscillation, holder_seminorm,
                   weighted_seminorm, hardy_littlewood_maximal)
from .operators import (Ellipticity, VectorField, MatrixField,
                        LinearCoefficients, FractionalParams, TailSpec,
                        sym_eigvals, pucci_minus, pucci_plus, gradient,
                        hessian, laplacian, linear_apply,
                        pucci_sandwich_residual, second_difference,
                        fractional_laplacian)
from .contact import (ParaboloidFamily, RadialProfileFamily, ContactSet,
                      TransportRecord, inf_convolution, sup_convolution,
                      paraboloid_envelope, contact_set, tangency_tolerance,
                      transport_map, area_formula_check,
                      measure_estimate_check, localization_check,
                      abp_bound, aleksandrov_check, hessian_contact_set,
                      localization_barrier)
from .coverings import (DyadicCube, BoxRegion, CellUnion, Decomposition,
                        BallCollection, VitaliSelection, Cylinder,
                        dyadic_decomposition, cz_selection, vitali_select,
                        ink_spots_check, stacking, sun_rising)
from .regularity import (DecayProfile, oscillation_profile,
                         holder_from_decay, decay_implies_modulus_check,
                         mean_value_check, weak_harnack_laplacian_check,
                         harnack_quotient_check, weak_harnack_ue_check,
                         diminish_of_distribution_check, local_max_check,
                         ball_average_laplacian,
                         mollification_identity_check, morrey_check,
                         rolle_gradient_point, ball_average,
                         mean_value_constant)
from .solvers import (BoundaryData, SolverConfig, WalkConfig, solve_poisson,
                      solve_pucci, field_library, random_walk_hitting,
                      discrete_harmonic_hitting, probabilistic_harnack_check)
from .reports import CheckReport, EstimateConstants, make_report
from .io import (write_field, read_field, write_report_document,
                 read_report_document, merge_report_documents)

__version__ = "0.1.0"
