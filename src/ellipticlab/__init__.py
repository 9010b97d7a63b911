"""Numerical laboratory for elliptic regularity estimates on lattices."""

from .grid import (Grid, ScalarField, Region, Ball, ClosedBall, Cube,
                   SubLevel, oscillation, holder_seminorm,
                   weighted_seminorm, hardy_littlewood_maximal)
from .operators import (Ellipticity, FractionalParams, TailSpec,
                        pucci_minus, pucci_plus, gradient, hessian, laplacian,
                        pucci_sandwich_residual, fractional_laplacian,
                        fractional_linear_check,
                        fractional_gaussian_refine_check,
                        fractional_scaling_check)
from .contact import (ParaboloidFamily, ContactSet,
                      TransportRecord, inf_convolution,
                      envelope_sandwich_check,
                      contact_set, tangency_tolerance,
                      transport_map, area_formula_check,
                      measure_estimate_check, localization_check,
                      abp_bound, aleksandrov_check, hessian_contact_check,
                      localization_barrier)
from .coverings import (DyadicCube, BoxRegion, CellUnion, Decomposition,
                        BallCollection, Cylinder,
                        dyadic_decomposition, cz_selection,
                        cz_cube_lemma_check, vitali_check,
                        ink_spots_check, stacking, sun_rising)
from .regularity import (decay_implies_modulus_check,
                         mean_value_check, weak_harnack_laplacian_check,
                         harnack_quotient_check, weak_harnack_ue_check,
                         diminish_of_distribution_check, local_max_check,
                         ball_average_laplacian,
                         mollification_identity_check, morrey_check,
                         rolle_gradient_check,
                         second_diff_supersolution_check,
                         second_diff_lower_bound_check)
from .solvers import (BoundaryData, SolverConfig, WalkConfig, solve_poisson,
                      solve_pucci, random_walk_hitting,
                      discrete_harmonic_hitting, walk_vs_oracle_check,
                      probabilistic_harnack_check)
from .reports import CheckReport, make_report
from .io import write_report_document, merge_report_documents

__version__ = "0.1.0"
