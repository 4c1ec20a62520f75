"""Riemann-Stieltjes integration of vector-valued functions, semivariation,
and the operator/measure correspondences they support."""

from .errors import (ArgumentError, EnumerationLimitError, ExistenceError,
                     SchemaError, StieltjesError)
from .functions import (PiecewiseFunction, TaggedPartition, dual_compose,
                        product_integral, random_spline, scalar_variation,
                        uniform_tagged_partition)
from .integrals import (IntegralResult, LevelRecord, PerPartesResult,
                        exact_step_integral, integrate_g_dx, integrate_x_dg,
                        per_partes, rs_sum_S, rs_sum_s)
from .representation import (AbelIdentityResult, HullMembership,
                             ImageCheckReport, IntervalMeasure,
                             RoundtripReport, StieltjesOperator,
                             abel_identity_check, additivity_check, apply,
                             decompose, hull_membership, measure_from_function,
                             measure_of_interval, roundtrip,
                             weakly_compact_image_check)
from .semivariation import (SemivariationReport, dual_variation_bound, e_set,
                            semivariation, semivariation_on_partition,
                            wcs_check)
from .spaces import (Seminorm, SpaceModel, pair, polar_gauge,
                     sample_dual_ball)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError", "EnumerationLimitError", "ExistenceError",
    "SchemaError", "StieltjesError",
    "PiecewiseFunction", "TaggedPartition", "dual_compose",
    "product_integral", "random_spline", "scalar_variation",
    "uniform_tagged_partition",
    "IntegralResult", "LevelRecord", "PerPartesResult",
    "exact_step_integral", "integrate_g_dx", "integrate_x_dg",
    "per_partes", "rs_sum_S", "rs_sum_s",
    "AbelIdentityResult", "HullMembership", "ImageCheckReport",
    "IntervalMeasure", "RoundtripReport", "StieltjesOperator",
    "abel_identity_check", "additivity_check", "apply", "decompose",
    "hull_membership", "measure_from_function", "measure_of_interval",
    "roundtrip", "weakly_compact_image_check",
    "SemivariationReport", "dual_variation_bound", "e_set", "semivariation",
    "semivariation_on_partition", "wcs_check",
    "Seminorm", "SpaceModel", "pair", "polar_gauge", "sample_dual_ball",
]
