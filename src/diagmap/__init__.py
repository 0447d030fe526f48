"""Entanglement entropy of the diagonal (pinching) channel.

Closed forms for the permutation-symmetric real qutrit family and for the
minimal output entropy on the zero-sum face in any dimension, each paired
with an independent decomposition-search oracle.
"""

from .entropy import eta
from .face_minimum import (
    StationaryRoots,
    brute_force_min_face,
    lagrange_roots,
    min_face_entropy,
    minimizer_states,
    pair_states_minimize,
    root_square_sum,
    two_value_entropy,
)
from .hull import HullResult, SampledCurve, lower_convex_hull, tangent_from_point
from .lambert import lambert_w0, lambert_wm1
from .roof import RoofResult, real_roof_upper_bound, roof_upper_bound
from .states import (
    Decomposition,
    StateFormatError,
    diagonal_channel,
    diagonal_output_entropy,
    pure_to_density,
    read_density_matrix,
    real_projection,
    symmetric_state,
    twirl_s3,
    von_neumann_entropy,
    write_density_matrix,
)
from .symmetric_curve import (
    EDCurveRecord,
    curve_record,
    entanglement_entropy,
    lower_tangent_z,
    min_pure_output_entropy,
    optimal_decomposition,
    rank2_entanglement,
    rank2_state,
    theta0_entropy,
    theta_transition,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "EDCurveRecord",
    "HullResult",
    "RoofResult",
    "SampledCurve",
    "StateFormatError",
    "StationaryRoots",
    "brute_force_min_face",
    "curve_record",
    "diagonal_channel",
    "diagonal_output_entropy",
    "entanglement_entropy",
    "eta",
    "lagrange_roots",
    "lambert_w0",
    "lambert_wm1",
    "lower_convex_hull",
    "lower_tangent_z",
    "min_face_entropy",
    "min_pure_output_entropy",
    "minimizer_states",
    "optimal_decomposition",
    "pair_states_minimize",
    "pure_to_density",
    "rank2_entanglement",
    "rank2_state",
    "read_density_matrix",
    "real_projection",
    "real_roof_upper_bound",
    "roof_upper_bound",
    "root_square_sum",
    "symmetric_state",
    "tangent_from_point",
    "theta0_entropy",
    "theta_transition",
    "twirl_s3",
    "two_value_entropy",
    "von_neumann_entropy",
    "write_density_matrix",
]
