"""Entanglement entropy of the diagonal (pinching) channel.

Closed forms for the permutation-symmetric real qutrit family and for the
minimal output entropy on the zero-sum face in any dimension, each paired
with an independent decomposition-search oracle.  The closed forms
(`entropy`, `lambert`, `symmetric_curve`, `face_minimum`) load no numpy;
the searches (`linesearch`, `roof`) and the data layer (`states`, which
builds both closed forms' states as arrays) do.
"""

from . import _lazy

# The module of each exported name.  A name is imported from its module
# when it is first read (PEP 562), so `import diagmap` loads no numpy until
# an oracle or data name is used.
_EXPORTS = {
    ".entropy": ("eta",),
    ".face_minimum": (
        "StationaryRoots",
        "lagrange_roots",
        "min_face_entropy",
        "pair_states_minimize",
        "root_square_sum",
        "two_value_entropy",
    ),
    ".lambert": ("lambert_w0", "lambert_wm1"),
    ".linesearch": ("brute_force_min_face",),
    ".roof": ("RoofResult", "real_roof_upper_bound", "roof_upper_bound"),
    ".states": (
        "Decomposition",
        "StateFormatError",
        "diagonal_channel",
        "diagonal_output_entropy",
        "minimizer_states",
        "optimal_decomposition",
        "rank2_state",
        "read_density_matrix",
        "symmetric_state",
        "twirl_s3",
        "von_neumann_entropy",
        "write_density_matrix",
    ),
    ".symmetric_curve": (
        "EDCurveRecord",
        "curve_record",
        "entanglement_entropy",
        "lower_tangent_z",
        "min_pure_output_entropy",
        "rank2_entanglement",
        "tangent_from_point",
        "theta0_entropy",
        "theta_transition",
    ),
}

__getattr__, __dir__ = _lazy.lazy_names(globals(), _EXPORTS)

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
