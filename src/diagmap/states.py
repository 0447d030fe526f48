"""The symmetric-family parameter z and its check, the number check of
every closed form, and the tolerances of the state checks.  Importing this
module loads no numpy: density matrices, the diagonal (pinching) channel,
the S3 permutation twirl, decompositions into pure states and the state
file format live in `matrices` and resolve here on first access.
"""

from . import _lazy

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-12

Z_MIN = -0.5
Z_MAX = 1.0


def _number(x, kind=float):
    """kind(x), refusing the str and bytes that float() and complex() parse."""
    if isinstance(x, (str, bytes)):
        raise TypeError(f"expected a number, got {x!r}")
    return kind(x)


def check_z(z: float) -> float:
    """Validate the symmetric-family parameter z in [-1/2, 1]."""
    z = _number(z)
    if not Z_MIN - 1e-12 <= z <= Z_MAX + 1e-12:
        raise ValueError(f"z = {z!r} outside [-1/2, 1]")
    # min(max(z, Z_MIN), Z_MAX) as comparisons: the builtins cost more per call
    z = Z_MIN if Z_MIN > z else z
    return Z_MAX if Z_MAX < z else z


__getattr__, __dir__ = _lazy.lazy_names(
    globals(),
    {
        ".matrices": (
            "Decomposition",
            "StateFormatError",
            "check_density_matrix",
            "diagonal_channel",
            "diagonal_output_entropy",
            "format_density_matrix",
            "parse_density_matrix",
            "read_density_matrix",
            "symmetric_state",
            "twirl_s3",
            "von_neumann_entropy",
            "write_density_matrix",
        )
    },
)
