"""The data layer: the entropy of a spectrum, the hermitian and
density-matrix checks with their tolerances, the diagonal (pinching)
channel, the S3 permutation twirl onto the symmetric family, the states
that attain the zero-sum face's minimum as arrays, decompositions into
pure states and the state file format.  This module imports numpy; the
scalar checks and constants it uses, and the face states' values, live in
`entropy`, `symmetric_curve` and `face_minimum`, which load none.
"""

import math

import numpy as np

from .entropy import HERMITIAN_TOL, NORM_TOL, TINY, _check_dimension, eta
from .face_minimum import _minimizers
from .symmetric_curve import Z_MAX, Z_MIN, check_z

TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def floored_log(x: np.ndarray) -> np.ndarray:
    """Elementwise log of an array, with 0 at or below TINY and at NaN: the
    log of the squared moduli in every search objective."""
    return np.log(x, out=np.zeros(x.shape), where=x > TINY)


def _entropy_sum(values) -> float:
    """Sum of eta over values clipped to [0, 1], smallest first, so the
    result does not depend on their order."""
    return float(sum(eta(float(x)) for x in np.sort(np.clip(values, 0.0, 1.0))))


def check_hermitian(H) -> np.ndarray:
    """Return H as a complex square array, raising if it is not hermitian."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise ValueError("matrix has non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow to inf or NaN fails the test below
        dev = np.max(np.abs(H - H.conj().T))
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not hermitian (deviation {dev:.3e})")
    return H


class StateFormatError(ValueError):
    """Raised when a density-matrix file cannot be parsed or validated."""


def check_density_matrix(omega) -> np.ndarray:
    """Return omega as a complex array, raising unless it is a valid state."""
    return _checked_spectrum(omega)[0]


def _checked_spectrum(omega):
    """check_density_matrix's state together with its ascending eigenvalues."""
    omega = check_hermitian(omega)
    tr = float(np.trace(omega).real)
    if not abs(tr - 1.0) <= TRACE_TOL:
        raise ValueError(f"density matrix has trace {tr!r}, not 1")
    evals = np.linalg.eigvalsh(omega)
    if not evals[0] >= -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {evals[0]!r}")
    return omega, evals


def diagonal_channel(omega) -> np.ndarray:
    """Zero all off-diagonal entries (complete measurement in the basis)."""
    omega = check_density_matrix(omega)
    return np.diag(np.diag(omega))


def diagonal_output_entropy(omega) -> float:
    """Entropy of the diagonal of omega, i.e. S(diagonal_channel(omega))."""
    omega = check_density_matrix(omega)
    return _entropy_sum(np.real(np.diag(omega)))


def von_neumann_entropy(omega) -> float:
    """S(omega) = -Tr omega log omega in nats."""
    return _entropy_sum(_checked_spectrum(omega)[1])


def twirl_s3(omega) -> float:
    """The parameter z of omega averaged over all six basis permutations and
    projected onto real matrices.  Every off-diagonal entry of that average
    is the mean of the real parts of omega's six, which is z/3 for
    symmetric_state(z), so z = (Re sum_ij omega_ij - Re tr omega) / 2."""
    omega = check_density_matrix(omega)
    if omega.shape != (3, 3):
        raise ValueError("twirl_s3 expects a 3x3 state")
    z = 0.5 * float(omega.sum().real - np.trace(omega).real)
    # round-off guard at the ends of the admissible range
    if Z_MAX < z < Z_MAX + 1e-9:
        z = Z_MAX
    elif Z_MIN - 1e-9 < z < Z_MIN:
        z = Z_MIN
    return z


def symmetric_state(z: float) -> np.ndarray:
    """The permutation-symmetric real 3x3 state with diagonal 1/3 and
    off-diagonal z/3."""
    z = check_z(z)
    m = np.full((3, 3), z / 3.0, dtype=complex)
    np.fill_diagonal(m, 1.0 / 3.0)
    return m


def minimizer_states(N: int) -> list:
    """All pure states attaining face_minimum.min_face_entropy(N), the
    pair states or the one-vs-rest states of face_minimum._minimizers, in
    its order, one float array each."""
    return [np.array(v) for v in _minimizers(_check_dimension(N))]


class Decomposition:
    """A convex mixture of pure states: sum_j weights[j] |s_j><s_j|, one
    member s_j per row of states, of the dtype it was given.  Immutable:
    assigning or deleting either attribute raises AttributeError.  Equality
    and hashing are by identity."""

    __slots__ = ("weights", "states")

    def __init__(self, weights, states):
        weights = np.asarray(weights, dtype=float)
        try:
            states = np.asarray(states)
        except ValueError:  # numpy refuses ragged rows
            raise ValueError("members have different lengths") from None
        states = states.reshape(0, 0) if states.shape == (0,) else states  # the empty mixture
        if states.ndim != 2 or len(states) != weights.size:
            raise ValueError(f"members of shape {states.shape} are not one row for each of {weights.size} weights")
        # one pass over Python floats: two numpy reductions cost more on a few
        # entries; NaN fails both comparisons
        for w in weights.ravel().tolist():
            if not 0.0 <= w < math.inf:
                raise ValueError(f"weights must be finite and non-negative, got {weights!r}")
        _set_weights(self, weights)
        _set_states(self, states)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which checks again
        return type(self), (self.weights, self.states)

    def __repr__(self) -> str:
        return f"Decomposition(weights={self.weights!r}, states={self.states!r})"

    def __len__(self) -> int:
        return self.weights.size

    def _squared_moduli(self) -> np.ndarray:
        """|s_jk|^2, raising unless every member is a unit vector: both readers' check."""
        sq = np.abs(self.states) ** 2
        for j, norm2 in enumerate(sq.sum(axis=1).tolist()):
            if not abs(norm2 - 1.0) <= NORM_TOL:
                raise ValueError(f"member {j} has squared norm {norm2!r}, not 1")
        return sq

    def mixture(self) -> np.ndarray:
        """Reassemble sum_j p_j |s_j><s_j| as a complex matrix."""
        self._squared_moduli()
        return ((self.states.T * self.weights.ravel()) @ self.states.conj()).astype(complex)

    def average_output_entropy(self) -> float:
        """Weighted average of the diagonal output entropy of the members."""
        total = 0.0
        for p, sq in zip(self.weights.ravel(), self._squared_moduli()):
            total += p * _entropy_sum(sq)
        return total


# the slots' own setters, which __init__ calls because __setattr__ refuses
# every assignment; object.__setattr__ would look each slot up by name
_set_weights = Decomposition.weights.__set__
_set_states = Decomposition.states.__set__


# ---------------------------------------------------------------------------
# Text format: first line the dimension N, then N rows of N complex entries
# written as "re+imj".
# ---------------------------------------------------------------------------

def format_density_matrix(omega) -> str:
    omega = np.asarray(omega, dtype=complex)
    n = omega.shape[0]
    lines = [str(n)]
    for row in omega:
        lines.append(" ".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in row))
    return "\n".join(lines) + "\n"


def parse_density_matrix(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise StateFormatError("empty density-matrix file")
    try:
        n = int(lines[0].strip())
    except ValueError as exc:
        raise StateFormatError(f"first line must be the dimension: {exc}") from exc
    if n < 1:
        raise StateFormatError(f"dimension must be positive, got {n}")
    if len(lines) != n + 1:
        raise StateFormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        if len(tokens) != n:
            raise StateFormatError(f"row {i} has {len(tokens)} entries, expected {n}")
        try:
            rows.append([complex(tok) for tok in tokens])
        except ValueError as exc:
            raise StateFormatError(f"row {i}: {exc}") from exc
    omega = np.array(rows, dtype=complex)
    try:
        return check_density_matrix(omega)
    except ValueError as exc:
        raise StateFormatError(str(exc)) from exc


def read_density_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StateFormatError(f"not UTF-8 text: {exc}") from exc
    return parse_density_matrix(text)


def write_density_matrix(path, omega) -> None:
    """Write omega in the text format, raising ValueError before the file
    is opened unless omega is a state that read_density_matrix accepts."""
    text = format_density_matrix(check_density_matrix(omega))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
