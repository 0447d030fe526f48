"""Brute-force upper bound on the convex-roof extension of the diagonal
map's output entropy.

Every length-m pure-state decomposition of a rank-r state arises from an
m x r column-orthonormal matrix applied to the scaled eigenbasis.  The
search walks that matrix with Givens rotations (plus phase rotations in
the complex case), which keep it exactly orthonormal, and minimizes the
weighted output entropy of the resulting decomposition by cyclic
coordinate descent over rotation angles with restarts.

With m omitted the length is the Caratheodory bound of the search space,
which depends only on the rank r and on whether the search is real: some
optimal decomposition has at most r^2 members, or r(r+1)/2 when the state
and its members are real (Uhlmann, "Roofs and convexity", Entropy 12, 1799
(2010)).  The search never reads a closed form of the roof.

Each rotation angle comes from linesearch.rotation_line_search on the
pair's squared moduli: a scan of one period, pi/2 since swapping the two
rows leaves their terms unchanged, then safeguarded Newton steps on the
analytic slope and curvature.  The objective is a sum of row terms, so the
disjoint pairs of one round-robin round are searched as one batch.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .entropy import eta_array
from .linesearch import check_count, check_seed, rotation_line_search
from .states import Decomposition, check_density_matrix

RANK_TOL = 1e-10
WEIGHT_TOL = 1e-12
SWEEP_TOL = 1e-11


@dataclass(frozen=True)
class RoofResult:
    value: float
    decomposition: Decomposition
    isometry: np.ndarray


def _eigen_factor(omega: np.ndarray):
    """Return M with M M^H = omega, columns scaled eigenvectors of the
    positive part of the spectrum."""
    evals, vecs = np.linalg.eigh(omega)
    keep = evals > RANK_TOL
    lam = evals[keep]
    V = vecs[:, keep]
    return V * np.sqrt(lam)


def decomposition_from_isometry(omega, U) -> Decomposition:
    """Decomposition whose unnormalized vectors are M conj(U[j]) for the
    eigenfactor M of omega; U must be column-orthonormal with exactly
    rank(omega) columns."""
    omega = check_density_matrix(omega)
    M = _eigen_factor(omega)
    r = M.shape[1]
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[1] != r:
        raise ValueError(f"isometry must have {r} columns (state rank), got shape {U.shape}")
    return _decomposition_from_vectors(_check_orthonormal(U).conj() @ M.T)


def _check_orthonormal(U: np.ndarray) -> np.ndarray:
    """U, raising unless it is finite and column-orthonormal within 1e-10."""
    if not np.isfinite(U).all():
        raise ValueError("isometry has non-finite entries")
    dev = np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1])))
    if not dev <= 1e-10:  # an overflow in the product reads as NaN
        raise ValueError(f"columns are not orthonormal (deviation {dev:.3e})")
    return U


def _row_entropy_parts(sq: np.ndarray) -> np.ndarray:
    # sum_i eta(|v_i|^2) - eta(|v|^2) for each row: the weighted output
    # entropy contribution p * S_D(v/|v|) of an unnormalized vector v
    return eta_array(sq).sum(axis=-1) - eta_array(sq.sum(axis=-1))


def _objective(T: np.ndarray) -> np.ndarray:
    sq = (T * T.conj()).real
    return _row_entropy_parts(sq).sum(axis=-1)


def _rotate(X, Y, t, phase: bool):
    c = np.cos(t)[..., None]
    s = np.sin(t)[..., None]
    if phase:
        return c * X - 1j * s * Y, -1j * s * X + c * Y
    return c * X - s * Y, s * X + c * Y


def _sweep_schedule(m: int, complex_moves: bool):
    """One sweep's moves as batches (I, J, phase) of disjoint row pairs
    (I[p], J[p]).

    The circle-method round robin gives m - 1 rounds of m/2 pairs for even
    m and m rounds of (m - 1)/2 pairs for odd m, which together cover every
    pair once.  Each round is one batch of Givens moves and, in a complex
    search, one more batch of phase moves.
    """
    seats = list(range(m)) + [-1] * (m % 2)  # -1 is the bye of odd m
    half = len(seats) // 2
    batches = []
    for _ in range(len(seats) - 1):
        pairs = [(min(a, b), max(a, b)) for a, b in zip(seats[:half], seats[::-1][:half]) if a >= 0 and b >= 0]
        if pairs:
            I, J = (np.array(col) for col in zip(*pairs))
            batches.append((I, J, False))
            if complex_moves:
                batches.append((I, J, True))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return batches


def _pair_coefficients(X, Y, phase: bool):
    """Return K0, K1, K2 and w for the rows X and Y (stacked over leading
    axes) such that after _rotate(X, Y, t, phase) the squared moduli of the
    columns [|x_k|^2, |y_k|^2, |x|^2, |y|^2] are exactly
    K0 + K1 cos 2t + K2 sin 2t, and the two rows' objective terms are
    sum_c w_c eta(K0 + K1 cos 2t + K2 sin 2t)."""
    ax = (X * X.conj()).real
    ay = (Y * Y.conj()).real
    xy = X * Y.conj()
    # |x_k'|^2 = P + Q cos 2t + R sin 2t, and |y_k'|^2 = 2P - |x_k'|^2
    P = 0.5 * (ax + ay)
    Q = 0.5 * (ax - ay)
    R = -(xy.imag if phase else xy.real)

    def columns(A, y_sign):
        total = A.sum(axis=-1, keepdims=True)
        return np.concatenate([A, y_sign * A, total, y_sign * total], axis=-1)

    w = np.ones(2 * X.shape[-1] + 2)
    w[-2:] = -1.0
    return columns(P, 1.0), columns(Q, -1.0), columns(R, -1.0), w


def _round(T, W, f, idx, I, J, phase: bool):
    """Line-search the rotation angle of every disjoint row pair
    (I[p], J[p]) of the restarts idx as one batch, and apply each angle
    that lowers its pair's terms to T and W.  The objective is a sum of
    row terms, so the pairs do not interact.  Returns the angles and the
    accepted mask, both of shape (len(idx), len(I))."""
    rows = idx[:, None]
    K0, K1, K2, w = _pair_coefficients(T[rows, I], T[rows, J], phase)
    t, new, current = rotation_line_search(K0, K1, K2, w, 0.5 * math.pi)
    improved = new < current
    b, p = np.nonzero(improved)
    r, i, j, tb = idx[b], I[p], J[p], t[b, p]
    T[r, i], T[r, j] = _rotate(T[r, i], T[r, j], tb, phase)
    W[r, i], W[r, j] = _rotate(W[r, i], W[r, j], tb, phase)
    f[idx] += np.where(improved, new - current, 0.0).sum(axis=-1)
    return t, improved


def _descend(T, W, f, batches, max_sweeps: int):
    """Cyclic coordinate descent over rotation angles, vectorized across
    restarts and across the disjoint pairs of each batch of
    _sweep_schedule.  T holds the unnormalized decomposition vectors as
    rows and W the isometry generating them; both receive the same
    rotations.  f is recomputed from T after every sweep."""
    active = np.ones(T.shape[0], dtype=bool)
    for _ in range(max_sweeps):
        idx = np.nonzero(active)[0]
        f_before = f.copy()
        for I, J, phase in batches:
            _round(T, W, f, idx, I, J, phase)
        f[idx] = _objective(T[idx])
        active &= (f_before - f) > SWEEP_TOL
        if not active.any():
            break
    return T, W, f


def _search(omega, m, restarts, seed, complex_moves: bool, extra_inits, max_sweeps: int):
    restarts = check_count("restarts", restarts)
    max_sweeps = check_count("max_sweeps", max_sweeps)
    seed = check_seed(seed)
    if not complex_moves:
        omega = np.asarray(omega).real.astype(float)
    M = _eigen_factor(omega)
    N = omega.shape[0]
    r = M.shape[1]
    if m is None:
        m = r * r if complex_moves else r * (r + 1) // 2
    if not r <= m <= N * N:
        raise ValueError(f"decomposition length m={m} outside [{r}, {N * N}]")
    dtype = complex if complex_moves else float
    inits = [np.eye(m, r, dtype=dtype)]
    for k in range(1, restarts):
        g = Generator(Philox(key=np.array([seed, k], dtype=np.uint64)))
        raw = g.standard_normal((m, r))
        if complex_moves:
            raw = raw + 1j * g.standard_normal((m, r))
        Q, _ = np.linalg.qr(raw)
        inits.append(Q)
    for U in extra_inits or ():
        U = np.asarray(U).conj()
        if U.shape != (m, r):
            raise ValueError(f"extra init has shape {U.shape}, expected {(m, r)}")
        inits.append(_check_orthonormal(U.real.astype(dtype) if not complex_moves else U.astype(dtype)))
    W = np.stack(inits)
    T = W @ M.T
    f = _objective(T)
    T, W, f = _descend(T, W, f, _sweep_schedule(m, complex_moves), max_sweeps)
    best = int(np.argmin(f))
    decomp = _decomposition_from_vectors(T[best])
    return RoofResult(
        value=decomp.average_output_entropy(),
        decomposition=decomp,
        isometry=W[best].conj(),
    )


def _decomposition_from_vectors(vectors: np.ndarray) -> Decomposition:
    weights = np.einsum("ij,ij->i", vectors, vectors.conj()).real
    keep = weights > WEIGHT_TOL
    states = [vectors[j] / math.sqrt(weights[j]) for j in np.nonzero(keep)[0]]
    return Decomposition(weights=weights[keep], states=states)


def roof_upper_bound(
    omega, m=None, restarts: int = 40, seed: int = 0, extra_inits=None, max_sweeps: int = 200
) -> RoofResult:
    """Upper bound on the convex roof of the diagonal output entropy.

    The reported value is the weighted average output entropy of an
    explicit decomposition, so it is a valid upper bound regardless of how
    well the search converged; it is deterministic given (m, restarts,
    seed).  A state with a nonzero imaginary part is searched with complex
    moves, any other with real ones.  With m omitted the decomposition
    length is rank^2 for a complex search and rank(rank+1)/2 for a real one.
    """
    omega = check_density_matrix(omega)
    complex_moves = bool(np.max(np.abs(omega.imag)) > 0.0)
    return _search(omega, m, restarts, seed, complex_moves, extra_inits, max_sweeps)


def real_roof_upper_bound(
    omega, m=None, restarts: int = 40, seed: int = 0, extra_inits=None, max_sweeps: int = 200
) -> RoofResult:
    """roof_upper_bound restricted to real orthogonal search; requires a
    real symmetric input, for which an optimal decomposition of real
    states exists.  With m omitted the length is rank(rank+1)/2."""
    omega = check_density_matrix(omega)
    if np.max(np.abs(omega.imag)) > 1e-12 or np.max(np.abs(omega - omega.T)) > 1e-12:
        raise ValueError("real_roof_upper_bound requires a real symmetric state")
    omega = omega.real.astype(float)
    return _search(omega, m, restarts, seed, False, extra_inits, max_sweeps)
