"""Brute-force upper bound on the convex-roof extension of the diagonal
map's output entropy.

Every length-m pure-state decomposition of a rank-r state arises from an
m x r column-orthonormal matrix applied to the scaled eigenbasis.  The
search walks that matrix with Givens rotations (plus phase rotations in
the complex case), which keep it exactly orthonormal, and minimizes the
weighted output entropy of the resulting decomposition by cyclic
coordinate descent over rotation angles with restarts.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .entropy import eta_array
from .linesearch import golden_vec
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
    if U.shape[0] < r:
        raise ValueError("isometry needs at least as many rows as columns")
    dev = np.max(np.abs(U.conj().T @ U - np.eye(r)))
    if dev > 1e-10:
        raise ValueError(f"columns are not orthonormal (deviation {dev:.3e})")
    return _decomposition_from_vectors(U.conj() @ M.T)


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


def _descend(T, W, f, moves, max_sweeps: int):
    """Cyclic coordinate descent over rotation angles, vectorized across
    restarts.  T holds the unnormalized decomposition vectors as rows and
    W the isometry generating them; both receive the same rotations."""
    n_restarts, m, _ = T.shape
    scan = np.linspace(-math.pi, math.pi, 24, endpoint=False)
    step = scan[1] - scan[0]
    active = np.ones(n_restarts, dtype=bool)
    for _ in range(max_sweeps):
        f_before = f.copy()
        for i, j, phase in moves:
            idx = np.nonzero(active)[0]
            if idx.size == 0:
                break
            X = T[idx, i, :]
            Y = T[idx, j, :]
            rest = (
                f[idx]
                - _row_entropy_parts((X * X.conj()).real)
                - _row_entropy_parts((Y * Y.conj()).real)
            )

            def pair_obj(t, Xb=X, Yb=Y):
                Xp, Yp = _rotate(Xb, Yb, t, phase)
                sq_x = (Xp * Xp.conj()).real
                sq_y = (Yp * Yp.conj()).real
                ent = eta_array(np.concatenate([sq_x, sq_y], axis=-1)).sum(axis=-1)
                norms = np.stack([sq_x.sum(axis=-1), sq_y.sum(axis=-1)], axis=-1)
                return ent - eta_array(norms).sum(axis=-1)

            coarse = pair_obj(scan[None, :], X[:, None, :], Y[:, None, :])
            best = np.argmin(coarse, axis=1)
            t = golden_vec(pair_obj, scan[best] - step, scan[best] + step)
            ft = rest + pair_obj(t)
            improved = ft < f[idx]
            gidx = idx[improved]
            if gidx.size:
                tb = t[improved]
                Xn, Yn = _rotate(X[improved], Y[improved], tb, phase)
                T[gidx, i, :] = Xn
                T[gidx, j, :] = Yn
                Wi, Wj = _rotate(W[gidx, i, :], W[gidx, j, :], tb, phase)
                W[gidx, i, :] = Wi
                W[gidx, j, :] = Wj
                f[gidx] = ft[improved]
        f[active] = _objective(T[active])
        active &= (f_before - f) > SWEEP_TOL
        if not active.any():
            break
    return T, W, f


def _search(omega, m, restarts, seed, complex_moves: bool, extra_inits, max_sweeps: int):
    if not complex_moves:
        omega = np.asarray(omega).real.astype(float)
    M = _eigen_factor(omega)
    N = omega.shape[0]
    r = M.shape[1]
    if m is None:
        m = r + 1
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
        inits.append(U.real.astype(dtype) if not complex_moves else U.astype(dtype))
    W = np.stack(inits)
    T = W @ M.T
    f = _objective(T)
    moves = []
    for i in range(m):
        for j in range(i + 1, m):
            moves.append((i, j, False))
            if complex_moves:
                moves.append((i, j, True))
    T, W, f = _descend(T, W, f, moves, max_sweeps)
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
    seed).  With m omitted, rank+1 is tried first and, when the state
    belongs to the symmetric family and misses its known curve value, the
    length is escalated to min(rank^2, N^2).
    """
    omega = check_density_matrix(omega)
    complex_moves = bool(np.max(np.abs(omega.imag)) > 0.0)
    result = _search(omega, m, restarts, seed, complex_moves, extra_inits, max_sweeps)
    if m is None:
        reference = _symmetric_family_reference(omega)
        if reference is not None and result.value > reference + 1e-6:
            N = omega.shape[0]
            r = result.isometry.shape[1]
            m_big = min(r * r, N * N)
            if m_big > result.isometry.shape[0]:
                retry = _search(omega, m_big, restarts, seed, complex_moves, None, max_sweeps)
                if retry.value < result.value:
                    result = retry
    return result


def real_roof_upper_bound(
    omega, m=None, restarts: int = 40, seed: int = 0, extra_inits=None, max_sweeps: int = 200
) -> RoofResult:
    """roof_upper_bound restricted to real orthogonal search; requires a
    real symmetric input, for which an optimal decomposition of real
    states exists."""
    omega = check_density_matrix(omega)
    if np.max(np.abs(omega.imag)) > 1e-12 or np.max(np.abs(omega - omega.T)) > 1e-12:
        raise ValueError("real_roof_upper_bound requires a real symmetric state")
    omega = omega.real.astype(float)
    return _search(omega, m, restarts, seed, False, extra_inits, max_sweeps)


def _symmetric_family_reference(omega):
    """Known curve value when omega is (numerically) a symmetric-family
    member; None otherwise."""
    if omega.shape != (3, 3):
        return None
    from .states import symmetric_state, twirl_s3
    from .symmetric_curve import entanglement_entropy

    z = twirl_s3(omega)
    if not -0.5 <= z <= 1.0:
        return None
    if np.max(np.abs(omega - symmetric_state(z))) > 1e-10:
        return None
    return entanglement_entropy(z)
