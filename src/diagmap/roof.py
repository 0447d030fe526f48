"""Brute-force upper bound on the convex-roof extension of the diagonal
map's output entropy.

Every length-m pure-state decomposition of a rank-r state arises from an
m x r column-orthonormal matrix W applied to the scaled eigenbasis M: its
unnormalized members are the rows of W M^T.  The search minimizes their
weighted output entropy over the Stiefel manifold of such W, from every
restart at once, with the Riemannian BFGS engine the face search runs too,
linesearch.stiefel_bfgs (for convex roofs, Roethlisberger, Lehmann and
Loss, PRA 80, 042301 (2009)).

With m omitted the length is the Caratheodory bound of the search space,
which depends only on the rank r and on whether the search is real: some
optimal decomposition has at most r^2 members, or r(r+1)/2 when the state
and its members are real (Uhlmann, "Roofs and convexity", Entropy 12, 1799
(2010)).  The search is real where M is (for _is_real states); it never
reads a closed form of the roof.

A converged decomposition can still sit in a stalled basin that lacks one
member, as happens just above the tangency point z* of the symmetric
curve.  At a stationary decomposition {v_k} the KKT multiplier X satisfies
X v_k = y_k, half the gradient, and every unit psi in the range of the
state prices at h(psi) = S(D(psi)) - psi^H X psi, zero at the members:
E >= tr(X omega) + min h, the Legendre bound of Guehne, Reimpell and
Werner, PRL 98, 110502 (2007).  While the last polish converged and some
psi prices below -PRICE_TOL, psi is inserted as a member of weight about
EPS and the decomposition polished again; each insertion lowers the value,
to first order by EPS |h(psi)|, and one that does not is dropped and ends
the search.  INSERTIONS only backstops this loop.  The pricing minimizes h
as linesearch.sphere_functions less psi^H X psi, polished from every member
and every range projection of the pair states e_i + e_j and e_i - e_j.
"""

import math
from dataclasses import dataclass

import numpy as np

from .entropy import _integer
from .linesearch import POLISH_ITERS, _retract, check_count, check_seed, sphere_functions, stiefel_bfgs, stream_rng
from .states import Decomposition, check_density_matrix, floored_log

RANK_TOL = 1e-10
# A state whose imaginary part is at most REAL_TOL is real: it is factored,
# searched and rebuilt from an isometry as its real part.
REAL_TOL = 1e-12
# Pricing: a state priced below -PRICE_TOL is inserted with weight about
# EPS, until the pricing is clean; INSERTIONS only backstops that loop.
PRICE_TOL = 1e-7
EPS = 1e-3
INSERTIONS = 16


@dataclass(frozen=True)
class RoofResult:
    """A search's bound, the decomposition and isometry that attain it, and
    how the search ended: the engine iterations (one Armijo try each) of the
    best restart's polish and of each insertion polish after it, the members
    inserted, and whether max_sweeps stopped the best restart's last polish."""

    value: float
    decomposition: Decomposition
    isometry: np.ndarray
    sweeps: int
    insertions: int
    capped: bool


def _is_real(omega: np.ndarray) -> bool:
    return bool(np.max(np.abs(omega.imag)) <= REAL_TOL)


def _eigen_factor(omega: np.ndarray):
    """Return M with M M^H = omega, columns scaled eigenvectors of the
    positive part of the spectrum.  A real state (_is_real) is factored as
    its real part and searched over real isometries.  The members of a
    search's decomposition are the rows of conj(U) M^T, U its isometry."""
    if _is_real(omega):
        omega = omega.real.astype(float)
    evals, vecs = np.linalg.eigh(omega)
    keep = evals > RANK_TOL
    return vecs[:, keep] * np.sqrt(evals[keep])


def _entropy_parts(T: np.ndarray):
    """The weighted output entropy of the unnormalized members, the rows of T,
    and Y = T (log rownorm^2 - log |T|^2), half its gradient in T."""
    sq = (T * T.conj()).real
    rn = sq.sum(axis=-1)
    lg, lr = floored_log(sq), floored_log(rn)
    return (rn * lr - (sq * lg).sum(axis=-1)).sum(axis=-1), T * (lr[..., None] - lg)


def _polish_functions(M):
    """funcs(W) of stiefel_bfgs for the polish: the weighted output entropy
    of T = W M^T and its Euclidean gradient 2 Y conj(M) (_entropy_parts)."""
    MT, M2 = M.T, 2.0 * M.conj()

    def funcs(W):
        f, Y = _entropy_parts(W @ MT)
        return f, Y @ M2

    return funcs


def _pair_states(N):
    """The rows e_i + e_j and e_i - e_j for i < j, unnormalized and real for
    any state: points with N - 2 zero entries, on the coordinate faces where
    the output entropy has a log cusp and a stalled decomposition's missing
    member often sits."""
    i, j = np.triu_indices(N, 1)
    E = np.eye(N)
    return np.concatenate([E[i] + E[j], E[i] - E[j]])


def _price(T, M):
    """The unit c in the range coordinates of M's eigenbasis B whose state
    Bc prices lowest against the decomposition T, and its price h.

    The KKT multiplier of T in the range is X_r = B^H (Y^T conj(T)) B / lam,
    Hermitian part, Y of _entropy_parts(T), lam the eigenvalues, and h is
    sphere_functions(B) less c^H X_r c.  Every range projection of the
    _pair_states and every member is polished by stiefel_bfgs: a start's
    price before the polish does not tell which basin holds the minimizer.
    The pricing reads no random stream."""
    scale = np.linalg.norm(M, axis=0)
    B = M / scale
    X = np.einsum("ik,ji,jl,lm->km", B.conj(), _entropy_parts(T)[1], T.conj(), B) / scale**2
    X = 0.5 * (X + X.conj().T)
    C = np.concatenate([_pair_states(B.shape[0]), T]) @ B.conj()
    norm = np.linalg.norm(C, axis=1)
    C = C[norm > RANK_TOL] / norm[norm > RANK_TOL, None]
    entropy = sphere_functions(B)

    def funcs(C):
        f, G = entropy(C)
        XC = np.einsum("ij,bjk->bik", X, C)
        return f - np.einsum("bik,bik->b", C.conj(), XC).real, G - 2.0 * XC

    C, h, _, _ = stiefel_bfgs(C[:, :, None], funcs)
    best = int(np.argmin(h))
    return float(h[best]), C[best, :, 0]


def _starts(M, m, restarts, seed):
    """The isometries the search starts from: the identity and restarts - 1
    random ones, the k-th from stream k of the seed, of the eigenfactor M's
    dtype: a real M is searched over real isometries.  The identity start
    uses no stream, and nothing else draws from a roof seed: stream 0 is
    left unread.  The starts are allocated in one piece before any draw, so
    numpy refuses a count too large to hold before a stream is read."""
    r = M.shape[1]
    inits = np.empty((restarts, m, r), dtype=M.dtype)
    inits[0] = np.eye(m, r)
    for k in range(1, restarts):
        g = stream_rng(seed, k)
        inits[k] = g.standard_normal((m, r))
        if np.iscomplexobj(M):
            inits[k] += 1j * g.standard_normal((m, r))
    inits[1:] = np.linalg.qr(inits[1:])[0]  # one call orthonormalizes every random start
    return inits


def _decomposition_from_vectors(vectors: np.ndarray) -> Decomposition:
    # only members of zero weight are dropped: any other, however light,
    # carries part of the mixture and of its average entropy
    weights = np.einsum("ij,ij->i", vectors, vectors.conj()).real
    keep = weights > 0.0
    return Decomposition(weights=weights[keep], states=vectors[keep] / np.sqrt(weights[keep])[:, None])


def roof_upper_bound(omega, m=None, restarts: int = 40, seed: int = 0, max_sweeps: int = POLISH_ITERS) -> RoofResult:
    """Upper bound on the convex roof of the diagonal output entropy.

    The reported value is the weighted average output entropy of an
    explicit decomposition, so it is a valid upper bound regardless of how
    well the search converged or how long the decomposition grew; it is
    deterministic given (m, restarts, seed).  A state with an imaginary part
    above REAL_TOL is searched over complex isometries, any other as its
    real part over real ones.  m is the starting length; with m omitted it
    is rank^2 for a complex search and rank(rank+1)/2 for a real one, and
    each insertion adds one member.  max_sweeps caps the engine's
    iterations per polish, each one Armijo try; its default is
    linesearch.POLISH_ITERS, the budget of every polish the library runs
    (restart, insertion, pricing and face search).  A polish that hits a
    cap is not priced: the search ends there, with capped set.
    """
    omega = check_density_matrix(omega)
    restarts = check_count("restarts", restarts)
    max_sweeps = check_count("max_sweeps", max_sweeps)
    seed = check_seed(seed)
    if m is not None:
        try:
            m = _integer(m)
        except TypeError:
            raise TypeError(f"m must be an integer or None, got {m!r}") from None
    M = _eigen_factor(omega)
    N, r = omega.shape[0], M.shape[1]
    if m is None:
        m = r * r if np.iscomplexobj(M) else r * (r + 1) // 2
    if not r <= m <= N * N:
        raise ValueError(f"decomposition length m={m} outside [{r}, {N * N}]")
    funcs = _polish_functions(M)
    W, f, iters, capped = stiefel_bfgs(_starts(M, m, restarts, seed), funcs, max_sweeps)
    best = int(np.argmin(f))
    w, fw, capped, sweeps, insertions = W[best : best + 1], f[best], capped[best], int(iters[best]), 0
    while not capped and insertions < INSERTIONS:
        h, c = _price(w[0] @ M.T, M)
        if not h < -PRICE_TOL:
            break
        # the member sqrt(EPS) Bc is the row sqrt(EPS) c / sqrt(lam) of W
        row = math.sqrt(EPS) * c / np.linalg.norm(M, axis=0)
        wn, fn, steps, cn = stiefel_bfgs(_retract(np.concatenate([w, row[None, None]], axis=1)), funcs, max_sweeps)
        sweeps += int(steps[0])
        if not fn[0] < fw:  # an insertion that does not lower the value is dropped
            break
        w, fw, capped, insertions = wn, fn[0], cn[0], insertions + 1
    decomp = _decomposition_from_vectors(w[0] @ M.T)
    return RoofResult(
        value=decomp.average_output_entropy(),
        decomposition=decomp,
        isometry=w[0].conj(),
        sweeps=sweeps,
        insertions=insertions,
        capped=bool(capped),
    )


# perfbench's RoofCurve workload calls the search by this name until ROADMAP
# item 4a moves it to roof_upper_bound
real_roof_upper_bound = roof_upper_bound
