"""Lowest-eigenpair solves and real-time propagation on one block list.

`hamiltonian_blocks` gives a point's Hamiltonian as pairs (H_s, S_s) with
H = sum_s S_s H_s S_s^T: at the crossing point Omega = pi, where H commutes
with the momentum reflection k -> 1-k, the two parity sectors (across which
the avoided-crossing pair splits); elsewhere one block, the operator in the
Fock basis (`hamiltonian.build_hamiltonian`) with the identity.  A block of
at most `DENSE_CUTOFF` columns is solved densely on `FactoredOperator.dense`
(300, where that stops being faster than the iterative path).  A larger
block in the weak-coupling regime (every Gram prefactor, b or g_tilde/2, at
most `LOBPCG_MAX_COUPLING`) is solved by LOBPCG with one column per
requested level, preconditioned exactly on its low-kinetic window (H_WW
from the same dense form) and by Jacobi elsewhere and started from the
window's own eigenvectors; there the avoided-crossing pair sits in a cluster
of nearly degenerate kinetic levels, which Krylov methods resolve slowly.
Every other block is solved by the plain Lanczos recurrence (no
reorthogonalization, no restart) from a deterministic seeded start vector,
accepted only if its Ritz pairs pass ARPACK's stopping rule, are distinct
and have explicit residuals within it (`_lanczos`).
ARPACK is the checked fallback: a block that either solver misses is solved
by ARPACK from that solver's best vector.  `iterations` counts operator
applications to one vector, each column of a block product once.  On the
12-point fig2 sweep this takes 2,361 matvecs, on the 60-point one 11,854
(3,080 and 15,279 with cold ARPACK above a LOBPCG threshold of 0.6; 8,377
and 36,335 with ARPACK alone).  Solving each sector on its own makes
splittings far below the spectral width (the NOON regime) cheap to resolve.
Of m levels, only the block expected to hold the ground (sector N mod 2) is
asked for m; the other is asked for m - 1 and is re-solved for m unless its
highest computed level certifies that no level of it was missed.

Real-time propagation takes each block's levels E_s and orthonormal
eigenvectors V_s, as `lowest_eigenpairs` returns them, and carries only the
kept amplitudes a_s(t) = exp(-i(t - t0)E_s) V_s^H S_s^T psi0, the exact
propagation of psi0's projection onto the given levels (psi0 itself when
every level is given); every trace is a quadratic form on them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import ConvergenceError
from .hamiltonian import FactoredOperator, assemble, build_hamiltonian, cached_sector_pieces
from .params import RescaledCoupling, SystemParams, rescale_interaction

DEFAULT_SEED = 7
DEFAULT_TOL = 1e-10
# largest block solved densely, the crossover of the dense path (form and `eigh`)
# and the iterative one, in ms (one sector, m = 2, one BLAS thread, g = 0.01/1.4/85):
# 1.5 and 2.3-4.2 at dim 182, 3.6-3.8 and 2.5-5.0 at 280, 5.7-6.6 and 2.7-5.7 at 350
DENSE_CUTOFF = 300
DEGENERACY_FACTOR = 10.0
# largest Gram-term prefactor (b or g_tilde/2, in E0) that `lowest_eigenpairs`
# solves with LOBPCG, set by wall time against the Lanczos loop (one BLAS
# thread, one m = 2 point, both sectors, median of 5): at N=5, r=20 LOBPCG
# took 130 matvecs in 0.39 s against 370 in 0.43 s at g_tilde/2 = 0.30, 140 in
# 0.40 s against 360 in 0.39 s at 0.40, and 150 in 0.42 s against 350 in
# 0.36 s at 0.45; N=4, r=20 and N=5, r=16 lose from 0.30 on (0.11 s against
# 0.07 s, 0.17 s against 0.13 s)
LOBPCG_MAX_COUPLING = 0.4
# the preconditioner's exact window: columns within this kinetic energy (E0)
# of the lowest
COARSE_WINDOW = 10.0
# LOBPCG iterations before the ARPACK fallback takes over
LOBPCG_MAXITER = 200
# Lanczos steps before the ARPACK fallback takes over, and the steps between
# two convergence tests of the Ritz values
LANCZOS_MAX_STEPS = 600
LANCZOS_CHECK = 10
# largest weight on the start vector (first component of its eigenvector of
# the Lanczos tridiagonal) of an unconverged Ritz value taken for a ghost
# still forming (sqrt(eps)): over the Lanczos solves of N=4, r=20, N=5,
# r=12 and r=16 and N=6, r=14 at m = 1-4, unconverged Ritz values carried at
# most 3.4e-9 or 2.0e-7 (ghosts) and at least 2.6e-4 (levels)
SPURIOUS_WEIGHT = 1.5e-8
# fewest samples of a trace that `dominant_frequency` reads a peak from
MIN_TRACE_SAMPLES = 8


@dataclass
class EigenSolution:
    """Lowest eigenpairs with convergence diagnostics.

    Eigenvalues ascend; eigenvectors are unit-norm columns over the basis.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray
    iterations: int
    method: str


def _start_vector(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _residuals(operator, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """||H x_i - theta_i x_i|| per column, from one block product; each norm
    reads a contiguous row, so it rounds as the norm of one column's residual."""
    rows = np.ascontiguousarray((operator @ vecs - vecs * vals).T)
    return np.array([np.linalg.norm(row) for row in rows])


def _window_preconditioner(operator: FactoredOperator, k: int):
    """(M, X0) for LOBPCG's k columns on H = diag(kin) + sum_i c_i F_i^T F_i,
    a parity sector or the Fock-basis operator.

    W holds the columns whose kinetic diagonal lies within COARSE_WINDOW of
    its minimum (at least k of them).  M applies (H_WW - sigma)^-1 on W,
    with H_WW formed densely on W (`FactoredOperator.dense`), and the Jacobi
    inverse 1/(diag(H) - sigma) off W; sigma lies 0.05 below both the lowest
    level of H_WW and the smallest diagonal entry, so M is positive definite.
    X0 holds the k lowest eigenvectors of H_WW, embedded in the block.
    """
    kin = operator.diagonal
    count = max(int(np.count_nonzero(kin <= kin.min() + COARSE_WINDOW)), k)
    window = np.sort(np.argsort(kin, kind="stable")[:count])
    diagonal = kin.copy()
    for coef, factor in operator.terms:
        diagonal += coef * factor.column_norms2
    theta, q = sla.eigh(operator.dense(window))
    sigma = min(theta[0], diagonal.min()) - 0.05
    off_window = 1.0 / (diagonal - sigma)
    in_window = (q / (theta - sigma)) @ q.T

    def precondition(x):  # x: a block of columns
        y = x * off_window[:, None]
        y[window] = in_window @ x[window]
        return y

    start = np.zeros((kin.size, k))
    start[window] = q[:, :k]
    return precondition, start


def _lowest(vals, vecs, res, m, iterations, method) -> EigenSolution:
    """The m lowest of the given eigenpairs (vector columns), ascending."""
    order = np.argsort(vals)[:m]
    return EigenSolution(
        eigenvalues=np.asarray(vals, dtype=float)[order],
        eigenvectors=np.asarray(vecs, dtype=float)[:, order],
        residual_norms=np.asarray(res)[order],
        iterations=iterations,
        method=method,
    )


def lowest_eigenpairs(
    operator: FactoredOperator,
    m: int,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    v0: np.ndarray | None = None,
    max_iterations: int | None = None,
) -> EigenSolution:
    """The m lowest eigenpairs of a factored real symmetric operator.

    Dimensions up to `DENSE_CUTOFF` (read at call time), and any m within
    one of the dimension, are solved densely on `operator.dense()`, with
    residuals on the operator.  Larger problems apply the operator factor by
    factor: in the weak-coupling regime (every prefactor at most
    `LOBPCG_MAX_COUPLING`) by LOBPCG (`_lobpcg`), accepted only if every
    residual is at most `tol`; otherwise by the Lanczos loop (`_lanczos`)
    from the seeded (or provided) start vector.  When either misses, ARPACK
    (`_arpack`) takes over from its best vector, and `iterations` counts the
    matvecs of both.  `max_iterations` bounds LOBPCG's iterations and
    ARPACK's restarts; the Lanczos loop stops at `LANCZOS_MAX_STEPS`.
    Raises ValueError unless 1 <= m <= the dimension (`check_levels`), and
    ConvergenceError if ARPACK stalls, with the achieved residual of the
    pairs that converged (None when none did).
    """
    dim = operator.dimension
    check_levels(m, dim)
    if dim <= DENSE_CUTOFF or m >= dim - 1:
        vals, vecs = sla.eigh(operator.dense(), subset_by_index=(0, m - 1))
        return _lowest(vals, vecs, _residuals(operator, vals, vecs), m, 0, "dense")

    if max((c for c, _ in operator.terms), default=0.0) <= LOBPCG_MAX_COUPLING:
        sol = _lobpcg(operator, m, tol, max_iterations)
        if np.all(sol.residual_norms <= tol):
            return sol
        start, done = sol.eigenvectors[:, 0], sol.iterations
    else:
        sol, start, done = _lanczos(
            operator, m, tol, _start_vector(dim, seed) if v0 is None else v0
        )
        if sol is not None:
            return sol
    # ARPACK from the first solver's best vector; `iterations` counts both
    return _arpack(operator, m, tol, start, max_iterations, done)


def _lanczos(
    operator: FactoredOperator, m: int, tol: float, v0: np.ndarray
) -> tuple[EigenSolution | None, np.ndarray, int]:
    """The m lowest pairs by the plain Lanczos recurrence from v0, with no
    reorthogonalization and no restart: (the pairs, or None on a miss; the
    lowest Ritz vector; the steps taken, one matvec each).

    Every `LANCZOS_CHECK` steps the m lowest levels of `_ritz_levels` are
    tested with their bounds, ARPACK's rule |beta_j s_ji| <= tol *
    max(eps^(2/3), |theta_i|) and at most tol below the m-th level.  The
    pairs are returned once all m pass, no two of them coincide (a copy is
    a ghost of a converged level or a double level, which the recurrence
    cannot tell apart) and every explicit residual ||Hx - theta x|| meets
    its bound.  A copy, a residual miss, a breakdown (beta_j <= eps
    |alpha_j|) or `LANCZOS_MAX_STEPS` steps are a miss.  Converged Ritz
    pairs stay accurate without reorthogonalization (Paige 1980); lost
    orthogonality shows only as ghosts, spurious while they form and copies
    once they converge.  The rows live in one preallocated array, never
    copied.
    """
    dim = operator.dimension
    steps = min(LANCZOS_MAX_STEPS, dim)
    rows = np.empty((steps, dim))
    alpha, beta = np.empty(steps), np.empty(steps)
    rows[0] = v0 / np.linalg.norm(v0)
    eps = np.finfo(float).eps
    for j in range(steps):
        w = operator @ rows[j]
        if j:
            w -= beta[j - 1] * rows[j - 1]
        alpha[j] = w @ rows[j]
        w -= alpha[j] * rows[j]
        beta[j] = np.linalg.norm(w)
        done = j + 1
        # a breakdown or the step cap
        last = beta[j] <= eps * abs(alpha[j]) or done == steps
        if last or done % LANCZOS_CHECK == 0:
            theta, s, bound, converged, copy = _ritz_levels(
                alpha[:done], beta[:done], m, tol
            )
            if theta.size == m and converged.all() and not last:
                x = (s.T @ rows[:done]).T  # reads the rows row-major
                x /= np.linalg.norm(x, axis=0)
                if not copy:
                    res = _residuals(operator, theta, x)
                    if np.all(res <= bound):
                        return _lowest(theta, x, res, m, done, "lanczos"), x[:, 0], done
                return None, x[:, 0], done
            if last:  # the last step always returns
                x = rows[:done].T @ s[:, 0] if theta.size else rows[0]
                return None, x / np.linalg.norm(x), done
        np.divide(w, beta[j], out=rows[j + 1])


def _ritz_levels(
    alpha: np.ndarray, beta: np.ndarray, m: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]:
    """(theta, s, bound, converged, copy) for the m lowest levels among the
    Ritz pairs of the Lanczos tridiagonal T after j steps (diagonal alpha,
    off-diagonal beta[:-1], next coefficient beta_j = beta[-1]): the Ritz
    values, ascending; their eigenvectors of T; their stopping bounds; whether
    |beta_j s_ji| meets them; and whether two of the levels coincide, within
    DEGENERACY_FACTOR times ARPACK's bound tol * max(eps^(2/3), |theta|).
    Fewer than m levels when more than m of T's 2m lowest are spurious.

    A Ritz value is spurious when it has neither met ARPACK's bound nor a
    coinciding neighbour and its eigenvector of T has no weight on the start
    vector (|s_1i| <= SPURIOUS_WEIGHT): a ghost still forming, not a level
    (Cullum and Willoughby 1985).  Once a ghost converges it coincides with
    its level, stays, and the caller sees a copy.  A forming ghost erodes
    the vector of the level it copies; a level below the m-th converged
    before it, so its bound is also capped at tol.
    """
    k = min(2 * m, alpha.size)
    theta, s = sla.eigh_tridiagonal(alpha, beta[:-1], select="i", select_range=(0, k - 1))
    bound = tol * np.maximum(np.finfo(float).eps ** (2.0 / 3.0), np.abs(theta))
    converged = np.abs(beta[-1] * s[-1]) <= bound
    close = np.diff(theta) <= DEGENERACY_FACTOR * bound[1:]
    near = np.append(close, False) | np.append(False, close)
    keep = np.flatnonzero(converged | near | (np.abs(s[0]) > SPURIOUS_WEIGHT))[:m]
    copy = bool(np.any(np.diff(theta[keep]) <= DEGENERACY_FACTOR * bound[keep][1:]))
    theta, s, bound = theta[keep], s[:, keep], bound[keep]
    bound[:-1] = np.minimum(bound[:-1], tol)
    return theta, s, bound, np.abs(beta[-1] * s[-1]) <= bound, copy


def _arpack(
    operator: FactoredOperator,
    m: int,
    tol: float,
    v0: np.ndarray,
    max_iterations: int | None,
    done: int = 0,
) -> EigenSolution:
    """The m lowest pairs by ARPACK from v0; `iterations` adds its matvecs to
    `done`, the matvecs of the solver that missed before it.  Raises
    ConvergenceError if it stalls, with the achieved residual of the pairs
    that converged (None when none did)."""
    # here, as in `_lobpcg`: a run whose blocks are all dense or left to the
    # Lanczos loop (the quench) then never imports it
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    dim = operator.dimension
    matvecs = [done]

    def counted(x):
        matvecs[0] += 1
        return operator @ x

    op = LinearOperator(shape=(dim, dim), matvec=counted, dtype=float)
    try:
        vals, vecs = eigsh(
            op,
            k=m,
            which="SA",
            v0=v0,
            tol=tol,
            ncv=min(dim - 1, max(4 * m + 20, 40)),
            maxiter=max_iterations if max_iterations is not None else 2000,
        )
    except ArpackNoConvergence as exc:
        if exc.eigenvalues is None or not len(exc.eigenvalues):
            raise ConvergenceError(
                f"Krylov eigensolve did not converge: no eigenpair converged "
                f"in {matvecs[0]} matvecs"
            ) from exc
        got = np.asarray(exc.eigenvalues)
        achieved = float(np.max(_residuals(operator, got, np.asarray(exc.eigenvectors))))
        raise ConvergenceError(
            f"Krylov eigensolve did not converge ({matvecs[0]} matvecs, "
            f"achieved residual {achieved:.3e})",
            residual=achieved,
        ) from exc
    return _lowest(vals, vecs, _residuals(operator, vals, vecs), m, matvecs[0], "arpack")


def _lobpcg(
    operator: FactoredOperator, m: int, tol: float, max_iterations: int | None
) -> EigenSolution:
    """The m lowest pairs by LOBPCG from `_window_preconditioner`, one column
    per returned level, so that no iteration is spent on a level nobody reads;
    `iterations` counts each column of a block product once.  The caller
    checks the residuals against `tol`."""
    from scipy.sparse.linalg import lobpcg

    matvecs = [0]

    def counted(x):  # x: a block of columns
        matvecs[0] += x.shape[1]
        return operator @ x

    precondition, start = _window_preconditioner(operator, m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the caller checks for a miss
        vals, vecs = lobpcg(
            counted, start, M=precondition, tol=tol, largest=False,
            maxiter=max_iterations if max_iterations is not None else LOBPCG_MAXITER,
        )
    return _lowest(vals, vecs, _residuals(operator, vals, vecs), m, matvecs[0], "lobpcg")


def _is_crossing_phase(phase: float) -> bool:
    return abs(phase - math.pi) <= 1e-12


def _first_sector(n_atoms: int) -> int:
    """The parity sector expected to hold the ground at the crossing."""
    return n_atoms % 2


def hamiltonian_blocks(
    params: SystemParams, coupling: RescaledCoupling
) -> list[tuple[FactoredOperator, sp.csr_matrix]]:
    """The Hamiltonian at one point as blocks (H_s, S_s), H = sum_s S_s H_s S_s^T.

    At Omega = pi these are the even and odd reflection-parity sectors,
    assembled at Omega = pi exactly; elsewhere one block, the Fock-basis
    operator (`build_hamiltonian`) with the identity, which builds no sector.
    """
    if not _is_crossing_phase(params.phase):
        operator = build_hamiltonian(params, coupling)
        return [(operator, sp.identity(operator.dimension, format="csr"))]
    params = replace(params, phase=math.pi)
    sectors = cached_sector_pieces(params.n_atoms, params.n_modes)
    return [(assemble(b, params, coupling), b.isometry) for b in sectors]


def check_levels(m: int, dimension: int) -> None:
    """Raise ValueError unless 1 <= m <= dimension."""
    if not 1 <= m <= dimension:
        raise ValueError(f"requested {m} levels of a dimension-{dimension} system")


def solve_lowest(
    params: SystemParams,
    m: int = 2,
    coupling: RescaledCoupling | None = None,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    max_iterations: int | None = None,
) -> EigenSolution:
    """Lowest m levels of the full system at one parameter point.

    Each block of `hamiltonian_blocks` is solved on its own, block s from
    seed + s, and the levels are merged.  The block that holds the ground
    (sector N mod 2 at the crossing) is solved first for m levels at `tol`;
    the other for max(m - 1, 1) levels at tol / max(1, |the first's m-th
    level|), which bounds its residuals by `tol` (H is positive semidefinite,
    so every level it can contribute lies in [0, the first's m-th level]).
    The result is exact for any spectrum: a block that has uncomputed levels
    and whose highest computed level lies below the m-th merged level is
    solved again for m levels.  A one-level solve whose residual exceeds `tol`
    is solved once more at tol / max(1, |theta|).
    Raises ValueError unless 1 <= m <= the dimension.
    """
    if coupling is None:
        coupling = rescale_interaction(params.interaction, params.n_modes)
    blocks = hamiltonian_blocks(params, coupling)
    check_levels(m, sum(block.dimension for block, _ in blocks))
    sols: dict[int, EigenSolution] = {}
    iterations = 0

    def solve_block(which: int, k: int, block_tol: float) -> EigenSolution:
        nonlocal iterations
        block = blocks[which][0]
        sol = lowest_eigenpairs(
            block, min(k, block.dimension), tol=block_tol, seed=seed + which,
            max_iterations=max_iterations,
        )
        if sol.eigenvalues.size == 1 and sol.residual_norms[0] > tol:
            # ARPACK stops on |r| <= tol*|theta|: once more from its vector
            again = lowest_eigenpairs(
                block, 1, tol=tol / max(1.0, abs(float(sol.eigenvalues[0]))),
                v0=sol.eigenvectors[:, 0], max_iterations=max_iterations,
            )
            again.iterations += sol.iterations
            sol = again
        sols[which] = sol
        iterations += sol.iterations
        return sol

    # Sector N mod 2 held the lower ground at every point checked (N = 2-6,
    # r = 8-20, g = 1e-4..1e3); the certificate below covers any other case.
    # ARPACK stops on |r| <= tol*|theta|, hence the scaled tol.
    first = _first_sector(params.n_atoms) if len(blocks) == 2 else 0
    top = float(solve_block(first, m, tol).eigenvalues[-1])
    if len(blocks) == 2:
        second, second_tol = 1 - first, tol / max(1.0, abs(top))
        sol = solve_block(second, max(m - 1, 1), second_tol)
        # certificate: an uncomputed level can lie below the m-th merged
        # level only if the highest computed one does
        merged = np.sort(np.concatenate([s.eigenvalues for s in sols.values()]))
        threshold = merged[m - 1] if merged.size >= m else math.inf
        if sol.eigenvalues.size < blocks[second][0].dimension and sol.eigenvalues[-1] < threshold:
            solve_block(second, m, second_tol)

    origin = [(w, i) for w, s in sols.items() for i in range(s.eigenvalues.size)]
    vals = np.concatenate([s.eigenvalues for s in sols.values()])
    res = np.concatenate([s.residual_norms for s in sols.values()])
    keep = np.argsort(vals)[:m]
    # only the kept pairs are lifted to the full basis
    vecs = np.column_stack(
        [blocks[w][1] @ sols[w].eigenvectors[:, i] for w, i in (origin[j] for j in keep)]
    )
    method = sols[0].method
    if len(blocks) == 2:  # e.g. "dense-parity", "arpack+lanczos-parity"
        method = "+".join(sorted({s.method for s in sols.values()})) + "-parity"
    return _lowest(vals[keep], vecs, res[keep], m, iterations, method)


@dataclass
class QuenchResult:
    """The kept amplitudes along a real-time propagation.

    Row j of `amplitudes` holds a_s(t_j) of every block in turn, so the state
    at t_j is sum_s S_s V_s a_s(t_j); `norms` holds its norms.  `method` is
    "spectral" (one block) or "spectral-parity" (parity blocks);
    `truncated_weight` is the weight of psi0 outside the given levels.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    norms: np.ndarray
    method: str
    truncated_weight: float


def propagate(
    blocks: list[tuple[np.ndarray, np.ndarray, sp.spmatrix]],
    psi0: np.ndarray,
    times: np.ndarray,
) -> QuenchResult:
    """Unitary propagation of psi0 through the given time grid.

    `blocks` holds (E_s, V_s, S_s) per block of H = sum_s S_s H_s S_s^T:
    levels, their orthonormal eigenvectors (columns) and the isometry.  The
    amplitudes a_s(t) = exp(-i(t - t0)E_s) V_s^H S_s^T psi0 are the exact
    propagation of psi0's projection onto the given levels; the weight outside
    them, sum_s ||S_s^T psi0 - V_s V_s^H S_s^T psi0||^2 over the blocks that
    leave levels out, is 0 when none does.  The norm is the form
    sum_s a_s^H (V_s^H V_s) a_s; no state is formed.
    """
    psi = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {norm} deviates from 1")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d grid")

    coefficients = [vectors.conj().T @ (isometry.T @ psi) for _, vectors, isometry in blocks]
    elapsed = times - times[0]
    amplitudes = np.hstack(
        [np.exp(-1j * np.outer(elapsed, e)) * c for (e, _, _), c in zip(blocks, coefficients)]
    )
    return QuenchResult(
        times=times,
        amplitudes=amplitudes,
        norms=np.sqrt(block_trace(amplitudes, [v.conj().T @ v for _, v, _ in blocks])),
        method="spectral" if len(blocks) == 1 else "spectral-parity",
        # residuals, not a difference of norms near 1: w keeps its digits
        truncated_weight=math.fsum(
            np.linalg.norm(isometry.T @ psi - vectors @ c) ** 2
            for (_, vectors, isometry), c in zip(blocks, coefficients)
            if vectors.shape[1] < vectors.shape[0]
        ),
    )


def block_trace(amplitudes: np.ndarray, forms: list[np.ndarray]) -> np.ndarray:
    """sum_s Re a_s^H F_s a_s at every sample (row of `amplitudes`): F_s is
    block s's m_s x m_s Hermitian form, a_s its m_s columns, in block order."""
    total, start = np.zeros(len(amplitudes)), 0
    for form in forms:
        part = amplitudes[:, start : start + len(form)]
        total += np.einsum("ij,ij->i", part.conj(), part @ form).real
        start += len(form)
    return total


def dominant_frequency(times: np.ndarray, values: np.ndarray) -> float:
    """Angular frequency of the strongest non-DC component of a uniform trace.

    Hann-windowed FFT peak with parabolic refinement on the log magnitude.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size != values.size or times.size < MIN_TRACE_SAMPLES:
        raise ValueError(f"need a uniform trace with at least {MIN_TRACE_SAMPLES} samples")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-9, atol=1e-12):
        raise ValueError("time grid must be uniform for the FFT peak")
    x = values - values.mean()
    window = np.hanning(x.size)
    spectrum = np.abs(np.fft.rfft(x * window))
    if spectrum.size < 4:
        raise ValueError("trace too short to resolve a peak")
    k0 = int(np.argmax(spectrum[1:]) + 1)
    if 1 <= k0 < spectrum.size - 1 and spectrum[k0] > 0:
        with np.errstate(divide="ignore"):
            logs = np.log(spectrum[k0 - 1 : k0 + 2])
        denom = logs[0] - 2.0 * logs[1] + logs[2]
        delta = 0.5 * (logs[0] - logs[2]) / denom if np.isfinite(denom) and denom != 0 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    freq_cycles = (k0 + delta) / (x.size * dt)
    return 2.0 * math.pi * freq_cycles
