"""Lowest-eigenpair solves and real-time propagation.

Eigen solves use a Lanczos-type Krylov method (ARPACK) with a deterministic
seeded start vector and a dense fallback below `DENSE_CUTOFF`.  At the
crossing point Omega = pi the Hamiltonian commutes with the momentum
reflection k -> 1-k, and the avoided-crossing pair splits across the two
parity sectors; solving each sector's ground-state problem separately makes
splittings far below the spectral width (the NOON regime) cheap to resolve.
Of m levels, only the sector expected to hold the ground (N mod 2) is asked
for m; the other is asked for m - 1 and is re-solved for m unless its highest
computed level certifies that no level of it was missed.

Real-time propagation is exact: one dense eigendecomposition
H_s = V_s diag(E_s) V_s^H per block gives every sample state as
psi(t) = sum_s S_s V_s exp(-i(t - t0)E_s) V_s^H S_s^T psi0, formed in blocks
of sample times.  A plain operator is one block with the identity as S; at
the crossing the two parity sectors are the blocks, and no block may exceed
`SPECTRAL_CAP`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConvergenceError, DimensionCapError
from .hamiltonian import (
    FactoredOperator,
    OperatorPieces,
    assemble,
    assemble_sector,
    cached_pieces,
    cached_sector_pieces,
)
from .params import RescaledCoupling, SystemParams, rescale_interaction

DEFAULT_SEED = 7
DEFAULT_TOL = 1e-10
DENSE_CUTOFF = 2000
DEGENERACY_FACTOR = 10.0
SPECTRAL_BLOCK = 256
# largest block `propagate` diagonalizes densely; at 4,500 its eigenvectors
# alone take 162 MB (N=4, r=20 has parity blocks of 4,455 and 4,400)
SPECTRAL_CAP = 4500


@dataclass
class EigenSolution:
    """Lowest eigenpairs with convergence diagnostics.

    Eigenvalues ascend; eigenvectors are unit-norm columns over the basis.
    `degenerate` flags a lowest gap below DEGENERACY_FACTOR * tol.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual_norms: np.ndarray
    iterations: int
    method: str
    degenerate: bool
    sector_vectors: tuple[np.ndarray, ...] | None = field(default=None, repr=False)


def _as_matrix(operator) -> sp.csr_matrix:
    if isinstance(operator, FactoredOperator):
        return operator.matrix
    if sp.issparse(operator):
        return operator.tocsr()
    return sp.csr_matrix(np.asarray(operator))


def _start_vector(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _residuals(operator, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return np.array(
        [np.linalg.norm(operator @ vecs[:, i] - vals[i] * vecs[:, i]) for i in range(vals.size)]
    )


def _lowest(
    vals, vecs, res, m, iterations, method, tol, sector_vectors=None
) -> EigenSolution:
    """The m lowest of the given eigenpairs (vector columns), ascending."""
    order = np.argsort(vals)[:m]
    vals = np.asarray(vals, dtype=float)[order]
    degenerate = vals.size >= 2 and (vals[1] - vals[0]) < DEGENERACY_FACTOR * tol
    return EigenSolution(
        eigenvalues=vals,
        eigenvectors=np.asarray(vecs, dtype=float)[:, order],
        residual_norms=np.asarray(res)[order],
        iterations=iterations,
        method=method,
        degenerate=degenerate,
        sector_vectors=sector_vectors,
    )


def lowest_eigenpairs(
    operator,
    m: int,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    v0: np.ndarray | None = None,
    dense_cutoff: int = DENSE_CUTOFF,
    max_iterations: int | None = None,
    ncv: int | None = None,
) -> EigenSolution:
    """The m lowest eigenpairs of a real symmetric operator.

    Dimensions up to `dense_cutoff` are solved densely from the explicit
    matrix; larger problems use the Krylov path with the seeded (or provided)
    start vector, applying a FactoredOperator factor by factor.  Raises
    ConvergenceError if the iteration stalls, with the achieved residual of
    the pairs that converged (None when none did).
    """
    if not isinstance(operator, FactoredOperator):
        operator = _as_matrix(operator)
    dim = operator.shape[0]
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > dim:
        raise ValueError(f"requested {m} eigenpairs of a dimension-{dim} operator")
    if dim <= dense_cutoff or m >= dim - 1:
        vals, vecs = sla.eigh(_as_matrix(operator).toarray(), subset_by_index=(0, m - 1))
        return _lowest(vals, vecs, _residuals(operator, vals, vecs), m, 0, "dense", tol)

    matvecs = [0]

    def counted(x):
        matvecs[0] += 1
        return operator @ x

    op = LinearOperator(shape=operator.shape, matvec=counted, dtype=float)
    if v0 is None:
        v0 = _start_vector(dim, seed)
    if ncv is None:
        ncv = min(dim - 1, max(4 * m + 20, 40))
    try:
        vals, vecs = eigsh(
            op,
            k=m,
            which="SA",
            v0=v0,
            tol=tol,
            ncv=ncv,
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
    return _lowest(
        vals, vecs, _residuals(operator, vals, vecs), m, matvecs[0], "lanczos", tol
    )


def _one_level_within_tol(operator, sol: EigenSolution, tol: float, **kwargs) -> EigenSolution:
    """`sol`, or for one level above `tol` that solve once more from its
    vector at tol / max(1, |theta|): ARPACK stops on |r| <= tol*|theta|."""
    if sol.eigenvalues.size > 1 or sol.residual_norms[0] <= tol:
        return sol
    again = lowest_eigenpairs(
        operator, 1, tol=tol / max(1.0, abs(float(sol.eigenvalues[0]))),
        v0=sol.eigenvectors[:, 0], **kwargs,
    )
    again.iterations += sol.iterations
    return again


def _is_crossing_phase(phase: float) -> bool:
    return abs(phase - math.pi) <= 1e-12


def _first_sector(n_atoms: int) -> int:
    """The parity sector expected to hold the ground at the crossing."""
    return n_atoms % 2


def solve_lowest(
    params: SystemParams,
    m: int = 2,
    coupling: RescaledCoupling | None = None,
    pieces: OperatorPieces | None = None,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    warm: EigenSolution | None = None,
    use_parity: bool = True,
    dense_cutoff: int = DENSE_CUTOFF,
    max_iterations: int | None = None,
) -> EigenSolution:
    """Lowest m levels of the full system at one parameter point.

    At Omega = pi (and `use_parity`) the reflection-parity blocks are solved
    independently and merged, which resolves the avoided-crossing splitting
    regardless of how small it is.  Sector A = N mod 2 is solved first for m
    levels at `tol`; the other sector for max(m - 1, 1) levels at
    tol / max(1, |A's m-th level|), which bounds its residuals by `tol`
    (H is positive semidefinite, so every level it can contribute lies in
    [0, A's m-th level]).  The result is exact for any spectrum: a sector
    that has uncomputed levels and whose highest computed level lies below
    the m-th merged level is solved again for m levels; a sector of
    dimension at most k is complete.  A one-level solve asked for `tol` whose
    residual exceeds it is solved once more at tol / max(1, |theta|).
    `warm` reuses a previous solution's sector grounds as start vectors
    (grid sweeps).
    """
    if coupling is None:
        coupling = rescale_interaction(params.interaction, params.n_modes)
    if pieces is None:
        pieces = cached_pieces(params.n_atoms, params.n_modes)

    if not (use_parity and _is_crossing_phase(params.phase)):
        operator = assemble(pieces, params, coupling)
        v0 = None
        if warm is not None and warm.sector_vectors is None:
            if warm.eigenvectors.shape[0] == operator.dimension:
                v0 = warm.eigenvectors[:, 0]
        sol = lowest_eigenpairs(
            operator, m, tol=tol, seed=seed, v0=v0,
            dense_cutoff=dense_cutoff, max_iterations=max_iterations,
        )
        return _one_level_within_tol(
            operator, sol, tol, dense_cutoff=dense_cutoff, max_iterations=max_iterations
        )

    sector = cached_sector_pieces(params.n_atoms, params.n_modes)
    blocks = [assemble_sector(sector, params, coupling, which) for which in (0, 1)]
    sols: dict[int, EigenSolution] = {}
    iterations = 0

    def solve_sector(which: int, k: int, sector_tol: float) -> None:
        nonlocal iterations
        v0 = None
        if warm is not None and warm.sector_vectors is not None:
            prev = warm.sector_vectors[which]
            if prev.size == blocks[which].shape[0]:
                v0 = prev
        sol = lowest_eigenpairs(
            blocks[which], min(k, blocks[which].shape[0]), tol=sector_tol,
            seed=seed + which, v0=v0, dense_cutoff=dense_cutoff,
            max_iterations=max_iterations,
        )
        sols[which] = _one_level_within_tol(
            blocks[which], sol, tol, dense_cutoff=dense_cutoff, max_iterations=max_iterations
        )
        iterations += sols[which].iterations

    # Sector N mod 2 held the lower ground at every point checked (N = 2-6,
    # r = 8-20, g = 1e-4..1e3); the certificate below covers any other case.
    # ARPACK stops on |r| <= tol*|theta|, hence the scaled tol.
    first = _first_sector(params.n_atoms)
    second = 1 - first
    top = 0.0
    if blocks[first].shape[0]:
        solve_sector(first, m, tol)
        top = float(sols[first].eigenvalues[-1])
    second_tol = tol / max(1.0, abs(top))
    if blocks[second].shape[0]:
        solve_sector(second, max(m - 1, 1), second_tol)
        # certificate: an uncomputed level can lie below the m-th merged
        # level only if the highest computed one does
        sol = sols[second]
        merged = np.sort(np.concatenate([s.eigenvalues for s in sols.values()]))
        threshold = merged[m - 1] if merged.size >= m else math.inf
        if sol.eigenvalues.size < blocks[second].shape[0] and sol.eigenvalues[-1] < threshold:
            solve_sector(second, m, second_tol)

    origin = [(w, i) for w, s in sols.items() for i in range(s.eigenvalues.size)]
    vals = np.concatenate([s.eigenvalues for s in sols.values()])
    res = np.concatenate([s.residual_norms for s in sols.values()])
    keep = np.argsort(vals)[:m]
    # only the kept pairs are lifted to the full basis
    vecs = np.column_stack(
        [sector.isometries[w] @ sols[w].eigenvectors[:, i] for w, i in (origin[j] for j in keep)]
    )
    return _lowest(
        vals[keep], vecs, res[keep], m, iterations, "lanczos-parity", tol,
        sector_vectors=tuple(
            sols[w].eigenvectors[:, 0].copy() if w in sols else np.zeros(0) for w in (0, 1)
        ),
    )


@dataclass
class SplittingResult:
    """Level splitting at one parameter point, with the pair of states."""

    e0: float
    e1: float
    delta_e: float
    ground: np.ndarray
    excited: np.ndarray
    degenerate: bool
    iterations: int
    residual: float
    method: str
    solution: EigenSolution = field(repr=False)


def level_splitting(
    params: SystemParams,
    coupling: RescaledCoupling | None = None,
    pieces: OperatorPieces | None = None,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    warm: EigenSolution | None = None,
    use_parity: bool = True,
    max_iterations: int | None = None,
) -> SplittingResult:
    """Splitting between the ground and first excited level at the given
    phase (nonnegative; strictly positive for b > 0 at the crossing)."""
    sol = solve_lowest(
        params, m=2, coupling=coupling, pieces=pieces, tol=tol, seed=seed,
        warm=warm, use_parity=use_parity, max_iterations=max_iterations,
    )
    return SplittingResult(
        e0=float(sol.eigenvalues[0]),
        e1=float(sol.eigenvalues[1]),
        delta_e=float(sol.eigenvalues[1] - sol.eigenvalues[0]),
        ground=sol.eigenvectors[:, 0],
        excited=sol.eigenvectors[:, 1],
        degenerate=sol.degenerate,
        iterations=sol.iterations,
        residual=float(np.max(sol.residual_norms)),
        method=sol.method,
        solution=sol,
    )


@dataclass
class QuenchResult:
    """Observable traces along a real-time propagation.

    `method` is "spectral" (one block) or "spectral-parity" (parity blocks).
    """

    times: np.ndarray
    traces: dict[str, np.ndarray]
    norms: np.ndarray
    method: str


def propagate(
    operator,
    psi0: np.ndarray,
    times: np.ndarray,
    observables: Mapping[str, Callable[[np.ndarray], float]] | None = None,
) -> QuenchResult:
    """Unitary propagation of psi0 through the given time grid.

    Observables are callables evaluated on the state at every grid time.
    `operator` is a real symmetric or complex Hermitian operator, or a
    sequence of (block H_s, isometry S_s) pairs with H = sum_s S_s H_s S_s^T.
    Each block is diagonalized densely once, H_s = V_s diag(E_s) V_s^H, and
    the state at time t is sum_s S_s V_s exp(-i(t - t0)E_s) V_s^H S_s^T psi0;
    blocks of SPECTRAL_BLOCK sample times keep memory independent of the
    grid length.  Raises DimensionCapError, before any diagonalization, if a
    block exceeds SPECTRAL_CAP.
    """
    if not isinstance(operator, (list, tuple)):
        operator = [(operator, sp.identity(operator.shape[0], format="csr"))]
    psi = np.asarray(psi0, dtype=complex)
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"initial state norm {norm} deviates from 1")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a strictly increasing 1-d grid")
    observables = dict(observables or {})
    largest = max(block.shape[0] for block, _ in operator)
    if largest > SPECTRAL_CAP:
        raise DimensionCapError(
            f"propagation block of dimension {largest} exceeds the spectral cap {SPECTRAL_CAP}"
        )

    spectra = []
    for block, isometry in operator:
        energies, vectors = sla.eigh(_as_matrix(block).toarray())
        spectra.append((energies, vectors, vectors.conj().T @ (isometry.T @ psi), isometry))
    elapsed = times - times[0]
    traces: dict[str, list] = {name: [] for name in observables}
    norms: list[float] = []
    for start in range(0, times.size, SPECTRAL_BLOCK):
        t = elapsed[start : start + SPECTRAL_BLOCK]
        states = sum(
            (isometry @ ((np.exp(-1j * np.outer(t, energies)) * c) @ vectors.T).T).T
            for energies, vectors, c, isometry in spectra
        )
        # row j is the state at time t[j]; contiguous rows give the
        # observables' sums the same order as a plain state vector
        states = np.ascontiguousarray(states)
        for name, fn in observables.items():
            traces[name].extend(fn(s) for s in states)
        norms.extend(np.linalg.norm(states, axis=1))
    return QuenchResult(
        times=times,
        traces={name: np.array(vals) for name, vals in traces.items()},
        norms=np.array(norms),
        method="spectral" if len(operator) == 1 else "spectral-parity",
    )


def dominant_frequency(times: np.ndarray, values: np.ndarray) -> float:
    """Angular frequency of the strongest non-DC component of a uniform trace.

    Hann-windowed FFT peak with parabolic refinement on the log magnitude.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size != values.size or times.size < 8:
        raise ValueError("need a uniform trace with at least 8 samples")
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
