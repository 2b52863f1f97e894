"""Deterministic parameter sweeps over the full pipeline.

A sweep walks a strictly monotone grid of one parameter, solves the lowest
pair at each point, and derives the requested observables into flat records
emitted in grid order.  Eigensolves are cached on (N, r, g_tilde, b, Omega,
tol, seed).  The grid is cut into segments of at most `SEGMENT_POINTS`
consecutive points that share (N, r); within a segment each solve starts from
the last successful point's vectors.  The segments run in forked worker
processes, one per usable core and each with one BLAS thread: ARPACK's loop
holds the GIL, so threads gain nothing.  The segment length does not depend
on the worker count, so the output (`iters` included) is the same for any
number of workers.  On fig2 the segments take 8,377 matvecs at 12 points
against 8,388 for one chain, and 36,335 against 33,384 at 60 points.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import ConvergenceError, DimensionCapError
from .hamiltonian import cached_basis
from .observables import angular_momentum_distribution, loss_quality, quality
from .params import (
    RescaledCoupling,
    SystemParams,
    interaction_for_gamma,
    lieb_liniger_gamma,
    raw_coupling,
    rescale_interaction,
)
from .solver import DEFAULT_SEED, DEFAULT_TOL, EigenSolution, solve_lowest

SWEEPABLE = ("interaction", "barrier", "phase", "n_atoms", "n_modes")
# longest warm-start chain; fixed, so that no result depends on the core count
SEGMENT_POINTS = 4
ALL_OUTPUTS = frozenset({"delta_e", "distribution", "quality", "loss"})


def linear_grid(start: float, stop: float, points: int) -> np.ndarray:
    return np.linspace(float(start), float(stop), int(points))


def log_grid(start: float, stop: float, points: int) -> np.ndarray:
    return np.geomspace(float(start), float(stop), int(points))


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over the fixed base system."""

    parameter: str
    grid: np.ndarray
    base: SystemParams
    outputs: frozenset[str] = ALL_OUTPUTS
    rescale: bool = True
    tol: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED
    pin_gamma: float | None = None  # n_atoms sweeps: keep gamma fixed
    modes_by_atoms: tuple[tuple[int, int], ...] = ()  # per-N window overrides

    def __post_init__(self) -> None:
        if self.parameter not in SWEEPABLE:
            raise ValueError(f"unknown sweep parameter {self.parameter!r}")
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1:
            raise ValueError("grid must be a 1-d array with at least one point")
        if grid.size > 1 and not (np.all(np.diff(grid) > 0) or np.all(np.diff(grid) < 0)):
            raise ValueError("grid must be strictly monotone")
        object.__setattr__(self, "grid", grid)
        unknown = set(self.outputs) - ALL_OUTPUTS
        if unknown:
            raise ValueError(f"unknown outputs {sorted(unknown)}")

    def params_at(self, value: float) -> SystemParams:
        if self.parameter in ("n_atoms", "n_modes"):
            params = replace(self.base, **{self.parameter: int(round(value))})
        else:
            params = replace(self.base, **{self.parameter: float(value)})
        if self.parameter == "n_atoms":
            overrides = dict(self.modes_by_atoms)
            if params.n_atoms in overrides:
                params = replace(params, n_modes=overrides[params.n_atoms])
            if self.pin_gamma is not None:
                params = replace(
                    params,
                    interaction=interaction_for_gamma(self.pin_gamma, params.n_atoms),
                )
        return params


@dataclass
class SweepRecord:
    """Flat per-point result row (grid order)."""

    value: float
    gamma: float = math.nan
    g_tilde: float = math.nan
    e0: float = math.nan
    e1: float = math.nan
    delta_e: float = math.nan
    p0: float = math.nan
    pn: float = math.nan
    quality: float = math.nan
    qbar_loss: float = math.nan
    iterations: int = 0
    residual: float = math.nan
    exception: Exception | None = None

    @property
    def error(self) -> str | None:
        """The failure as written to the CSV comment line, or None."""
        if self.exception is None:
            return None
        return f"{type(self.exception).__name__}: {self.exception}"


def _without_frames(exc: BaseException) -> BaseException:
    """The exception with the tracebacks of it and of its cause/context chain
    dropped, so that a kept failure does not keep the failed solve's arrays."""
    link = exc
    while link is not None:
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return exc


class SolveCache:
    """Eigensolve memo keyed on the physical point and solver settings."""

    def __init__(self) -> None:
        self._store: dict[tuple, EigenSolution] = {}
        self.hits = 0
        self.misses = 0

    def key(
        self, params: SystemParams, coupling: RescaledCoupling, tol: float, seed: int
    ) -> tuple:
        return (
            params.n_atoms,
            params.n_modes,
            coupling.g_tilde,
            params.barrier,
            params.phase,
            tol,
            seed,
        )

    def solve(
        self,
        params: SystemParams,
        coupling: RescaledCoupling,
        tol: float = DEFAULT_TOL,
        seed: int = DEFAULT_SEED,
        warm: EigenSolution | None = None,
    ) -> EigenSolution:
        key = self.key(params, coupling, tol, seed)
        if key in self._store:
            self.hits += 1
            return self._store[key]
        self.misses += 1
        solution = solve_lowest(
            params, m=2, coupling=coupling, tol=tol, seed=seed, warm=warm
        )
        self._store[key] = solution
        return solution


def _point_record(
    spec: SweepSpec,
    value: float,
    cache: SolveCache,
    warm: EigenSolution | None,
) -> tuple[SweepRecord, EigenSolution | None]:
    record = SweepRecord(value=float(value))
    try:
        params = spec.params_at(value)
        coupling = (
            rescale_interaction(params.interaction, params.n_modes)
            if spec.rescale
            else raw_coupling(params.interaction)
        )
        record.gamma = lieb_liniger_gamma(params)
        record.g_tilde = coupling.g_tilde
        solution = cache.solve(params, coupling, tol=spec.tol, seed=spec.seed, warm=warm)
        record.e0 = float(solution.eigenvalues[0])
        record.e1 = float(solution.eigenvalues[1])
        record.delta_e = record.e1 - record.e0
        record.iterations = solution.iterations
        record.residual = float(np.max(solution.residual_norms))
        ground = solution.eigenvectors[:, 0]
        basis = cached_basis(params.n_atoms, params.n_modes)
        if {"distribution", "quality"} & spec.outputs:
            dist = angular_momentum_distribution(ground, basis)
            record.p0 = dist.p_of(0)
            record.pn = dist.p_of(params.n_atoms)
            if "quality" in spec.outputs:
                record.quality = quality(dist, 0, params.n_atoms)
        if "loss" in spec.outputs and params.n_atoms >= 2:
            basis_nm1 = cached_basis(params.n_atoms - 1, params.n_modes)
            record.qbar_loss = loss_quality(ground, basis, basis_nm1).qbar
        return record, solution
    except (ValueError, ConvergenceError, DimensionCapError) as exc:
        record.exception = _without_frames(exc)
        return record, None


def _segments(spec: SweepSpec) -> list[list[float]]:
    """The grid cut into runs of at most SEGMENT_POINTS consecutive values
    that share (N, r); a value whose parameters are invalid stands alone."""
    segments: list[list[float]] = []
    previous = None
    for value in spec.grid:
        try:
            params = spec.params_at(value)
            size = (params.n_atoms, params.n_modes)
        except ValueError:
            size = None
        if size is not None and size == previous and len(segments[-1]) < SEGMENT_POINTS:
            segments[-1].append(float(value))
        else:
            segments.append([float(value)])
        previous = size
    return segments


def _run_segment(spec: SweepSpec, values: list[float], cache: SolveCache) -> list[SweepRecord]:
    """One warm-start chain: each solve starts from the last successful one."""
    records: list[SweepRecord] = []
    warm: EigenSolution | None = None
    for value in values:
        record, solution = _point_record(spec, value, cache, warm)
        records.append(record)
        if solution is not None:
            warm = solution
    return records


# A worker's sweep, its inherited copy of the parent's cache, and whether the
# parent wants the new solutions back; set once per worker process.
_worker_state: tuple[SweepSpec, SolveCache, bool] | None = None


def _adopt(spec: SweepSpec, cache: SolveCache, share: bool) -> None:
    global _worker_state
    _worker_state = (spec, cache, share)
    _one_blas_thread()


def _one_blas_thread() -> None:
    """Ask every OpenBLAS loaded in this process for one thread.  The workers
    already take every core, and more BLAS threads only compete with them:
    on two cores the 12-point fig2 sweep took 44-46 s with two OpenBLAS
    threads per worker against 10 s with one.  The setter names are those
    of OpenBLAS and the scipy-openblas wheels; other BLAS are left as they
    are."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:  # no /proc: leave the BLAS as it is
        return
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in (
            "openblas_set_num_threads",
            "openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
            "scipy_openblas_set_num_threads64_",
        ):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)


def _segment_task(values: list[float]) -> tuple[list[SweepRecord], dict, int, int]:
    """A segment in a worker: its records, the solutions it added to the
    cache (empty unless shared), and its cache hits and misses."""
    spec, cache, share = _worker_state
    known, hits, misses = set(cache._store), cache.hits, cache.misses
    records = _run_segment(spec, values, cache)
    added = {k: v for k, v in cache._store.items() if k not in known} if share else {}
    return records, added, cache.hits - hits, cache.misses - misses


def _worker_count(segments: int) -> int:
    """One worker per usable core, at most one per segment.  One, which runs
    the sweep in this process, without the fork start method: forked workers
    inherit the built operators and the cache instead of rebuilding them."""
    import multiprocessing

    if hasattr(os, "sched_getaffinity") and "fork" in multiprocessing.get_all_start_methods():
        return min(len(os.sched_getaffinity(0)), segments)
    return 1


def run_sweep(spec: SweepSpec, cache: SolveCache | None = None) -> list[SweepRecord]:
    """Execute a sweep; records come back in grid order.

    The grid is cut into segments of at most SEGMENT_POINTS consecutive points
    that share (N, r), so `n_atoms` and `n_modes` sweeps run one point per
    segment.  Each segment is one warm-start chain.  The segments run in
    forked worker processes, one per usable core and at most one per segment,
    each with one BLAS thread; with one worker the segments run in this
    process.  The workers inherit
    the built operators and `cache`; when the caller passes `cache`, the
    solutions they add and their hits and misses are merged into it.  On fig2
    the segments take 8,377 matvecs at 12 points (one chain: 8,388) and
    36,335 at 60 points (one chain: 33,384).  Per-point failures are captured
    in the record's `exception` field without aborting the sweep; a worker
    that dies raises `BrokenProcessPool`.
    """
    share = cache is not None
    cache = cache if cache is not None else SolveCache()
    segments = _segments(spec)
    workers = _worker_count(len(segments))
    if workers == 1:
        return [rec for values in segments for rec in _run_segment(spec, values, cache)]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    records: list[SweepRecord] = []
    pool = ProcessPoolExecutor(
        max_workers=workers,
        # fork, so that the workers inherit the built operators and the cache;
        # a thread holding the operator-cache lock at the fork would leave it
        # held in the workers, and the CLI runs no other threads
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(spec, cache, share),
    )
    try:
        for segment, added, hits, misses in pool.map(_segment_task, segments):
            records.extend(segment)
            cache._store.update(added)
            cache.hits += hits
            cache.misses += misses
    finally:
        # no worker outlives the sweep, also when it raises
        pool.shutdown(wait=True, cancel_futures=True)
    return records


def point_report(
    params: SystemParams,
    cache: SolveCache | None = None,
    rescale: bool = True,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
    with_loss: bool = True,
    post_loss_weights: bool = False,
    keep_distributions: bool = False,
):
    """Full single-point pipeline: solution, P(K), quality, loss report."""
    cache = cache if cache is not None else SolveCache()
    coupling = (
        rescale_interaction(params.interaction, params.n_modes)
        if rescale
        else raw_coupling(params.interaction)
    )
    solution = cache.solve(params, coupling, tol=tol, seed=seed)
    basis = cached_basis(params.n_atoms, params.n_modes)
    ground = solution.eigenvectors[:, 0]
    dist = angular_momentum_distribution(ground, basis)
    loss = None
    if with_loss and params.n_atoms >= 2:
        loss = loss_quality(
            ground,
            basis,
            cached_basis(params.n_atoms - 1, params.n_modes),
            post_loss_weights=post_loss_weights,
            keep_distributions=keep_distributions,
        )
    return solution, coupling, dist, loss


def fig2_spec(
    n_atoms: int = 5,
    n_modes: int = 20,
    barrier: float = 0.008,
    points: int = 60,
    outputs: Iterable[str] = ALL_OUTPUTS,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> SweepSpec:
    """Splitting-vs-interaction scan through the crossing (log grid 1e-4..1e3)."""
    base = SystemParams(
        n_atoms=n_atoms, n_modes=n_modes, interaction=1e-4, barrier=barrier, phase=math.pi
    )
    return SweepSpec(
        parameter="interaction",
        grid=log_grid(1e-4, 1e3, points),
        base=base,
        outputs=frozenset(outputs),
        tol=tol,
        seed=seed,
    )


def fig3a_spec(
    atom_numbers: Iterable[int] = (2, 3, 4, 5, 6),
    gamma: float = 200.0,
    barrier: float = 0.008,
    n_modes: int = 20,
    modes_by_atoms: tuple[tuple[int, int], ...] = ((6, 14),),
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> SweepSpec:
    """Loss robustness vs atom number at fixed gamma (hard-core regime)."""
    atoms = sorted(set(int(n) for n in atom_numbers))
    base = SystemParams(
        n_atoms=atoms[0],
        n_modes=n_modes,
        interaction=interaction_for_gamma(gamma, atoms[0]),
        barrier=barrier,
        phase=math.pi,
    )
    return SweepSpec(
        parameter="n_atoms",
        grid=np.array(atoms, dtype=float),
        base=base,
        outputs=ALL_OUTPUTS,
        pin_gamma=gamma,
        modes_by_atoms=tuple(modes_by_atoms),
        tol=tol,
        seed=seed,
    )
