"""Deterministic parameter sweeps over the full pipeline.

A sweep walks a strictly monotone grid of one parameter, solves the lowest
pair at each point, and derives every observable into flat records
emitted in grid order.  Each point is one cold `solve_lowest` call and one
task; nothing is memoized or carried from one point to the next, so a
point's record depends on that point alone, and a grid that rounds two
values to the same N or r solves both.  The tasks run in forked worker
processes, one per usable core and each with one BLAS thread, which take
them one at a time, the largest (then the most strongly coupled) first: the
solvers' loops hold the GIL, so threads gain nothing.  The output (`iters`
included) is therefore the same for any number of workers.  On fig2 the
points take 2,361 matvecs at 12 points and 11,854 at 60.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import blas
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
from .solver import DEFAULT_SEED, DEFAULT_TOL, solve_lowest

SWEEPABLE = ("interaction", "barrier", "phase", "n_atoms", "n_modes")


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


def _coupling(spec: SweepSpec, params: SystemParams) -> RescaledCoupling:
    if spec.rescale:
        return rescale_interaction(params.interaction, params.n_modes)
    return raw_coupling(params.interaction)


def _point_record(spec: SweepSpec, value: float) -> SweepRecord:
    record = SweepRecord(value=float(value))
    try:
        params = spec.params_at(value)
        coupling = _coupling(spec, params)
        record.gamma = lieb_liniger_gamma(params)
        record.g_tilde = coupling.g_tilde
        solution = solve_lowest(params, m=2, coupling=coupling, tol=spec.tol, seed=spec.seed)
        record.e0 = float(solution.eigenvalues[0])
        record.e1 = float(solution.eigenvalues[1])
        record.delta_e = record.e1 - record.e0
        record.iterations = solution.iterations
        record.residual = float(np.max(solution.residual_norms))
        ground = solution.eigenvectors[:, 0]
        basis = cached_basis(params.n_atoms, params.n_modes)
        dist = angular_momentum_distribution(ground, basis)
        record.p0 = dist.p_of(0)
        record.pn = dist.p_of(params.n_atoms)
        record.quality = quality(dist, 0, params.n_atoms)
        if params.n_atoms >= 2:
            basis_nm1 = cached_basis(params.n_atoms - 1, params.n_modes)
            record.qbar_loss = loss_quality(ground, basis, basis_nm1).qbar
    except (ValueError, ConvergenceError, DimensionCapError) as exc:
        record.exception = _without_frames(exc)
    return record


def _point_task(spec: SweepSpec, value: float) -> SweepRecord:
    # the pool pickles a task by its module-level name; looking `_point_record`
    # up at call time lets a replacement of it run in the workers
    return _point_record(spec, value)


def _worker_count(points: int) -> int:
    """One worker per usable core, at most one per point.  One, which runs
    the sweep in this process, without the fork start method: forked workers
    inherit the built operators instead of rebuilding them."""
    import multiprocessing

    if hasattr(os, "sched_getaffinity") and "fork" in multiprocessing.get_all_start_methods():
        return min(len(os.sched_getaffinity(0)), points)
    return 1


def _dispatch_order(spec: SweepSpec, values: list[float]) -> list[int]:
    """Grid positions by decreasing comb(N + r - 1, N), ties by the larger
    Gram prefactor max(b, g_tilde/2) under the spec's rescaling (strong
    couplings go to the Lanczos loop, which takes longer than LOBPCG), then
    in grid order; a value with invalid parameters counts as 0 (its record
    holds the error)."""
    def key(value: float) -> tuple[int, float]:
        try:
            params = spec.params_at(value)
            strength = max(params.barrier, 0.5 * _coupling(spec, params).g_tilde)
        except ValueError:
            return 0, 0.0
        return -math.comb(params.n_atoms + params.n_modes - 1, params.n_atoms), -strength
    return sorted(range(len(values)), key=lambda i: key(values[i]))


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Execute a sweep point by point; records come back in grid order.

    With one worker (`_worker_count`) the points run in this process;
    otherwise forked workers take them one at a time in `_dispatch_order`,
    the largest whole space and among equals the strongest coupling first,
    and send back their records.  Per-point failures are captured in the
    record's `exception` field without aborting the sweep; a worker that
    dies raises `BrokenProcessPool`.
    """
    values = [float(value) for value in spec.grid]
    workers = _worker_count(len(values))
    if workers == 1:
        return [_point_task(spec, value) for value in values]

    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        max_workers=workers,
        # fork, so that the workers inherit the built operators; a thread
        # holding the operator-cache lock at the fork would leave it held in
        # the workers, and the CLI runs no other threads
        mp_context=multiprocessing.get_context("fork"),
        # the workers already take every core, and more BLAS threads only
        # compete with them: on two cores the 12-point fig2 sweep took 44-46 s
        # with two OpenBLAS threads per worker against 10 s with one
        initializer=blas.set_threads,
        initargs=(1,),
    )
    try:
        runs = {i: pool.submit(_point_task, spec, values[i]) for i in _dispatch_order(spec, values)}
        return [runs[i].result() for i in range(len(values))]
    finally:
        # no worker outlives the sweep, also when it raises
        pool.shutdown(wait=True, cancel_futures=True)


def fig2_spec(
    n_atoms: int = 5,
    n_modes: int = 20,
    barrier: float = 0.008,
    points: int = 60,
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
        pin_gamma=gamma,
        modes_by_atoms=tuple(modes_by_atoms),
        tol=tol,
        seed=seed,
    )
