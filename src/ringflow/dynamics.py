"""Quench protocol: sudden phase change and coherent two-level oscillation.

Preparing the ground state slightly away from the crossing and snapping the
phase onto it populates both hybridized levels; any momentum observable then
oscillates at the splitting frequency, which is the directly measurable
fingerprint of the superposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .hamiltonian import cached_basis
from .params import SystemParams, rescale_interaction
from .solver import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    MIN_TRACE_SAMPLES,
    QuenchResult,
    block_trace,
    dominant_frequency,
    hamiltonian_blocks,
    propagate,
    solve_lowest,
)

# levels kept per block above `solver.DENSE_CUTOFF`: two hold the splitting
# wherever it lies and leave w = 1.4e-7 at N=5, r=20; from 3 on the Lanczos
# loop meets ghost copies and falls back on ARPACK
QUENCH_LEVELS = 2


@dataclass
class QuenchReport:
    """Oscillation extracted from a sudden phase quench, and its traces."""

    params: SystemParams
    phase_initial: float
    delta_e: float
    fft_peak: float
    relative_deviation: float
    norm_drift: float
    energy_drift: float
    result: QuenchResult
    traces: dict[str, np.ndarray]


def quench_samples(periods: float, samples_per_period: int) -> int:
    """Sample intervals round(periods * samples_per_period) of a quench trace;
    raises ValueError if the trace has fewer samples than `dominant_frequency` needs."""
    samples = int(round(periods * samples_per_period)) + 1
    if samples < MIN_TRACE_SAMPLES:
        raise ValueError(f"the trace has {samples} samples and needs at least {MIN_TRACE_SAMPLES}")
    return samples - 1


def run_quench(
    params: SystemParams,
    phase_initial: float,
    periods: float = 20.0,
    samples_per_period: int = 48,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> QuenchReport:
    """Propagate the pre-quench ground state under the post-quench system.

    `params.phase` is the post-quench phase; the initial state is the ground
    state at `phase_initial`.  The trace records P(K=0), the norm, and the
    energy over `periods` oscillation periods of the post-quench splitting.
    Each block of `hamiltonian_blocks` (the reflection-parity sectors at
    Omega = pi, elsewhere the Fock-basis operator as one block) is solved
    once by `lowest_eigenpairs`, block s from seed + s: for all its levels up to
    `solver.DENSE_CUTOFF` columns, else for its QUENCH_LEVELS lowest.  The
    splitting is read from those levels, and the projection Pi psi0 onto them
    is propagated exactly: with w = 1 - ||Pi psi0||^2 (`truncated_weight`),
    the state stays within sqrt(w) of the exact one and P(K=0) within
    2 sqrt(w).  The traces are forms on the kept amplitudes: P(K=0) through
    the K=0 rows of every S_s V_s, the energy through each V_s^T H_s V_s.
    A trace too short for `quench_samples` raises ValueError before any solve.
    """
    n_samples = quench_samples(periods, samples_per_period)
    coupling = rescale_interaction(params.interaction, params.n_modes)
    pre = solve_lowest(
        replace(params, phase=float(phase_initial)), m=1, coupling=coupling, tol=tol, seed=seed
    )
    psi0 = pre.eigenvectors[:, 0]

    blocks = []  # one solve per block gives the splitting and the propagation
    energy_forms = []
    for s, (block, isometry) in enumerate(hamiltonian_blocks(params, coupling)):
        m = block.dimension if block.dimension <= solver.DENSE_CUTOFF else QUENCH_LEVELS
        sol = solver.lowest_eigenpairs(block, m, tol=tol, seed=seed + s)
        blocks.append((sol.eigenvalues, sol.eigenvectors, isometry))
        energy_forms.append(sol.eigenvectors.T @ (block @ sol.eigenvectors))
    e0, e1 = np.sort(np.concatenate([energies for energies, _, _ in blocks]))[:2]
    delta_e = float(e1 - e0)
    if delta_e <= 0:
        raise ValueError("post-quench splitting vanishes; no oscillation to track")
    period = 2.0 * math.pi / delta_e
    times = np.linspace(0.0, periods * period, n_samples + 1)

    result = propagate(blocks, psi0, times)
    k0 = np.flatnonzero(cached_basis(params.n_atoms, params.n_modes).total_k == 0)
    # (S_s V_s)[K=0 rows], from the K=0 rows of each S_s
    k0_rows = np.hstack([isometry[k0] @ vectors for _, vectors, isometry in blocks])
    traces = {
        "P_K0": np.sum(np.abs(result.amplitudes @ k0_rows.T) ** 2, axis=1),
        "energy": block_trace(result.amplitudes, energy_forms),
    }

    peak = dominant_frequency(result.times, traces["P_K0"])
    energies = traces["energy"]
    scale = max(abs(energies[0]), 1.0)
    # the propagated state keeps the norm sqrt(1 - w) of Pi psi0
    norm = math.sqrt(1.0 - result.truncated_weight)
    return QuenchReport(
        params=params,
        phase_initial=float(phase_initial),
        delta_e=delta_e,
        fft_peak=peak,
        relative_deviation=abs(peak - delta_e) / delta_e,
        norm_drift=float(np.max(np.abs(result.norms - norm))),
        energy_drift=float(np.max(np.abs(energies - energies[0])) / scale),
        result=result,
        traces=traces,
    )
