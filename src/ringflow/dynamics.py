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

from .hamiltonian import build_hamiltonian, cached_basis
from .params import SystemParams, rescale_interaction
from .solver import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    MIN_TRACE_SAMPLES,
    QuenchResult,
    diagonalize,
    dominant_frequency,
    hamiltonian_blocks,
    propagate,
    solve_lowest,
)


@dataclass
class QuenchReport:
    """Oscillation extracted from a sudden phase quench."""

    params: SystemParams
    phase_initial: float
    delta_e: float
    fft_peak: float
    relative_deviation: float
    norm_drift: float
    energy_drift: float
    result: QuenchResult


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
    The propagation is exact: each block of `hamiltonian_blocks` (the
    reflection-parity sectors at Omega = pi, elsewhere the whole operator) is
    diagonalized once, and the splitting is read from the same spectra.  A
    trace too short for `quench_samples` raises ValueError before any solve.
    """
    n_samples = quench_samples(periods, samples_per_period)
    coupling = rescale_interaction(params.interaction, params.n_modes)
    pre = solve_lowest(
        replace(params, phase=float(phase_initial)), m=1, coupling=coupling, tol=tol, seed=seed
    )
    psi0 = pre.eigenvectors[:, 0]

    # one diagonalization gives both the splitting and the propagation
    spectrum = diagonalize(hamiltonian_blocks(params, coupling))
    e0, e1 = spectrum.lowest(2)
    delta_e = float(e1 - e0)
    if delta_e <= 0:
        raise ValueError("post-quench splitting vanishes; no oscillation to track")
    period = 2.0 * math.pi / delta_e
    times = np.linspace(0.0, periods * period, n_samples + 1)

    k0_mask = (cached_basis(params.n_atoms, params.n_modes).total_k == 0).astype(float)
    matrix = build_hamiltonian(params, coupling).matrix

    observables = {
        "P_K0": lambda psi: float(np.real(np.vdot(psi, k0_mask * psi))),
        "energy": lambda psi: float(np.real(np.vdot(psi, matrix @ psi))),
    }
    result = propagate(spectrum, psi0, times, observables=observables)

    peak = dominant_frequency(result.times, result.traces["P_K0"])
    energies = result.traces["energy"]
    scale = max(abs(energies[0]), 1.0)
    return QuenchReport(
        params=params,
        phase_initial=float(phase_initial),
        delta_e=delta_e,
        fft_peak=peak,
        relative_deviation=abs(peak - delta_e) / delta_e,
        norm_drift=float(np.max(np.abs(result.norms - 1.0))),
        energy_drift=float(np.max(np.abs(energies - energies[0])) / scale),
        result=result,
    )
