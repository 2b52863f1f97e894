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

from .hamiltonian import (
    assemble,
    assemble_sector,
    cached_basis,
    cached_pieces,
    cached_sector_pieces,
)
from .params import SystemParams, rescale_interaction
from .solver import (
    DEFAULT_SEED,
    DEFAULT_TOL,
    QuenchResult,
    _is_crossing_phase,
    diagonalize,
    dominant_frequency,
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
    The propagation is exact: at Omega = pi each reflection-parity block is
    diagonalized on its own, elsewhere the whole operator, and the splitting
    is read from the same spectra.
    """
    pieces = cached_pieces(params.n_atoms, params.n_modes)
    coupling = rescale_interaction(params.interaction, params.n_modes)

    pre = solve_lowest(
        replace(params, phase=float(phase_initial)),
        m=1,
        coupling=coupling,
        pieces=pieces,
        tol=tol,
        seed=seed,
    )
    psi0 = pre.eigenvectors[:, 0]

    operator = assemble(pieces, params, coupling)
    blocks = operator
    if _is_crossing_phase(params.phase):
        sector = cached_sector_pieces(params.n_atoms, params.n_modes)
        blocks = [
            (assemble_sector(sector, params, coupling, which), sector.isometries[which])
            for which in (0, 1)
        ]
    # one diagonalization gives both the splitting and the propagation
    spectrum = diagonalize(blocks)
    e0, e1 = spectrum.lowest(2)
    delta_e = float(e1 - e0)
    if delta_e <= 0:
        raise ValueError("post-quench splitting vanishes; no oscillation to track")
    period = 2.0 * math.pi / delta_e
    n_samples = int(round(periods * samples_per_period))
    times = np.linspace(0.0, periods * period, n_samples + 1)

    basis = cached_basis(params.n_atoms, params.n_modes)
    k0_mask = (basis.total_k == 0).astype(float)
    matrix = operator.matrix

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
