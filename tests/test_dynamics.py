import math
from dataclasses import replace

import numpy as np
import pytest

from ringflow.dynamics import run_quench
from ringflow.hamiltonian import assemble, cached_basis, cached_pieces
from ringflow.params import SystemParams, rescale_interaction
from ringflow.solver import level_splitting, propagate, solve_lowest


@pytest.fixture(scope="module")
def quench_report():
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=math.pi)
    return run_quench(params, phase_initial=0.9 * math.pi, periods=16.0, samples_per_period=48)


def test_quench_oscillates_at_the_splitting(quench_report):
    assert quench_report.relative_deviation < 0.02
    assert quench_report.delta_e > 0


def test_quench_splitting_equals_level_splitting(quench_report):
    # run_quench reads the splitting from the spectra it propagates with
    direct = level_splitting(quench_report.params)
    assert quench_report.delta_e == pytest.approx(direct.delta_e, rel=1e-12)


def test_quench_conserves_norm_and_energy(quench_report):
    assert quench_report.norm_drift < 1e-10
    assert quench_report.energy_drift < 1e-10


def test_quench_trace_has_visible_contrast(quench_report):
    trace = quench_report.result.traces["P_K0"]
    assert trace.max() - trace.min() > 0.1


def test_parity_blocks_match_single_operator(quench_report):
    # the quench at Omega = pi propagates the two parity blocks; the whole
    # post-quench operator as one block gives the same trace
    params = quench_report.params
    pieces = cached_pieces(params.n_atoms, params.n_modes)
    coupling = rescale_interaction(params.interaction, params.n_modes)
    pre = solve_lowest(
        replace(params, phase=quench_report.phase_initial), m=1, coupling=coupling, pieces=pieces
    )
    k0_mask = (cached_basis(params.n_atoms, params.n_modes).total_k == 0).astype(float)
    matrix = assemble(pieces, params, coupling).matrix
    single = propagate(
        matrix,
        pre.eigenvectors[:, 0],
        quench_report.result.times,
        observables={
            "P_K0": lambda psi: float(np.real(np.vdot(psi, k0_mask * psi))),
            "energy": lambda psi: float(np.real(np.vdot(psi, matrix @ psi))),
        },
    )
    parity = quench_report.result
    assert parity.method == "spectral-parity" and single.method == "spectral"
    for name in ("P_K0", "energy"):
        assert np.max(np.abs(parity.traces[name] - single.traces[name])) < 1e-10
    assert np.max(np.abs(parity.norms - single.norms)) < 1e-10
