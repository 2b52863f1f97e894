import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from ringflow import solver
from ringflow.dynamics import run_quench
from ringflow.hamiltonian import build_hamiltonian, cached_basis
from ringflow.params import SystemParams, rescale_interaction
from ringflow.solver import propagate, solve_lowest

QUENCH = dict(phase_initial=0.9 * math.pi, periods=16.0, samples_per_period=48)


@pytest.fixture(scope="module")
def quench_report():
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=math.pi)
    return run_quench(params, **QUENCH)


def test_quench_oscillates_at_the_splitting(quench_report):
    assert quench_report.relative_deviation < 0.02
    assert quench_report.delta_e > 0


def test_quench_splitting_equals_level_splitting(quench_report):
    # run_quench reads the splitting from the spectra it propagates with
    direct = solve_lowest(quench_report.params).eigenvalues
    assert quench_report.delta_e == pytest.approx(direct[1] - direct[0], rel=1e-12)


def test_quench_conserves_norm_and_energy(quench_report):
    assert quench_report.norm_drift < 1e-10
    assert quench_report.energy_drift < 1e-10
    # every level of both 60-column blocks is kept
    assert quench_report.result.truncated_weight == 0.0


def test_quench_trace_has_visible_contrast(quench_report):
    trace = quench_report.result.traces["P_K0"]
    assert trace.max() - trace.min() > 0.1


def test_parity_blocks_match_single_operator(quench_report):
    # the quench at Omega = pi propagates the two parity blocks; the whole
    # post-quench operator as one block gives the same trace
    params = quench_report.params
    coupling = rescale_interaction(params.interaction, params.n_modes)
    pre = solve_lowest(replace(params, phase=quench_report.phase_initial), m=1, coupling=coupling)
    k0_mask = (cached_basis(params.n_atoms, params.n_modes).total_k == 0).astype(float)
    whole = build_hamiltonian(params, coupling)
    identity = sp.identity(whole.dimension, format="csr")
    matrix = whole.matrix
    single = propagate(
        [(*sla.eigh(matrix.toarray()), identity)],
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


def test_lowest_levels_of_each_block_bound_the_trace(quench_report, monkeypatch):
    # with a dense cutoff of 50 each 60-column parity block keeps only its
    # two lowest levels (QUENCH_LEVELS): the splitting is unchanged, and the
    # P(K=0) trace of the projected state stays within 2 sqrt(w) of the full one
    monkeypatch.setattr(solver, "DENSE_CUTOFF", 50)
    truncated = run_quench(quench_report.params, **QUENCH)
    w = truncated.result.truncated_weight
    assert 0.0 < w < 1e-2
    assert truncated.delta_e == pytest.approx(quench_report.delta_e, rel=1e-9)
    full, kept = quench_report.result.traces["P_K0"], truncated.result.traces["P_K0"]
    assert 0.0 < np.max(np.abs(kept - full)) <= 2.0 * math.sqrt(w)
    assert truncated.norm_drift < 1e-10
    assert truncated.relative_deviation < 0.02


def test_too_short_a_trace_is_refused_before_any_solve(monkeypatch):
    from ringflow import dynamics

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the trace length")

    monkeypatch.setattr(dynamics, "solve_lowest", no_solve)
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=math.pi)
    with pytest.raises(ValueError, match="needs at least 8"):
        run_quench(params, phase_initial=0.9 * math.pi, periods=0.1, samples_per_period=48)
