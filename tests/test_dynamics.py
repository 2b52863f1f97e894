import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from ringflow import dynamics, solver
from ringflow.dynamics import run_quench
from ringflow.hamiltonian import build_hamiltonian, cached_basis
from ringflow.params import SystemParams, rescale_interaction
from ringflow.solver import block_trace, propagate, solve_lowest

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
    trace = quench_report.traces["P_K0"]
    assert trace.max() - trace.min() > 0.1


def test_parity_blocks_match_single_operator(quench_report):
    # the quench at Omega = pi propagates the two parity blocks; the whole
    # post-quench operator as one block, with its own forms, gives the same trace
    params = quench_report.params
    coupling = rescale_interaction(params.interaction, params.n_modes)
    pre = solve_lowest(replace(params, phase=quench_report.phase_initial), m=1, coupling=coupling)
    k0 = cached_basis(params.n_atoms, params.n_modes).total_k == 0
    whole = build_hamiltonian(params, coupling)
    vals, vecs = sla.eigh(whole.matrix.toarray())
    identity = sp.identity(whole.dimension, format="csr")
    times = quench_report.result.times
    single = propagate([(vals, vecs, identity)], pre.eigenvectors[:, 0], times)
    traces = {
        "P_K0": np.sum(np.abs(single.amplitudes @ vecs[k0].T) ** 2, axis=1),
        "energy": block_trace(single.amplitudes, [vecs.T @ (whole @ vecs)]),
    }
    parity = quench_report.result
    assert parity.method == "spectral-parity" and single.method == "spectral"
    for name in ("P_K0", "energy"):
        assert np.max(np.abs(quench_report.traces[name] - traces[name])) < 1e-10
    assert np.max(np.abs(parity.norms - single.norms)) < 1e-10


def test_forms_equal_the_lifted_trace_where_blocks_are_truncated(monkeypatch):
    # N=4, r=20: parity blocks of 4,455 and 4,400 columns, each kept at its
    # two lowest levels by the Lanczos loop.  The traces read as forms on the
    # kept amplitudes equal those of the states lifted to the whole space,
    # rebuilt here from the same levels and the same psi0
    seen = []

    def spy(blocks, psi0, times):
        seen.append((blocks, psi0))
        return propagate(blocks, psi0, times)

    monkeypatch.setattr(dynamics, "propagate", spy)
    params = SystemParams(n_atoms=4, n_modes=20, interaction=1.0, barrier=0.008, phase=math.pi)
    report = run_quench(params, phase_initial=0.9 * math.pi, periods=2.0)
    (blocks, psi0), = seen
    assert all(vectors.shape[1] == dynamics.QUENCH_LEVELS for _, vectors, _ in blocks)
    assert report.result.truncated_weight > 0.0
    elapsed = report.result.times - report.result.times[0]
    states = 0
    for energies, vectors, isometry in blocks:
        amplitudes = np.exp(-1j * np.outer(elapsed, energies)) * (vectors.T @ (isometry.T @ psi0))
        states = states + (isometry @ (vectors @ amplitudes.T)).T
    k0 = cached_basis(4, 20).total_k == 0
    whole = build_hamiltonian(params, rescale_interaction(params.interaction, params.n_modes))
    p_k0 = np.sum(np.abs(states[:, k0]) ** 2, axis=1)
    energy = np.einsum("ij,ij->i", states.conj(), (whole @ states.T).T).real
    norms = np.linalg.norm(states, axis=1)
    assert np.max(np.abs(report.traces["P_K0"] - p_k0)) <= 1e-14
    assert np.max(np.abs(report.traces["energy"] - energy) / np.abs(energy)) <= 1e-12
    assert np.max(np.abs(report.result.norms - norms)) <= 1e-14


def test_lowest_levels_of_each_block_bound_the_trace(quench_report, monkeypatch):
    # with a dense cutoff of 50 each 60-column parity block keeps only its
    # two lowest levels (QUENCH_LEVELS): the splitting is unchanged, and the
    # P(K=0) trace of the projected state stays within 2 sqrt(w) of the full one
    monkeypatch.setattr(solver, "DENSE_CUTOFF", 50)
    truncated = run_quench(quench_report.params, **QUENCH)
    w = truncated.result.truncated_weight
    assert 0.0 < w < 1e-2
    assert truncated.delta_e == pytest.approx(quench_report.delta_e, rel=1e-9)
    full, kept = quench_report.traces["P_K0"], truncated.traces["P_K0"]
    assert 0.0 < np.max(np.abs(kept - full)) <= 2.0 * math.sqrt(w)
    assert truncated.norm_drift < 1e-10
    assert truncated.relative_deviation < 0.02


def test_too_short_a_trace_is_refused_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the trace length")

    monkeypatch.setattr(dynamics, "solve_lowest", no_solve)
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=math.pi)
    with pytest.raises(ValueError, match="needs at least 8"):
        run_quench(params, phase_initial=0.9 * math.pi, periods=0.1, samples_per_period=48)
