import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ringflow.hamiltonian import cached_sector_pieces, clear_caches
from ringflow.params import SystemParams, lieb_liniger_gamma
from ringflow.solver import level_splitting, solve_lowest
from ringflow.sweep import (
    SolveCache,
    SweepSpec,
    fig2_spec,
    fig3a_spec,
    linear_grid,
    log_grid,
    point_report,
    run_sweep,
)


def _small_spec(**overrides):
    base = SystemParams(n_atoms=2, n_modes=8, interaction=0.5, barrier=0.01, phase=math.pi)
    spec = SweepSpec(
        parameter="interaction",
        grid=log_grid(1e-3, 10.0, 7),
        base=base,
    )
    return replace(spec, **overrides) if overrides else spec


def test_spec_validation():
    base = SystemParams(n_atoms=2, n_modes=4)
    with pytest.raises(ValueError):
        SweepSpec(parameter="nonsense", grid=np.array([1.0]), base=base)
    with pytest.raises(ValueError):
        SweepSpec(parameter="interaction", grid=np.array([1.0, 1.0]), base=base)
    with pytest.raises(ValueError):
        SweepSpec(
            parameter="interaction", grid=np.array([1.0, 2.0]), base=base,
            outputs=frozenset({"bogus"}),
        )


def test_grids():
    assert np.allclose(linear_grid(0, 1, 3), [0, 0.5, 1])
    g = log_grid(1e-2, 1e2, 5)
    assert np.allclose(np.log10(g), [-2, -1, 0, 1, 2])


def test_single_point_sweep_matches_direct_pipeline():
    spec = _small_spec(grid=np.array([0.5]))
    [record] = run_sweep(spec)
    direct = level_splitting(spec.base)
    assert record.delta_e == pytest.approx(direct.delta_e, rel=1e-12)
    assert record.gamma == pytest.approx(lieb_liniger_gamma(spec.base), rel=1e-14)
    assert record.error is None


def test_records_in_grid_order_and_complete():
    spec = _small_spec()
    records = run_sweep(spec)
    assert [r.value for r in records] == pytest.approx(list(spec.grid))
    for r in records:
        assert r.error is None
        assert r.e1 >= r.e0
        assert 0.0 <= r.quality <= 1.0
        assert r.residual < 1e-8


def test_warm_start_does_not_change_results():
    # the chained sweep against independent cold solves at every point; the
    # second spec has parity sectors above the dense cutoff, so the chain
    # feeds ARPACK's start vectors there
    krylov = _small_spec(
        base=SystemParams(n_atoms=5, n_modes=12, interaction=0.5, barrier=0.01, phase=math.pi),
        grid=log_grid(0.1, 10.0, 3),
    )
    for spec in (_small_spec(), krylov):
        records = run_sweep(spec)
        for rec in records:
            params = spec.params_at(rec.value)
            direct = level_splitting(params)
            assert rec.delta_e == pytest.approx(direct.delta_e, abs=1e-11)
            _, _, _, loss = point_report(params)
            assert rec.qbar_loss == pytest.approx(loss.qbar, abs=1e-9)
    assert sum(rec.iterations for rec in records) > 0  # the Krylov path ran


def test_threaded_execution_matches_sequential():
    # concurrent callers race on the cold builders; the cache lock must hand
    # every thread the same pieces and leave the solves unchanged
    params = SystemParams(n_atoms=2, n_modes=8, interaction=0.5, barrier=0.01, phase=math.pi)
    reference = solve_lowest(params).eigenvalues
    clear_caches()
    start = threading.Barrier(4)

    def worker(_):
        start.wait()
        pieces = cached_sector_pieces(2, 8)
        return pieces, solve_lowest(params).eigenvalues

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(worker, range(4)))
    shared = cached_sector_pieces(2, 8)
    for pieces, eigenvalues in results:
        assert pieces is shared
        assert np.array_equal(eigenvalues, reference)


def test_per_point_failure_captured():
    base = SystemParams(n_atoms=2, n_modes=8, interaction=0.5, barrier=0.01, phase=math.pi)
    spec = SweepSpec(parameter="n_modes", grid=np.array([6.0, 7.0, 8.0]), base=base)
    records = run_sweep(spec)
    assert records[0].error is None
    assert "ValueError" in records[1].error  # odd window size is invalid
    assert records[1].error == f"ValueError: {records[1].exception}"
    assert records[1].exception.__traceback__ is None  # no frames kept alive
    assert math.isnan(records[1].delta_e)
    assert records[2].error is None


def test_cache_hits_across_presets(solve_cache):
    spec = _small_spec(grid=np.array([0.25, 0.5]))
    cache = SolveCache()
    run_sweep(spec, cache=cache)
    misses = cache.misses
    run_sweep(spec, cache=cache)
    assert cache.misses == misses  # all points served from the cache
    assert cache.hits >= 2


def test_pin_gamma_sweep():
    spec = fig3a_spec(atom_numbers=(2, 3), gamma=50.0, n_modes=8, modes_by_atoms=())
    records = run_sweep(spec)
    for rec in records:
        assert rec.gamma == pytest.approx(50.0, rel=1e-12)
    assert records[0].value == 2.0 and records[1].value == 3.0


def test_modes_override_by_atom_number():
    spec = fig3a_spec(atom_numbers=(2, 3), gamma=50.0, n_modes=8, modes_by_atoms=((3, 6),))
    params3 = spec.params_at(3.0)
    assert params3.n_modes == 6
    assert spec.params_at(2.0).n_modes == 8


def test_point_report_consistency():
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=math.pi)
    solution, coupling, dist, loss = point_report(params)
    assert coupling.g_tilde < params.interaction
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert loss is not None and 0.0 <= loss.qbar <= 1.0


def test_fig2_preset_shape():
    spec = fig2_spec()
    assert spec.base.n_atoms == 5
    assert spec.base.n_modes == 20
    assert spec.base.barrier == 0.008
    assert spec.base.phase == math.pi
    assert spec.grid.size == 60
    assert spec.grid[0] == pytest.approx(1e-4)
    assert spec.grid[-1] == pytest.approx(1e3)
