import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace

import numpy as np
import pytest

import ringflow
from ringflow import sweep
from ringflow.cli import main
from ringflow.hamiltonian import cached_sector_pieces, clear_caches
from ringflow.params import SystemParams, lieb_liniger_gamma
from ringflow.solver import level_splitting, solve_lowest
from ringflow.sweep import (
    SEGMENT_POINTS,
    SolveCache,
    SweepRecord,
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


def _krylov_spec(points=6):
    # parity sectors of 2,184 > DENSE_CUTOFF: ARPACK runs and the chain feeds it
    base = SystemParams(n_atoms=5, n_modes=12, interaction=0.5, barrier=0.01, phase=math.pi)
    return SweepSpec(parameter="interaction", grid=log_grid(0.1, 10.0, points), base=base)


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(sweep, "_worker_count", lambda segments: min(workers, segments))


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


def test_per_point_failure_captured(monkeypatch):
    base = SystemParams(n_atoms=2, n_modes=8, interaction=0.5, barrier=0.01, phase=math.pi)
    spec = SweepSpec(parameter="n_modes", grid=np.array([6.0, 7.0, 8.0]), base=base)
    for workers in (1, 2):  # three segments: in this process, then in two workers
        _force_workers(monkeypatch, workers)
        records = run_sweep(spec)
        assert records[0].error is None
        assert "ValueError" in records[1].error  # odd window size is invalid
        assert records[1].error == f"ValueError: {records[1].exception}"
        assert records[1].exception.__traceback__ is None  # no frames kept alive
        assert math.isnan(records[1].delta_e)
        assert records[2].error is None


def test_segments_cut_at_length_and_size_changes():
    lengths = [len(seg) for seg in sweep._segments(fig2_spec(points=12))]
    assert lengths == [min(SEGMENT_POINTS, 12 - i) for i in range(0, 12, SEGMENT_POINTS)]
    assert [len(seg) for seg in sweep._segments(fig3a_spec())] == [1] * 5
    base = SystemParams(n_atoms=2, n_modes=8)
    spec = SweepSpec(parameter="n_modes", grid=np.array([6.0, 7.0, 8.0]), base=base)
    assert sweep._segments(spec) == [[6.0], [7.0], [8.0]]


def test_same_records_for_any_worker_count(monkeypatch):
    spec = _krylov_spec()
    assert spec.grid.size > SEGMENT_POINTS
    rows, caches = {}, {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        caches[workers] = SolveCache()
        records = run_sweep(spec, cache=caches[workers])
        assert multiprocessing.active_children() == []
        rows[workers] = [astuple(rec) for rec in records]
    assert rows[1] == rows[2]  # every field bit-identical, iterations included
    assert sum(rec.iterations for rec in records) > 0  # the Krylov path ran
    # the workers' solutions and counts were merged into the caller's cache
    cache = caches[2]
    assert (cache.hits, cache.misses, len(cache._store)) == (0, spec.grid.size, spec.grid.size)
    assert [astuple(rec) for rec in run_sweep(spec, cache=cache)] == rows[1]
    assert (cache.hits, cache.misses) == (spec.grid.size, spec.grid.size)


def test_sweep_csv_identical_for_any_worker_count(tmp_path, monkeypatch, capsys):
    args = ["sweep", "--atoms", "5", "--modes", "12", "--interaction", "0.5",
            "--barrier", "0.01", "--start", "0.1", "--stop", "10", "--points", "6"]
    texts = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        path = tmp_path / f"workers{workers}.csv"
        assert main(args + ["--output", str(path)]) == 0
        assert multiprocessing.active_children() == []
        texts.append(path.read_bytes())
    capsys.readouterr()
    assert texts[0] == texts[1]


def _openblas_threads():
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.rsplit("/", 1)[-1]}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads", "openblas_get_num_threads64_"):
            getter = getattr(lib, name, None)
            if getter is not None:
                counts.append(getter())
    return counts


def test_workers_use_one_blas_thread(monkeypatch):
    # each worker reports its OpenBLAS thread counts in place of a segment;
    # with the default of one thread per core this checks the workers' limit
    def report(spec, values, cache):
        return [SweepRecord(value=v, iterations=max(_openblas_threads(), default=1))
                for v in values]

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(sweep, "_run_segment", report)
    records = run_sweep(_small_spec())
    assert len(records) > SEGMENT_POINTS
    assert [rec.iterations for rec in records] == [1] * len(records)


def test_dead_worker_raises_and_leaves_no_process(tmp_path):
    # a worker killed mid-segment: run_sweep raises instead of waiting on it,
    # no worker outlives the sweep, and the CLI exits non-zero
    script = textwrap.dedent(f"""
        import multiprocessing, os, sys
        from concurrent.futures.process import BrokenProcessPool
        from ringflow import sweep
        from ringflow.cli import main

        sweep._worker_count = lambda segments: min(2, segments)
        sweep._point_record = lambda *args: os._exit(9)
        spec = sweep.fig2_spec(n_atoms=2, n_modes=8, points=6)
        try:
            sweep.run_sweep(spec)
        except BrokenProcessPool:
            print("raised")
        print("children", len(multiprocessing.active_children()))
        try:
            main(["sweep", "--atoms", "2", "--modes", "8", "--points", "6",
                  "--output", {str(tmp_path / "dead.csv")!r}])
        finally:
            print("children", len(multiprocessing.active_children()), flush=True)
    """)
    src = os.path.dirname(os.path.dirname(ringflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.stdout.split("\n")[:3] == ["raised", "children 0", "children 0"]
    assert proc.returncode == 1 and "BrokenProcessPool" in proc.stderr
    assert not (tmp_path / "dead.csv").exists()


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
