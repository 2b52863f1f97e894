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
from ringflow import blas, solver, sweep
from ringflow.cli import main
from ringflow.hamiltonian import (
    cached_basis,
    cached_loss_operator,
    cached_sector_pieces,
    clear_caches,
)
from ringflow.observables import loss_quality
from ringflow.params import SystemParams, lieb_liniger_gamma, rescale_interaction
from ringflow.solver import solve_lowest
from ringflow.sweep import (
    SweepRecord,
    SweepSpec,
    fig2_spec,
    fig3a_spec,
    linear_grid,
    log_grid,
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
    # parity sectors of 2,184 > DENSE_CUTOFF: LOBPCG runs at the weak-coupling
    # points, the Lanczos loop at the others
    base = SystemParams(n_atoms=5, n_modes=12, interaction=0.5, barrier=0.01, phase=math.pi)
    return SweepSpec(parameter="interaction", grid=log_grid(0.1, 10.0, points), base=base)


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(sweep, "_worker_count", lambda points: min(workers, points))


def test_spec_validation():
    base = SystemParams(n_atoms=2, n_modes=4)
    with pytest.raises(ValueError):
        SweepSpec(parameter="nonsense", grid=np.array([1.0]), base=base)
    with pytest.raises(ValueError):
        SweepSpec(parameter="interaction", grid=np.array([1.0, 1.0]), base=base)


def test_grids():
    assert np.allclose(linear_grid(0, 1, 3), [0, 0.5, 1])
    g = log_grid(1e-2, 1e2, 5)
    assert np.allclose(np.log10(g), [-2, -1, 0, 1, 2])


def test_single_point_sweep_matches_direct_pipeline():
    spec = _small_spec(grid=np.array([0.5]))
    [record] = run_sweep(spec)
    direct = solve_lowest(spec.base).eigenvalues
    assert record.delta_e == pytest.approx(direct[1] - direct[0], rel=1e-12)
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


def _crossing_spec(grid):
    # N=5, r=12: the whole operator (4,368) and the parity sectors (2,184)
    # both go to the Lanczos loop at g = 2, above LOBPCG's weak-coupling
    # regime; the grid steps from two blocks to one, or from one to two
    base = SystemParams(n_atoms=5, n_modes=12, interaction=2.0, barrier=0.01, phase=math.pi)
    assert math.pi in (grid[0], grid[-1])
    return SweepSpec(parameter="phase", grid=grid, base=base)


@pytest.mark.parametrize(
    "spec",
    [
        _small_spec(),
        _krylov_spec(points=3),
        _crossing_spec(np.linspace(math.pi, math.pi + 0.1, 3)),
        _crossing_spec(np.linspace(math.pi - 0.1, math.pi, 3)),
    ],
    ids=["n2-r8", "n5-r12", "off-the-crossing", "onto-the-crossing"],
)
def test_sweep_records_equal_the_direct_pipeline(spec):
    # the sweep against a direct solve at every point; the last three specs
    # have blocks above the dense cutoff, so the iterative solvers run
    records = run_sweep(spec)
    for rec in records:
        params = spec.params_at(rec.value)
        direct = solve_lowest(params)
        gap = direct.eigenvalues[1] - direct.eigenvalues[0]
        assert rec.delta_e == pytest.approx(gap, abs=1e-11)
        loss = loss_quality(
            direct.eigenvectors[:, 0],
            cached_basis(params.n_atoms, params.n_modes),
            cached_basis(params.n_atoms - 1, params.n_modes),
        )
        assert rec.qbar_loss == pytest.approx(loss.qbar, abs=1e-9)
    if spec.base.n_atoms == 5:
        assert all(rec.iterations > 0 for rec in records)  # the iterative path ran


def test_point_record_does_not_depend_on_its_neighbours(monkeypatch):
    # the middle point of a grid that crosses from LOBPCG's weak-coupling
    # regime into the Lanczos loop's, solved in a worker beside its
    # neighbours, against a one-point sweep in this process
    spec = _krylov_spec(points=3)
    couplings = [0.5 * rescale_interaction(g, 12).g_tilde for g in spec.grid]
    assert min(couplings) <= solver.LOBPCG_MAX_COUPLING < max(couplings)
    _force_workers(monkeypatch, 2)
    middle = run_sweep(spec)[1]
    [alone] = run_sweep(replace(spec, grid=spec.grid[1:2]))
    assert astuple(middle) == astuple(alone)  # bit-identical, iterations included
    assert middle.iterations > 0


def test_threaded_execution_matches_sequential():
    # concurrent callers race on the cold builders; the cache lock must hand
    # every thread the same object from each builder, and the sector
    # transposes that every point reads are views built with their cached
    # block, so the threads race on cached objects only; the solves stay
    # unchanged
    params = SystemParams(n_atoms=2, n_modes=8, interaction=0.5, barrier=0.01, phase=math.pi)
    off = replace(params, phase=0.9 * math.pi)
    reference = [solve_lowest(p).eigenvalues for p in (params, off)]
    clear_caches()
    start = threading.Barrier(4)

    def built():
        return (
            cached_basis(2, 8),
            cached_sector_pieces(2, 8),
            cached_loss_operator(2, 8, 1),
        )

    def transposes():
        return tuple(
            factor.transpose
            for block in cached_sector_pieces(2, 8)
            for factor in (block.barrier_factor, block.interaction_factor)
        )

    def worker(_):
        start.wait()
        objects = built()
        start.wait()  # then read the sector transposes, views held by the blocks
        objects += transposes()
        return objects, [solve_lowest(p).eigenvalues for p in (params, off)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often inside the builders
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(worker, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    shared = built() + transposes()
    for objects, eigenvalues in results:
        assert all(obj is ref for obj, ref in zip(objects, shared, strict=True))
        for got, want in zip(eigenvalues, reference, strict=True):
            assert np.array_equal(got, want)


def test_per_point_failure_captured(monkeypatch):
    base = SystemParams(n_atoms=2, n_modes=8, interaction=0.5, barrier=0.01, phase=math.pi)
    spec = SweepSpec(parameter="n_modes", grid=np.array([6.0, 7.0, 8.0]), base=base)
    for workers in (1, 2):  # three points: in this process, then in two workers
        _force_workers(monkeypatch, workers)
        records = run_sweep(spec)
        assert records[0].error is None
        assert "ValueError" in records[1].error  # odd window size is invalid
        assert records[1].error == f"ValueError: {records[1].exception}"
        assert records[1].exception.__traceback__ is None  # no frames kept alive
        assert math.isnan(records[1].delta_e)
        assert records[2].error is None


def test_same_records_for_any_worker_count(monkeypatch):
    spec = _krylov_spec()
    # the grid crosses from LOBPCG's weak-coupling regime into the Lanczos
    # loop's
    couplings = [0.5 * rescale_interaction(g, 12).g_tilde for g in spec.grid]
    assert min(couplings) <= solver.LOBPCG_MAX_COUPLING < max(couplings)
    rows = {}
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        records = run_sweep(spec)
        assert multiprocessing.active_children() == []
        rows[workers] = [astuple(rec) for rec in records]
    assert rows[1] == rows[2]  # every field bit-identical, iterations included
    assert sum(rec.iterations for rec in records) > 0  # the Krylov path ran


def _csv_per_worker_count(args, tmp_path, monkeypatch, capsys):
    texts = []
    for workers in (1, 2):
        _force_workers(monkeypatch, workers)
        path = tmp_path / f"workers{workers}.csv"
        assert main(args + ["--output", str(path)]) == 0
        assert multiprocessing.active_children() == []
        texts.append(path.read_bytes())
    capsys.readouterr()
    return texts


def test_sweep_csv_identical_for_any_worker_count(tmp_path, monkeypatch, capsys):
    args = ["sweep", "--atoms", "5", "--modes", "12", "--interaction", "0.5",
            "--barrier", "0.01", "--start", "0.1", "--stop", "10", "--points", "6"]
    texts = _csv_per_worker_count(args, tmp_path, monkeypatch, capsys)
    assert texts[0] == texts[1]


def test_atom_number_sweep_csv_identical_for_any_worker_count(tmp_path, monkeypatch, capsys):
    # N = 2..4 at r = 10: two workers take N=4 (the Lanczos loop on sectors
    # of 365 and 350) first, one worker takes the grid in order
    args = ["sweep", "--param", "n_atoms", "--scale", "linear", "--start", "2", "--stop", "4",
            "--points", "3", "--modes", "10", "--interaction", "5", "--barrier", "0.01"]
    texts = _csv_per_worker_count(args, tmp_path, monkeypatch, capsys)
    assert texts[0] == texts[1]
    assert texts[0].decode().splitlines()[-1].split(",")[-2] != "0"  # N=4 iterated


def test_dispatch_order_takes_the_largest_whole_space_first():
    # N=3 at r=8 (120 states) first; N=1 at r=10 and N=2 at r=4 (10 states
    # each, and g_tilde/2 below b at both) tie and keep their grid order
    base = SystemParams(n_atoms=1, n_modes=8, interaction=0.01, barrier=0.01, phase=math.pi)
    atoms = SweepSpec(parameter="n_atoms", grid=np.array([1.0, 2.0, 3.0]), base=base,
                      modes_by_atoms=((1, 10), (2, 4)))
    assert sweep._dispatch_order(atoms, list(atoms.grid)) == [2, 0, 1]
    assert sweep._dispatch_order(atoms, [3.0, 2.0, 1.0]) == [0, 1, 2]
    # r = 7 raises in params_at and counts as 0: after r = 6 (21 states)
    modes = SweepSpec(parameter="n_modes", grid=np.array([8.0, 7.0, 6.0]),
                      base=replace(base, n_atoms=2))
    with pytest.raises(ValueError):
        modes.params_at(7.0)
    assert sweep._dispatch_order(modes, list(modes.grid)) == [0, 2, 1]
    # a coupling grid: one whole space, so the strongest coupling goes first
    # and the points whose g_tilde/2 lies below b tie and keep grid order
    spec = _small_spec()
    assert sweep._dispatch_order(spec, list(spec.grid)) == [6, 5, 4, 3, 2, 0, 1]


def test_dispatch_order_breaks_ties_by_the_larger_gram_prefactor():
    # fig2 at 12 points: max(b, g_tilde/2) falls from g = 1e3 down to
    # g = 0.035 (g_tilde/2 = 0.017); the four smallest couplings tie at
    # b = 0.008 and keep their grid order
    spec = sweep.fig2_spec(points=12)
    assert sweep._dispatch_order(spec, list(spec.grid)) == [11, 10, 9, 8, 7, 6, 5, 4, 0, 1, 2, 3]
    # the spec's rescaling sets g_tilde: at r = 20, g = 0.9 and 1 give
    # g_tilde/2 = 0.41 and 0.45, below b = 0.47, and g/2 = 0.5 lies above it
    pair = replace(spec, grid=np.array([0.9, 1.0]), base=replace(spec.base, barrier=0.47))
    assert sweep._dispatch_order(pair, list(pair.grid)) == [0, 1]
    raw = replace(pair, rescale=False)
    assert sweep._dispatch_order(raw, list(raw.grid)) == [1, 0]
    # the barrier counts too: a barrier sweep at fixed coupling
    barriers = SweepSpec(parameter="barrier", grid=np.array([0.001, 0.1, 1.0]),
                         base=replace(spec.base, interaction=0.1))
    assert sweep._dispatch_order(barriers, list(barriers.grid)) == [2, 1, 0]


def test_workers_use_one_blas_thread(monkeypatch):
    # each worker reports its OpenBLAS thread counts in place of a point;
    # with the default of one thread per core this checks the workers' limit
    def report(spec, value):
        return SweepRecord(value=value, iterations=max(blas.threads(), default=1))

    _force_workers(monkeypatch, 2)
    monkeypatch.setattr(sweep, "_point_record", report)
    records = run_sweep(_small_spec())
    assert [rec.iterations for rec in records] == [1] * len(records)


def test_dead_worker_raises_and_leaves_no_process(tmp_path):
    # a worker killed mid-sweep: run_sweep raises instead of waiting on it,
    # no worker outlives the sweep, and the CLI exits non-zero
    script = textwrap.dedent(f"""
        import multiprocessing, os, sys
        from concurrent.futures.process import BrokenProcessPool
        from ringflow import sweep
        from ringflow.cli import main

        sweep._worker_count = lambda points: min(2, points)
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


def test_fig2_preset_shape():
    spec = fig2_spec()
    assert spec.base.n_atoms == 5
    assert spec.base.n_modes == 20
    assert spec.base.barrier == 0.008
    assert spec.base.phase == math.pi
    assert spec.grid.size == 60
    assert spec.grid[0] == pytest.approx(1e-4)
    assert spec.grid[-1] == pytest.approx(1e3)
