import os
import subprocess
import sys

import pytest

import ringflow
from ringflow import blas, solver
from ringflow.cli import main


@pytest.fixture
def counts():
    """This process's OpenBLAS thread counts, restored after the test."""
    before = blas.threads()
    if not before:
        pytest.skip("no OpenBLAS in this process")
    yield before
    for (_, setter), count in zip(blas._CONTROLS, before):
        setter(count)


def test_one_thread_scope_restores_the_count(counts):
    blas.set_threads(2)
    with blas.one_thread():
        assert blas.threads() == [1] * len(counts)
    assert blas.threads() == [2] * len(counts)
    with pytest.raises(RuntimeError):
        with blas.one_thread():
            raise RuntimeError
    assert blas.threads() == [2] * len(counts)


def test_cli_solves_run_on_one_blas_thread(counts, monkeypatch, tmp_path):
    seen = []
    eigh = solver.sla.eigh

    def spy(*args, **kwargs):
        seen.append(blas.threads())
        return eigh(*args, **kwargs)

    monkeypatch.setattr(solver.sla, "eigh", spy)
    blas.set_threads(2)
    assert main(["dynamics", "--periods", "2", "--output", str(tmp_path / "trace.csv")]) == 0
    assert seen and all(count == [1] * len(counts) for count in seen)
    # a library caller keeps its own setting
    assert blas.threads() == [2] * len(counts)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # every command runs on one BLAS thread whatever OPENBLAS_NUM_THREADS
    # says: a one-point sweep in the CLI's own process, at g = 0.1 on LOBPCG
    # and at g = 10 on the Lanczos loop (sectors of 2,184); the default
    # quench; `noon --with-ed`, whose N=5 LOBPCG gap moves in its 10th digit
    # on two threads; `validate`, whose dense references (1,365 columns) move
    # its details; N=4, r=12, whose parity blocks of 683 rounded differently
    # when they were dense; and N=4, r=20, whose quench solves blocks of
    # 4,455 and 4,400 iteratively
    src = os.path.dirname(os.path.dirname(ringflow.__file__))
    envs = {threads: dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                          PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            for threads in ("1", "2")}
    for threads in envs:
        (tmp_path / threads).mkdir()
    sweep = ["sweep", "--atoms", "5", "--modes", "12", "--interaction", "0.5",
             "--barrier", "0.01", "--stop", "100", "--points", "1"]
    for args in (
        sweep + ["--start", "0.1", "--output", "weak.csv"],
        sweep + ["--start", "10", "--output", "strong.csv"],
        ["dynamics", "--periods", "4", "--output", "trace.csv", "--report", "report.json"],
        ["noon", "--with-ed", "--output", "noon.csv"],
        ["validate", "--output", "validate.json"],
        ["dynamics", "--atoms", "4", "--modes", "12", "--periods", "2",
         "--output", "trace412.csv"],
        ["dynamics", "--atoms", "4", "--modes", "20", "--periods", "2",
         "--output", "trace420.csv"],
    ):
        # both thread counts run side by side
        runs = [subprocess.Popen([sys.executable, "-m", "ringflow.cli", *args],
                                 cwd=tmp_path / threads, env=env, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE)
                for threads, env in envs.items()]
        try:
            for run in runs:
                _, err = run.communicate(timeout=300)
                assert run.returncode == 0, err
        finally:  # no run outlives a failed one
            for run in runs:
                run.kill()
                run.wait()
    names = ("weak.csv", "strong.csv", "trace.csv", "report.json", "noon.csv", "validate.json",
             "trace412.csv", "trace420.csv")
    outputs = {threads: [(tmp_path / threads / name).read_bytes() for name in names]
               for threads in envs}
    assert outputs["1"] == outputs["2"]


def test_fig2_point_does_not_depend_on_the_blas_thread_count(tmp_path):
    # a strong-coupling fig2 point (N=5, r=20, g = 10) in the CLI's own
    # process: the Lanczos loop runs on one BLAS thread, so the levels and
    # every column derived from the eigenvectors match at 1 and 2 threads.
    src = os.path.dirname(os.path.dirname(ringflow.__file__))
    rows = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run(
            [sys.executable, "-m", "ringflow.cli", "sweep", "--atoms", "5", "--modes", "20",
             "--interaction", "0.5", "--barrier", "0.008", "--start", "10", "--stop", "100",
             "--points", "1", "--output", "point.csv"],
            check=True, capture_output=True, cwd=out, env=env, timeout=300,
        )
        lines = (out / "point.csv").read_text().splitlines()
        header = next(line for line in lines if line.startswith("# param,"))[2:].split(",")
        rows[threads] = dict(zip(header, lines[-1].split(",")))
    assert solver.LOBPCG_MAX_COUPLING < 0.5 * float(rows["1"]["g_tilde"])
    columns = ["E0_level", "E1_level", "deltaE", "P0", "PN", "Q", "Qbar_loss", "iters",
               "residual"]
    assert [rows["1"][c] for c in columns] == [rows["2"][c] for c in columns]
