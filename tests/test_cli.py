import json
import os
import subprocess
import sys

import pytest

import ringflow
from ringflow import solver, sweep
from ringflow.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_units_worked_example(tmp_path, capsys):
    out_path = tmp_path / "units.json"
    code, _, _ = run_cli(
        [
            "units",
            "--atoms", "100",
            "--species", "mass=7u",
            "--radius", "50e-6",
            "--deltaE", "25",
            "--output", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert abs(report["delta_e_over_hbar_per_s"] - 45.0) <= 1.0
    assert report["barrier_rotation_Hz"] == pytest.approx(0.29, rel=0.02)
    assert report["mean_spacing_m"] == pytest.approx(3.14159e-6, rel=1e-4)


def test_units_species_parsing(capsys):
    code, out, _ = run_cli(["units", "--species", "mass=1.165e-26kg"], capsys)
    assert code == 0
    assert json.loads(out)["atom_mass_kg"] == pytest.approx(1.165e-26)
    code, _, err = run_cli(["units", "--species", "mass=heavy"], capsys)
    assert code == 2


def test_single_particle_table(tmp_path, capsys):
    path = tmp_path / "levels.csv"
    code, _, _ = run_cli(
        ["single-particle", "--barrier", "0.008", "--count", "4", "--output", str(path)],
        capsys,
    )
    assert code == 0
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 4
    mu0 = rows[0].split(",")
    assert float(mu0[1]) == pytest.approx(0.5, abs=1e-12)


def test_single_particle_tg_report(capsys):
    code, out, _ = run_cli(["single-particle", "--tg-atoms", "5", "--barrier", "1000"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["tg_gap_E0"] == pytest.approx(2.75, rel=0.01)
    assert payload["max_gap_limit_E0"] == 2.75


def test_sweep_csv_schema_and_determinism(tmp_path, capsys):
    common = [
        "sweep", "--param", "interaction", "--scale", "log",
        "--start", "1e-2", "--stop", "1.0", "--points", "4",
        "--atoms", "2", "--modes", "6", "--barrier", "0.01",
    ]
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert run_cli(common + ["--output", str(path_a)], capsys)[0] == 0
    assert run_cli(common + ["--output", str(path_b)], capsys)[0] == 0
    text_a, text_b = path_a.read_text(), path_b.read_text()
    assert text_a == text_b  # byte-identical reruns
    header = [line for line in text_a.splitlines() if line.startswith("# param,")]
    assert header and header[0] == (
        "# param,gamma,g_tilde,E0_level,E1_level,deltaE,P0,PN,Q,Qbar_loss,iters,residual"
    )
    data_rows = [line for line in text_a.splitlines() if not line.startswith("#")]
    assert len(data_rows) == 4
    assert len(data_rows[0].split(",")) == 12
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert f"sha256:{manifest['config_digest']}" in text_a


def test_single_atom_sweep_splitting_is_2b(tmp_path, capsys):
    # both parity sectors have dimension 1, so each is solved completely
    path = tmp_path / "n1.csv"
    code, _, _ = run_cli(
        ["sweep", "--atoms", "1", "--modes", "2", "--barrier", "0.004", "--points", "3",
         "--output", str(path)],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 3
    for row in rows:
        assert float(row[5]) == pytest.approx(0.008, rel=1e-12)


def test_manifest_round_trips_as_config(tmp_path, capsys):
    path_a = tmp_path / "a.csv"
    args = [
        "sweep", "--param", "barrier", "--scale", "linear",
        "--start", "0.005", "--stop", "0.02", "--points", "3",
        "--atoms", "2", "--modes", "6", "--interaction", "0.4",
        "--output", str(path_a),
    ]
    assert run_cli(args, capsys)[0] == 0
    path_b = tmp_path / "b.csv"
    code, _, _ = run_cli(
        ["sweep", "--config", str(path_a) + ".manifest.json", "--output", str(path_b)],
        capsys,
    )
    assert code == 0
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
    assert strip(path_a.read_text()) == strip(path_b.read_text())


def test_ini_config_with_flag_override(tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(
        "[global]\nseed = 11\n\n[sweep]\nparam = interaction\nscale = log\n"
        "start = 1e-2\nstop = 1e-1\npoints = 2\natoms = 2\nmodes = 6\nbarrier = 0.01\n"
    )
    path = tmp_path / "out.csv"
    code, _, _ = run_cli(
        ["sweep", "--config", str(config), "--points", "3", "--output", str(path)],
        capsys,
    )
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 3  # flag overrides config
    assert "seed=11" in next(l for l in path.read_text().splitlines() if "seed=" in l)


def test_old_warm_start_and_threads_keys_are_ignored(tmp_path, capsys):
    # `warm_start`, `threads` and `outputs` are no longer options; configs
    # written before still load, and the keys are ignored like any other
    # unknown key
    args = [
        "sweep", "--param", "barrier", "--scale", "linear",
        "--start", "0.005", "--stop", "0.02", "--points", "3",
        "--atoms", "2", "--modes", "6", "--interaction", "0.4",
    ]
    plain = tmp_path / "plain.csv"
    assert run_cli(args + ["--output", str(plain)], capsys)[0] == 0
    strip = lambda path: [l for l in path.read_text().splitlines() if not l.startswith("#")]

    manifest = json.loads((tmp_path / "plain.csv.manifest.json").read_text())
    manifest["parameters"]["warm_start"] = False
    old_manifest = tmp_path / "old.manifest.json"
    old_manifest.write_text(json.dumps(manifest))
    from_manifest = tmp_path / "from_manifest.csv"
    code, _, _ = run_cli(
        ["sweep", "--config", str(old_manifest), "--output", str(from_manifest)], capsys
    )
    assert code == 0
    assert strip(from_manifest) == strip(plain)

    ini = tmp_path / "old.ini"
    ini.write_text(
        "[global]\nthreads = 2\n\n[sweep]\nwarm_start = false\noutputs = delta_e\n"
        "param = barrier\nscale = linear\nstart = 0.005\nstop = 0.02\npoints = 3\n"
        "atoms = 2\nmodes = 6\ninteraction = 0.4\n"
    )
    from_ini = tmp_path / "from_ini.csv"
    code, _, _ = run_cli(["sweep", "--config", str(ini), "--output", str(from_ini)], capsys)
    assert code == 0
    assert strip(from_ini) == strip(plain)


def test_dry_run_prints_without_writing(tmp_path, capsys):
    path = tmp_path / "never.csv"
    code, out, _ = run_cli(
        ["--dry-run", "sweep", "--figure", "fig2", "--output", str(path)], capsys
    )
    assert code == 0
    assert not path.exists()
    payload = json.loads(out)
    assert payload["command"] == "sweep"
    assert payload["parameters"]["figure"] == "fig2"


@pytest.mark.parametrize(
    "command",
    ["sweep", "spectrum", "single-particle", "noon", "loss", "dynamics", "units", "validate"],
)
def test_dry_run_every_command(command, tmp_path, monkeypatch, capsys):
    from ringflow.cli import DEFAULTS_BY_COMMAND

    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["--dry-run", command], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == command
    for key, default in DEFAULTS_BY_COMMAND[command].items():
        assert payload["parameters"][key] == default
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--method", "foo", "--omega-points", "0"],
        ["spectrum", "--omega-points", "0"],
        ["noon", "--atoms-min", "5", "--atoms-max", "2"],
        ["loss", "--atoms", "1"],
        ["dynamics", "--atoms", "0"],
        ["units", "--species", "mass=seven"],
        ["sweep", "--scale", "lgo"],
        ["single-particle", "--count", "0"],
        ["single-particle", "--omega-over-pi", "3"],
        ["single-particle", "--tg-atoms", "4"],
        ["single-particle", "--barrier", "-1"],
        ["spectrum", "--levels", "0"],
        ["spectrum", "--atoms", "1", "--modes", "2", "--levels", "3"],
        ["spectrum", "--method", "tg", "--atoms", "4"],
        ["dynamics", "--periods", "0"],
        ["noon", "--atoms-min", "1"],
    ],
)
def test_dry_run_rejects_what_the_run_rejects(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["--dry-run", *args], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert run_cli(args, capsys)[0] == 2
    assert list(tmp_path.iterdir()) == []


def test_manifest_of_another_command_exits_2(tmp_path, capsys):
    manifest = tmp_path / "dyn.csv.manifest.json"
    manifest.write_text(json.dumps({"command": "dynamics", "parameters": {"atoms": 3}}))
    output = tmp_path / "out.csv"
    for dry in ([], ["--dry-run"]):
        code, out, err = run_cli(
            [*dry, "sweep", "--config", str(manifest), "--output", str(output)], capsys
        )
        assert code == 2
        assert out == ""
        assert "'dynamics'" in err and "'sweep'" in err
    assert not output.exists()


@pytest.mark.parametrize("value, expected", [("Off", False), ("YES", True), (" 0 ", False)])
def test_boolean_config_values(value, expected, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text(f"[sweep]\nrescale = {value}\n")
    code, out, _ = run_cli(["--dry-run", "sweep", "--config", str(config)], capsys)
    assert code == 0
    assert json.loads(out)["parameters"]["rescale"] is expected


def test_ini_config_without_a_section_for_the_command_exits_2(tmp_path, capsys):
    # a file of another command's settings would otherwise run the defaults
    other = tmp_path / "other.ini"
    other.write_text("[dynamics]\natoms = 7\n")
    for dry in ([], ["--dry-run"]):
        output = tmp_path / "out.csv"
        code, out, err = run_cli(
            [*dry, "sweep", "--config", str(other), "--output", str(output)], capsys
        )
        assert code == 2
        assert out == ""
        assert str(other) in err and "[sweep]" in err
        assert not output.exists()
    # several sections, or [global] alone, stay valid
    for text in ("[dynamics]\natoms = 7\n\n[sweep]\npoints = 3\n", "[global]\nseed = 11\n"):
        other.write_text(text)
        assert run_cli(["--dry-run", "sweep", "--config", str(other)], capsys)[0] == 0


def test_misspelt_boolean_config_value_exits_2(tmp_path, capsys):
    # from an INI file and from a manifest JSON alike
    ini = tmp_path / "run.ini"
    ini.write_text("[sweep]\nrescale = flase\n")
    manifest = tmp_path / "run.manifest.json"
    manifest.write_text(json.dumps({"command": "sweep", "parameters": {"rescale": "flase"}}))
    for config in (ini, manifest):
        for dry in ([], ["--dry-run"]):
            output = tmp_path / "out.csv"
            code, out, err = run_cli(
                [*dry, "sweep", "--config", str(config), "--output", str(output)], capsys
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: rescale must be one of") and "'flase'" in err
            assert not output.exists()


def test_sweep_fig4_redirects_to_noon(capsys):
    code, _, err = run_cli(["sweep", "--figure", "fig4"], capsys)
    assert code == 2
    assert "noon" in err


def test_noon_table(tmp_path, capsys):
    path = tmp_path / "fig4.csv"
    code, _, _ = run_cli(
        ["noon", "--atoms-min", "2", "--atoms-max", "6", "--output", str(path)], capsys
    )
    assert code == 0
    rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 5
    n, g, closed, chain, ratio = rows[3].split(",")[:5]
    assert int(n) == 5
    assert float(closed) == pytest.approx(1.3688e-6, rel=1e-3)
    assert float(chain) == pytest.approx(float(closed), rel=0.1)


def test_loss_report(tmp_path, capsys):
    dist_dir = tmp_path / "dists"
    out = tmp_path / "loss.json"
    code, _, _ = run_cli(
        [
            "loss", "--atoms", "3", "--modes", "8", "--interaction", "1.0",
            "--barrier", "0.008", "--distributions-dir", str(dist_dir),
            "--output", str(out),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["g_tilde"] < payload["interaction"]
    assert 0.0 <= payload["qbar_pre_loss_weights"] <= 1.0
    assert "qbar_post_loss_weights" in payload
    occupations = [m["occupation"] for m in payload["modes"]]
    assert sum(occupations) == pytest.approx(3.0, abs=1e-8)
    ground = [l.split(",") for l in (dist_dir / "ground.csv").read_text().splitlines()
              if not l.startswith("#")]
    assert sum(float(p) for _, p in ground) == pytest.approx(1.0, abs=1e-12)
    assert (dist_dir / "loss_k1.csv").exists()


def test_loss_of_the_only_atom_exits_2(tmp_path, capsys):
    out = tmp_path / "loss.json"
    code, _, err = run_cli(["loss", "--atoms", "1", "--output", str(out)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "n_atoms >= 2" in err
    code, _, err = run_cli(
        ["--json-errors", "loss", "--atoms", "1", "--output", str(out)], capsys
    )
    assert code == 2
    assert json.loads(err) == {
        "error": "the loss of one atom needs n_atoms >= 2, got 1",
        "type": "ValueError",
        "exit_code": 2,
    }
    assert not out.exists()


def test_spectrum_tg_and_ed(tmp_path, capsys):
    tg_path = tmp_path / "tg.csv"
    code, _, _ = run_cli(
        [
            "spectrum", "--method", "tg", "--atoms", "5", "--barrier", "0.008",
            "--levels", "2", "--omega-points", "5", "--output", str(tg_path),
        ],
        capsys,
    )
    assert code == 0
    rows = [l.split(",") for l in tg_path.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 5
    mid = rows[2]  # omega = pi
    assert float(mid[0]) == pytest.approx(1.0)
    gap = float(mid[2]) - float(mid[1])
    assert gap == pytest.approx(0.016, rel=0.05)

    ed_path = tmp_path / "ed.csv"
    code, _, _ = run_cli(
        [
            "spectrum", "--method", "ed", "--atoms", "2", "--modes", "6",
            "--interaction", "0.5", "--barrier", "0.01",
            "--levels", "3", "--omega-points", "3", "--output", str(ed_path),
        ],
        capsys,
    )
    assert code == 0
    rows = [l.split(",") for l in ed_path.read_text().splitlines() if not l.startswith("#")]
    levels = [float(v) for v in rows[1][1:]]
    assert levels == sorted(levels)


def test_dynamics_cli(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        [
            "dynamics", "--atoms", "2", "--modes", "6", "--interaction", "0.5",
            "--barrier", "0.05", "--periods", "8", "--samples-per-period", "32",
            "--output", str(trace), "--report", str(report_path),
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["relative_deviation"] < 0.02
    assert payload["norm_drift"] < 1e-10
    assert payload["truncated_weight"] == 0.0  # blocks of 12 and 9, kept whole
    assert payload["method"] == "spectral-parity"  # Omega_final = pi
    assert "steps_taken" not in payload and "rejected_steps" not in payload
    rows = [l for l in trace.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 8 * 32 + 1
    t0, p0, n0 = rows[0].split(",")
    assert float(n0) == pytest.approx(1.0, abs=1e-12)


def test_dynamics_at_the_fig2_point(tmp_path, capsys):
    # N=5, r=20: parity blocks of 21,252 columns, each kept at its two lowest
    # levels, which hold all but w of the quenched state
    report_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        ["dynamics", "--atoms", "5", "--modes", "20", "--periods", "2",
         "--output", str(tmp_path / "trace.csv"), "--report", str(report_path)],
        capsys,
    )
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["relative_deviation"] < 0.02
    assert 0.0 < payload["truncated_weight"] <= 1e-6
    assert payload["norm_drift"] < 1e-10


def _cli_peak_mb(tmp_path, args):
    """Peak RSS of one CLI run, read by a fresh parent process from its one
    child."""
    src = os.path.dirname(os.path.dirname(ringflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    measure = (
        "import resource, subprocess, sys\n"
        f"subprocess.run([sys.executable, '-m', 'ringflow.cli', *{args!r}], check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    out = subprocess.run([sys.executable, "-c", measure], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux


def test_quench_memory_at_the_fig2_point(tmp_path):
    # the default 20 periods (961 samples) at N=5, r=20: the quench carries
    # four amplitudes per sample and forms no whole-space state (one such
    # state per sample took 756 MB)
    args = ["dynamics", "--atoms", "5", "--modes", "20", "--output", "trace.csv"]
    assert _cli_peak_mb(tmp_path, args) < 300


def test_quench_memory_below_the_old_dense_cutoff(tmp_path):
    # N=4, r=16: blocks of 1,956 and 1,920 columns keep their two lowest
    # levels; each kept whole below a dense cutoff of 2,000 (241-335 MB)
    args = ["dynamics", "--atoms", "4", "--modes", "16", "--periods", "2",
            "--output", "trace.csv"]
    assert _cli_peak_mb(tmp_path, args) < 200


def test_exit_codes(tmp_path, capsys):
    # invalid arguments -> 2
    code, _, err = run_cli(["sweep", "--figure", "nonsense"], capsys)
    assert code == 2
    # dimension cap -> 4
    code, _, err = run_cli(
        ["sweep", "--param", "interaction", "--start", "0.1", "--stop", "1.0",
         "--points", "2", "--atoms", "40", "--modes", "20"],
        capsys,
    )
    assert code == 4
    # json errors flag emits machine-readable payload
    code, _, err = run_cli(["--json-errors", "sweep", "--figure", "nonsense"], capsys)
    assert code == 2
    assert json.loads(err)["exit_code"] == 2


@pytest.mark.parametrize("omega", ["1", "0.9"])
def test_spectrum_more_levels_than_the_dimension_exits_2(omega, tmp_path, capsys):
    # N=1, r=2 has two states; at the crossing each parity sector holds one
    output = tmp_path / "levels.csv"
    code, _, err = run_cli(
        ["spectrum", "--atoms", "1", "--modes", "2", "--levels", "3",
         "--omega-start", omega, "--omega-stop", omega, "--omega-points", "1",
         "--output", str(output)],
        capsys,
    )
    assert code == 2
    assert "requested 3 levels of a dimension-2 system" in err
    assert not output.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [("sweep", "scale", "lgo"), ("spectrum", "method", "foo")],
)
def test_unknown_choice_exits_2(command, key, value, tmp_path, capsys):
    # from a flag and from a config file alike; nothing else is run
    output = tmp_path / "out.csv"
    small = ["--atoms", "2", "--modes", "6", "--output", str(output)]
    config = tmp_path / "run.ini"
    config.write_text(f"[{command}]\n{key} = {value}\n")
    for source in (["--" + key, value], ["--config", str(config)]):
        code, _, err = run_cli([command, *source, *small], capsys)
        assert code == 2
        assert err.startswith(f"error: unknown {key} {value!r}")
        assert not output.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["noon", "--atoms-min", "5", "--atoms-max", "3"],
        ["spectrum", "--omega-points", "0"],
    ],
)
def test_empty_range_exits_2(args, tmp_path, capsys):
    output = tmp_path / "out.csv"
    code, _, err = run_cli([*args, "--output", str(output)], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert not output.exists()
    assert not (tmp_path / "out.csv.manifest.json").exists()


def test_failed_sweep_reraises_point_error(capsys, monkeypatch):
    # every point hits the dimension cap: the sweep re-raises the point's own
    # exception, so its message carries no doubled type prefix; the six points
    # also run in two worker processes
    size = ["--atoms", "30", "--modes", "40"]
    code, _, spectrum_err = run_cli(["--json-errors", "spectrum", *size], capsys)
    assert code == 4
    spectrum_payload = json.loads(spectrum_err)
    for workers in (1, 2):
        monkeypatch.setattr(sweep, "_worker_count", lambda points: min(workers, points))
        code, _, sweep_err = run_cli(["--json-errors", "sweep", *size, "--points", "6"], capsys)
        assert code == 4
        sweep_payload = json.loads(sweep_err)
        assert sweep_payload == spectrum_payload
        assert sweep_payload["type"] == "DimensionCapError"
        assert not sweep_payload["error"].startswith("DimensionCapError")


def test_convergence_exit_code(capsys):
    # sector dimensions above the dense cutoff force the Krylov path, which a
    # one-restart budget at machine tolerance cannot satisfy
    code, _, err = run_cli(
        ["--tol", "1e-14", "spectrum", "--method", "ed", "--atoms", "5", "--modes", "14",
         "--interaction", "0.7", "--barrier", "0.01", "--levels", "2",
         "--omega-start", "1.0", "--omega-stop", "1.0", "--omega-points", "1",
         "--max-iterations", "1", "--json-errors"],
        capsys,
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["type"] == "ConvergenceError"
    assert payload["exit_code"] == 3
    assert "no eigenpair converged" in payload["error"]
    assert "nan" not in payload["error"]


def test_strong_coupling_convergence_exit_code(tmp_path, capsys, monkeypatch):
    # g = 10 lies above LOBPCG's regime, so each sector goes to the Lanczos
    # loop first; at machine tolerance it misses and ARPACK takes over, whose
    # one-restart budget fails too
    misses = []

    def spy(*args):
        result = lanczos(*args)
        misses.append(result[0] is None)
        return result

    lanczos = solver._lanczos
    monkeypatch.setattr(solver, "_lanczos", spy)
    args = ["--tol", "1e-14", "spectrum", "--method", "ed", "--atoms", "5", "--modes", "12",
            "--interaction", "10", "--barrier", "0.01", "--levels", "2",
            "--omega-start", "1.0", "--omega-stop", "1.0", "--omega-points", "1",
            "--output", str(tmp_path / "spectrum.csv"), "--json-errors"]
    code, _, err = run_cli([*args, "--max-iterations", "1"], capsys)
    assert code == 3
    assert misses == [True]
    payload = json.loads(err)
    assert payload["type"] == "ConvergenceError"
    assert payload["exit_code"] == 3
    assert "achieved residual" in payload["error"]
    assert "nan" not in payload["error"]
    # with ARPACK's default budget the same solve converges
    code, _, _ = run_cli(args, capsys)
    assert code == 0


def test_validate_runs_clean(tmp_path, capsys):
    out = tmp_path / "validate.json"
    code, stdout, _ = run_cli(["validate", "--output", str(out)], capsys)
    assert code == 0
    assert "PASS" in stdout and "FAIL" not in stdout
    report = json.loads(out.read_text())
    assert report["all_passed"]
    audit = report["weak_barrier_audit"]
    assert audit["perturbative_reference"] == 2.0
    for data in audit["measured"].values():
        assert data["limit_estimate"] == pytest.approx(2.0, rel=0.02)


def test_validate_compares_the_solvers_with_dense_references(monkeypatch):
    # N=4, r=12 has 1,365 columns, above DENSE_CUTOFF: the references must
    # ask for a dense solve, or the checks compare an iterative path to itself
    from ringflow import validate

    methods = []

    def spy(op, m, **kwargs):
        sol = solver.lowest_eigenpairs(op, m, **kwargs)
        methods.append(sol.method)
        return sol

    monkeypatch.setattr(validate, "lowest_eigenpairs", spy)
    results = []
    validate._check_krylov_vs_dense(results)
    assert methods == ["dense", "lobpcg", "dense"]
    assert [r.name for r in results if r.passed] == [
        "krylov_matches_dense", "parity_path_matches_plain"
    ]


def test_validate_plain_reference_shares_no_sector_factor():
    # the plain reference is built from the a_k, apart from the sector
    # factors the parity path reads: one of those scaled by 1 + 1e-6 moves
    # the parity gap (by 2.8e-6) and the plain one not at all
    from ringflow import hamiltonian, validate

    hamiltonian.clear_caches()
    try:
        even = hamiltonian.cached_sector_pieces(4, 12)[0]
        even.interaction_factor.matrix.data *= 1 + 1e-6
        results = []
        validate._check_krylov_vs_dense(results)
    finally:
        hamiltonian.clear_caches()
    assert {r.name: bool(r.passed) for r in results} == {
        "krylov_matches_dense": True, "parity_path_matches_plain": False
    }
