import json

import pytest

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
    # `warm_start` and `threads` are no longer options; configs written
    # before still load, and the keys are ignored like any other unknown key
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
        "[global]\nthreads = 2\n\n[sweep]\nwarm_start = false\nparam = barrier\n"
        "scale = linear\nstart = 0.005\nstop = 0.02\npoints = 3\natoms = 2\n"
        "modes = 6\ninteraction = 0.4\n"
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
    assert 0.0 <= payload["qbar_pre_loss_weights"] <= 1.0
    assert "qbar_post_loss_weights" in payload
    occupations = [m["occupation"] for m in payload["modes"]]
    assert sum(occupations) == pytest.approx(3.0, abs=1e-8)
    assert (dist_dir / "ground.csv").exists()
    assert (dist_dir / "loss_k1.csv").exists()


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
    assert payload["method"] == "spectral-parity"  # Omega_final = pi
    assert "steps_taken" not in payload and "rejected_steps" not in payload
    rows = [l for l in trace.read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 8 * 32 + 1
    t0, p0, n0 = rows[0].split(",")
    assert float(n0) == pytest.approx(1.0, abs=1e-12)


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


def test_dynamics_block_over_the_spectral_cap_exits_4(tmp_path, capsys, monkeypatch):
    # N=3, r=8 at Omega = pi: parity blocks of 60 and 60
    monkeypatch.setattr(solver, "SPECTRAL_CAP", 50)
    code, _, err = run_cli(
        ["--json-errors", "dynamics", "--periods", "1",
         "--output", str(tmp_path / "trace.csv"), "--report", str(tmp_path / "report.json")],
        capsys,
    )
    assert code == 4
    payload = json.loads(err)
    assert payload["type"] == "DimensionCapError"
    assert payload["exit_code"] == 4
    assert "spectral cap 50" in payload["error"]


def test_failed_sweep_reraises_point_error(capsys, monkeypatch):
    # every point hits the dimension cap: the sweep re-raises the point's own
    # exception, so its message carries no doubled type prefix; six points are
    # two segments, which also run in two worker processes
    size = ["--atoms", "30", "--modes", "40"]
    code, _, spectrum_err = run_cli(["--json-errors", "spectrum", *size], capsys)
    assert code == 4
    spectrum_payload = json.loads(spectrum_err)
    for workers in (1, 2):
        monkeypatch.setattr(sweep, "_worker_count", lambda segments: min(workers, segments))
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
