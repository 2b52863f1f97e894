"""One repetition of a workload in a fresh process: set-up, then the ringflow CLI.

    python3 perfbench/workload.py --workload NAME --seed N --outdir DIR
                                  [--setup-only] [--trace]

Run from the root of a checkout with `src` on PYTHONPATH.  The process times
the import of `ringflow` plus the coupling-independent builders for every
(N, r) the workload touches (set-up), then calls `ringflow.cli.main` with the
workload's arguments (run).  It writes `child.json` into DIR: the two times,
the CLI exit code, its own peak RSS and, with --trace, the recorded spans.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _maxrss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Each workload: the CLI arguments (every input pinned explicitly, so a change
# of a CLI default cannot change what is measured), the (N, r) systems whose
# operators the command builds, and which builders apply to them.
WORKLOADS = {
    "crossing_sweep": {
        "argv": [
            "sweep", "--figure", "fig2", "--points", "12", "--atoms", "5",
            "--modes", "20", "--barrier", "0.008",
        ],
        "systems": [(5, 20)],
        "loss": True,
        "points": 12,
    },
    "atom_scan": {
        "argv": ["sweep", "--figure", "fig3a", "--gamma", "200", "--barrier", "0.008"],
        "systems": [(2, 20), (3, 20), (4, 20), (5, 20), (6, 14)],
        "loss": True,
        "points": 5,
    },
    "quench": {
        "argv": [
            "dynamics", "--atoms", "3", "--modes", "8", "--interaction", "1",
            "--barrier", "0.008", "--omega-initial-over-pi", "0.9",
            "--omega-final-over-pi", "1", "--periods", "2",
            "--samples-per-period", "48",
        ],
        "systems": [(3, 8)],
        "loss": False,
        "points": 1,
    },
}


def cli_argv(name: str, seed: int, outdir: str) -> list[str]:
    argv = list(WORKLOADS[name]["argv"]) + ["--seed", str(seed)]
    argv += ["--output", os.path.join(outdir, "out.csv")]
    if argv[0] == "dynamics":
        argv += ["--report", os.path.join(outdir, "report.json")]
    return argv


def set_up(hamiltonian, name: str, missing: list[str]) -> None:
    """Call the coupling-independent builders the workload's command uses.

    A builder that no longer exists is recorded in `missing`; its work then
    happens inside the command and is timed as run time.
    """

    def call(builder: str, *args) -> None:
        fn = getattr(hamiltonian, builder, None)
        if fn is None:
            if builder not in missing:
                missing.append(builder)
            return
        fn(*args)

    spec = WORKLOADS[name]
    for n_atoms, n_modes in spec["systems"]:
        call("cached_basis", n_atoms, n_modes)
        call("cached_pieces", n_atoms, n_modes)
        call("cached_sector_pieces", n_atoms, n_modes)
        if spec["loss"]:
            call("cached_basis", n_atoms - 1, n_modes)
            for k in range(-n_modes // 2 + 1, n_modes // 2 + 1):
                call("cached_loss_operator", n_atoms, n_modes, k)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    t_import = time.perf_counter()
    cli = importlib.import_module("ringflow.cli")
    hamiltonian = importlib.import_module("ringflow.hamiltonian")
    import_s = time.perf_counter() - t_import
    rss_imported = _maxrss_mb()

    recorder = None
    if args.trace:
        from spans import Recorder, instrument

        recorder = Recorder()
        instrument(recorder)

    missing: list[str] = []
    if recorder is not None:
        with recorder.span("setup"):
            set_up(hamiltonian, args.workload, missing)
    else:
        set_up(hamiltonian, args.workload, missing)
    t_setup = time.perf_counter()
    rss_setup = _maxrss_mb()

    result = {
        "import_s": import_s,
        "setup_s": t_setup - T0,
        "build_rss_mb": rss_setup - rss_imported,
        "missing_builders": missing,
        "ringflow_file": os.path.abspath(cli.__file__),
    }
    if not args.setup_only:
        argv = cli_argv(args.workload, args.seed, args.outdir)
        if recorder is not None:
            with recorder.span("cli.main"):
                code = cli.main(argv)
        else:
            code = cli.main(argv)
        result["run_s"] = time.perf_counter() - t_setup
        result["exit_code"] = code
    result["peak_rss_mb"] = _maxrss_mb()
    if recorder is not None:
        result["trace"] = recorder.export()
    with open(os.path.join(args.outdir, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
