"""ringflow benchmark: three workloads timed end to end and per layer.

    python3 perfbench/run.py --workload {crossing_sweep,atom_scan,quench}
                             [--seed 7] [--seconds 25] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a ringflow checkout; the package is imported from
`./src`, nothing is installed.  Each repetition runs in a fresh process
(`workload.py`): set-up (import plus the coupling-independent operator
builders), then the `ringflow` CLI command of the workload.  Repetitions
follow one another while the next one is expected to end within `--seconds`,
and there is at least one.  `--seed` is passed to the CLI as its solver seed.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics (medians over the run's repetitions); with `--trace 1` it
holds the per-layer metrics of traced repetitions instead.  Every output is
checked (`checks.py`); a grid point, or the quench, that fails a check or
produces no output counts as failed.  Details of each run go to
`.perfbench/<workload>-seed<seed>-trace<trace>.json`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0  # the whole run, set-up probes included, ends before this
SETUP_SAMPLES = 3  # set-up is timed in at least this many fresh processes per run
# One BLAS thread: on a 2-vCPU KVM guest two threads did not speed up the
# crossing sweep, and made the quench slower and its times wider, since a
# two-thread call waits for whichever vCPU the host is slowing at the time.
BLAS_THREADS = 1


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RINGFLOW_CACHE_DIR", None)  # set-up is always cold
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def versions() -> dict[str, str]:
    import numpy
    import scipy

    def blas(module) -> str:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "numpy_blas": blas(numpy),
        "scipy": scipy.__version__, "scipy_blas": blas(scipy),
    }


def run_child(root, env, workload, seed, outdir, timeout, setup_only=False, trace=False):
    """One fresh workload process; returns (wall seconds, child.json or None)."""
    os.makedirs(outdir)
    cmd = [
        sys.executable, os.path.join(HERE, "workload.py"), "--workload", workload,
        "--seed", str(seed), "--outdir", outdir,
    ]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
    with open(os.path.join(outdir, "child.log"), "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    path = os.path.join(outdir, "child.json")
    if code != 0 or not os.path.exists(path):
        return wall, None
    with open(path, encoding="utf-8") as fh:
        return wall, json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ringflow", "cli.py")):
        return _fail(f"no ringflow source at {src}; run from the root of a ringflow checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, src)
    import checks
    from spans import summarize
    from workload import WORKLOADS

    if args.self_test:
        return 0 if checks.self_test() else 1
    if args.workload not in WORKLOADS:
        return _fail(f"--workload must be one of {sorted(WORKLOADS)}")

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    seed = args.seed % 2**31  # the CLI seeds numpy's generator: non-negative
    workdir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    env = child_env(root)
    reference = checks.references(args.workload)
    points = WORKLOADS[args.workload]["points"]

    reps, problems = [], []
    setups = []
    attempted = failed = 0
    correct = True
    try:
        while True:
            now = time.perf_counter()
            longest = max((rep["wall_s"] for rep in reps), default=0.0)
            if reps and now - started + longest > args.seconds:
                break
            outdir = os.path.join(workdir, f"rep{len(reps)}")
            wall, child = run_child(
                root, env, args.workload, seed, outdir, deadline - now, trace=bool(args.trace)
            )
            attempted += points
            if child is None:
                failed += points
                problems.append(f"rep {len(reps)}: process failed or timed out, see {outdir}")
                break
            if not child["ringflow_file"].startswith(src + os.sep):
                return _fail(f"imported ringflow from {child['ringflow_file']}, not {src}")
            if child["exit_code"] != 0:
                bad = [[f"CLI exit code {child['exit_code']}"]] * points
            else:
                try:
                    bad = [r for r in checks.check_outputs(args.workload, outdir, reference) if r]
                except (OSError, ValueError) as exc:
                    bad = [[f"unreadable output: {exc}"]] * points
                correct &= not bad
            failed += len(bad)
            problems += [f"rep {len(reps)}: {'; '.join(r)}" for r in bad]
            child["wall_s"] = wall
            reps.append(child)
            setups.append(child["setup_s"])
            if bad:
                break
        while not args.trace and reps and len(setups) < SETUP_SAMPLES:
            now = time.perf_counter()
            if now + 2.0 * max(setups) > deadline:
                break
            outdir = os.path.join(workdir, f"setup{len(setups)}")
            _, child = run_child(root, env, args.workload, seed, outdir, deadline - now, setup_only=True)
            if child is None:
                problems.append(f"set-up probe failed, see {outdir}")
                break
            setups.append(child["setup_s"])
        if not reps:
            return _fail("no repetition produced a result: " + "; ".join(problems))

        if args.trace:
            layers = [summarize(rep["trace"], rep["import_s"], rep["build_rss_mb"]) for rep in reps]
            for name, key in (("traced.wall_s", "wall_s"), ("traced.setup_s", "setup_s"),
                              ("traced.run_s", "run_s")):
                for layer, rep in zip(layers, reps):
                    layer[name] = rep[key]
            values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
            names = spec["per_layer"]
            missing = sorted({m for rep in reps for m in rep["trace"]["missing"] + rep["missing_builders"]})
        else:
            values = {
                "wall_s": statistics.median(rep["wall_s"] for rep in reps),
                "setup_s": statistics.median(setups),
                "run_s": statistics.median(rep["run_s"] for rep in reps),
                "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
            }
            names = spec["end_to_end"]
            missing = sorted({m for rep in reps for m in rep["missing_builders"]})
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
        result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

        details = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "blas_threads": env["OPENBLAS_NUM_THREADS"],
            "versions": versions(),
            "repetitions": reps, "setup_samples": setups, "problems": problems,
            "missing": missing, "result": result,
        }
        with open(os.path.join(root, ".perfbench", f"{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
            json.dump(details, fh, indent=1)
    finally:
        if not problems:  # a failed repetition's outputs stay for inspection
            shutil.rmtree(workdir, ignore_errors=True)
    if missing:
        print(f"perfbench: missing spans or builders: {', '.join(missing)}", file=sys.stderr)
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
