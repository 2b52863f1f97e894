"""Output checks for the benchmark workloads, and their self-test.

Every check compares the program's output with an independent reference or
with a property the method must have; none compares with a stored copy of an
earlier output.  The references are the analytic oracles of `ringflow`
(single-particle barrier levels, hard-core level filling, the binomial
condensate, Lenard's hard-core momentum distribution) and, for the quench, a
dense Hamiltonian built here from the definitions in the docstring of
`ringflow.hamiltonian`, propagated exactly as V exp(-iEt) V^T psi0.

Each check function returns one list of failure reasons per operation (a
grid point of a sweep, or the whole quench); an empty list is a pass.
`self_test` (run by `python3 perfbench/run.py --self-test`) shows that each
check rejects a wrong output.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

from workload import WORKLOADS

GAP_RTOL = 0.025  # measured 1.1%, 1.7% (fig2 ends); 1.9%, 1.5% (N = 3, 5)
PK_RTOL = 0.10  # P0, PN at g = 1e-4 against 1/32; measured 3.3%
QBAR_TG_ATOL_FIG2 = 0.01  # largest gamma of fig2; measured 0.0032
QBAR_TG_ATOL_SCAN = 0.02  # gamma = 200, odd N; measured 0.0125, 0.0096
MIN_GAP_WINDOW = (0.03, 0.3)  # g of the smallest splitting; measured 0.035
SOLVER_TOL = 1e-10  # the CLI default tolerance; residuals must not exceed it
QUENCH_DELTA_ATOL = 1e-10  # dense against dense: rounding only
QUENCH_TRACE_ATOL = 1e-9  # Krylov steps at step_tol 1e-12 against exact phases
QUENCH_FFT_RTOL = 0.02  # measured 0.46%
QUENCH_DRIFT = 1e-10  # measured 9.7e-14 (norm), 1.9e-13 (energy)


def _arg(workload: str, flag: str) -> float:
    """The value the workload passes to the CLI for `flag`."""
    argv = WORKLOADS[workload]["argv"]
    return float(argv[argv.index(flag) + 1])


# The fig2 g range and the fig3a atom numbers are preset in the CLI, not passed.
FIG2 = {
    "atoms": int(_arg("crossing_sweep", "--atoms")),
    "barrier": _arg("crossing_sweep", "--barrier"),
    "grid": (1e-4, 1e3, int(_arg("crossing_sweep", "--points"))),
}
SCAN = {"atoms": (2, 3, 4, 5, 6), "barrier": _arg("atom_scan", "--barrier")}
QUENCH = {
    "atoms": int(_arg("quench", "--atoms")),
    "modes": int(_arg("quench", "--modes")),
    "interaction": _arg("quench", "--interaction"),
    "barrier": _arg("quench", "--barrier"),
    "phase_initial": _arg("quench", "--omega-initial-over-pi") * math.pi,
    "phase": _arg("quench", "--omega-final-over-pi") * math.pi,
    "periods": int(_arg("quench", "--periods")),
    "samples_per_period": int(_arg("quench", "--samples-per-period")),
}

SWEEP_COLUMNS = (
    "param", "gamma", "g_tilde", "E0_level", "E1_level", "deltaE", "P0", "PN", "Q",
    "Qbar_loss", "iters", "residual",
)


# ---------------------------------------------------------------- reading


def read_sweep_csv(path: str) -> list[dict]:
    """Data rows of a sweep CSV; a row the CLI flagged with an error comment
    gets an `error` entry."""
    rows, errors = [], {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# point ") and " error: " in line:
                index = int(line.split()[2])
                errors[index] = line.split(" error: ", 1)[1]
            elif line and not line.startswith("#"):
                rows.append(dict(zip(SWEEP_COLUMNS, (float(v) for v in line.split(",")))))
    for index, message in errors.items():
        if index < len(rows):
            rows[index]["error"] = message
    return rows


def read_quench(trace_path: str, report_path: str) -> tuple[np.ndarray, dict]:
    """(t, P_K0, norm) rows of the dynamics CSV, and its JSON report."""
    values = []
    with open(trace_path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                values.append([float(v) for v in line.split(",")])
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    return np.array(values, dtype=float).reshape(-1, 3), report


# ---------------------------------------------------------------- references


def sweep_references(workload: str) -> dict:
    from ringflow.oracles import tg_momentum_distribution
    from ringflow.single_particle import levels, tg_gap

    if workload == "crossing_sweep":
        sp = levels(FIG2["barrier"], math.pi, 2).energies
        return {
            "grid": np.geomspace(*FIG2["grid"]),
            "sp_gap": float(sp[1] - sp[0]),
            "tg_gap": tg_gap(FIG2["atoms"], FIG2["barrier"]),
            "binomial_p": 0.5 ** FIG2["atoms"],
            "qbar_tg": tg_momentum_distribution(FIG2["atoms"]).loss_quality,
        }
    odd = [n for n in SCAN["atoms"] if n % 2]
    return {
        "grid": np.array(SCAN["atoms"], dtype=float),
        "tg_gap": {n: tg_gap(n, SCAN["barrier"]) for n in odd},
        "qbar_tg": {n: tg_momentum_distribution(n).loss_quality for n in odd},
    }


def _apply(occ: list[int], ops, offset: int) -> tuple[float, tuple]:
    """Apply ladder operators, rightmost first: ops lists (creation?, k)."""
    occ = list(occ)
    amp = 1.0
    for create, k in ops:
        p = k - offset
        if create:
            occ[p] += 1
            amp *= math.sqrt(occ[p])
        else:
            if occ[p] == 0:
                return 0.0, ()
            amp *= math.sqrt(occ[p])
            occ[p] -= 1
    return amp, tuple(occ)


def dense_hamiltonian(n_atoms, n_modes, g_tilde, barrier, phase) -> tuple[np.ndarray, np.ndarray]:
    """H = sum_k (k - Omega/2pi)^2 n_k + b sum_{k1,k2} a+_{k1} a_{k2}
    + (g_tilde/2) sum a+_{k1} a+_{k2} a_{k1-q} a_{k2+q}, all four modes in the
    window {-r/2+1, ..., r/2}; also returns the total momentum of each state."""
    window = list(range(-n_modes // 2 + 1, n_modes // 2 + 1))
    offset = window[0]
    states = []
    for multiset in itertools.combinations_with_replacement(window, n_atoms):
        occ = [0] * n_modes
        for k in multiset:
            occ[k - offset] += 1
        states.append(tuple(occ))
    index = {s: i for i, s in enumerate(states)}
    a = phase / (2.0 * math.pi)
    h = np.zeros((len(states), len(states)))
    for j, s in enumerate(states):
        h[j, j] += sum((k - a) ** 2 * n for k, n in zip(window, s))
        for k1, k2 in itertools.product(window, window):
            amp, t = _apply(s, [(False, k2), (True, k1)], offset)
            if amp:
                h[index[t], j] += barrier * amp
            for q in range(k1 - window[-1], k1 - offset + 1):
                if not offset <= k2 + q <= window[-1]:
                    continue
                ops = [(False, k2 + q), (False, k1 - q), (True, k2), (True, k1)]
                amp, t = _apply(s, ops, offset)
                if amp:
                    h[index[t], j] += 0.5 * g_tilde * amp
    total_k = np.array([sum(k * n for k, n in zip(window, s)) for s in states])
    return h, total_k


def quench_reference() -> dict:
    from ringflow.params import rescale_interaction

    q = QUENCH
    g_tilde = rescale_interaction(q["interaction"], q["modes"]).g_tilde
    h_pre, total_k = dense_hamiltonian(q["atoms"], q["modes"], g_tilde, q["barrier"], q["phase_initial"])
    h_post, _ = dense_hamiltonian(q["atoms"], q["modes"], g_tilde, q["barrier"], q["phase"])
    psi0 = np.linalg.eigh(h_pre)[1][:, 0]
    energies, vectors = np.linalg.eigh(h_post)
    return {
        "delta_e": float(energies[1] - energies[0]),
        "energies": energies,
        "vectors": vectors,
        "coefficients": vectors.T @ psi0,
        "k0": total_k == 0,
        "symmetry_error": float(np.max(np.abs(h_post - h_post.T))),
    }


def exact_p_k0(ref: dict, times: np.ndarray) -> np.ndarray:
    """P(K=0) of V exp(-iEt) V^T psi0 at each time."""
    phases = np.exp(-1j * np.outer(times, ref["energies"])) * ref["coefficients"]
    amplitudes = phases @ ref["vectors"][ref["k0"]].T
    return np.sum(np.abs(amplitudes) ** 2, axis=1)


# ---------------------------------------------------------------- checks


def _rel(value: float, reference: float) -> float:
    return abs(value / reference - 1.0)


def _match(rows: list[dict], grid: np.ndarray) -> list[dict | None]:
    found = []
    for value in grid:
        hits = [r for r in rows if abs(r["param"] - value) <= 1e-9 * abs(value)]
        found.append(hits[0] if hits else None)
    return found


def _row_problems(row: dict | None) -> list[str]:
    if row is None:
        return ["missing row"]
    if "error" in row:
        return [f"error: {row['error']}"]
    problems = []
    bad = [c for c in SWEEP_COLUMNS if not math.isfinite(row[c])]
    if bad:
        problems.append(f"non-finite {','.join(bad)}")
    elif row["residual"] > SOLVER_TOL:
        problems.append(f"residual {row['residual']:.3g} above {SOLVER_TOL:g}")
    elif not row["deltaE"] > 0:
        problems.append(f"deltaE {row['deltaE']:.6g} not positive")
    return problems


def check_crossing(rows: list[dict], ref: dict) -> list[list[str]]:
    found = _match(rows, ref["grid"])
    fails = [_row_problems(row) for row in found]
    first, last = (0, found[0]), (len(found) - 1, found[-1])
    if not fails[first[0]]:
        i, row = first
        if _rel(row["deltaE"], ref["sp_gap"]) > GAP_RTOL:
            fails[i].append(f"deltaE {row['deltaE']:.6g} vs single-particle gap {ref['sp_gap']:.6g}")
        for column in ("P0", "PN"):
            if _rel(row[column], ref["binomial_p"]) > PK_RTOL:
                fails[i].append(f"{column} {row[column]:.6g} vs binomial {ref['binomial_p']:.6g}")
    if not fails[last[0]]:
        i, row = last
        if _rel(row["deltaE"], ref["tg_gap"]) > GAP_RTOL:
            fails[i].append(f"deltaE {row['deltaE']:.6g} vs tg_gap {ref['tg_gap']:.6g}")
        if abs(row["Qbar_loss"] - ref["qbar_tg"]) > QBAR_TG_ATOL_FIG2:
            fails[i].append(f"Qbar {row['Qbar_loss']:.6g} vs hard-core {ref['qbar_tg']:.6g}")
    if not any(fails):
        gaps = [row["deltaE"] for row in found]
        i = int(np.argmin(gaps))
        g = found[i]["param"]
        if not (0 < i < len(gaps) - 1 and MIN_GAP_WINDOW[0] <= g <= MIN_GAP_WINDOW[1]):
            fails[i].append(f"smallest deltaE at g={g:.4g}, outside {MIN_GAP_WINDOW}")
    return fails


def check_atom_scan(rows: list[dict], ref: dict) -> list[list[str]]:
    found = _match(rows, ref["grid"])
    fails = [_row_problems(row) for row in found]
    for i, row in enumerate(found):
        if fails[i]:
            continue
        n = int(row["param"])
        if n in ref["tg_gap"]:
            if _rel(row["deltaE"], ref["tg_gap"][n]) > GAP_RTOL:
                fails[i].append(f"N={n}: deltaE {row['deltaE']:.6g} vs tg_gap {ref['tg_gap'][n]:.6g}")
            if abs(row["Qbar_loss"] - ref["qbar_tg"][n]) > QBAR_TG_ATOL_SCAN:
                fails[i].append(f"N={n}: Qbar {row['Qbar_loss']:.6g} vs hard-core {ref['qbar_tg'][n]:.6g}")
        if i > 0 and not fails[i - 1] and not row["Qbar_loss"] > found[i - 1]["Qbar_loss"]:
            fails[i].append(f"N={n}: Qbar {row['Qbar_loss']:.6g} does not rise with N")
    return fails


def check_quench(trace: np.ndarray, report: dict, ref: dict) -> list[list[str]]:
    problems = []
    samples = QUENCH["periods"] * QUENCH["samples_per_period"] + 1
    delta = report.get("deltaE_solver", math.nan)
    if not abs(delta - ref["delta_e"]) <= QUENCH_DELTA_ATOL:
        problems.append(f"deltaE {delta!r} vs exact {ref['delta_e']!r}")
    if trace.shape[0] != samples:
        problems.append(f"{trace.shape[0]} trace rows, expected {samples}")
    else:
        times = np.linspace(0.0, QUENCH["periods"] * 2.0 * math.pi / ref["delta_e"], samples)
        if not np.allclose(trace[:, 0], times, rtol=1e-7, atol=0.0):
            problems.append("time grid differs from periods * 2 pi / deltaE")
        error = float(np.max(np.abs(trace[:, 1] - exact_p_k0(ref, trace[:, 0]))))
        if not error <= QUENCH_TRACE_ATOL:
            problems.append(f"P_K0 trace off the exact propagation by {error:.3g}")
        norm = float(np.max(np.abs(trace[:, 2] - 1.0)))
        if not norm <= QUENCH_DRIFT:
            problems.append(f"trace norm off 1 by {norm:.3g}")
    if not report.get("relative_deviation", math.inf) <= QUENCH_FFT_RTOL:
        problems.append(f"FFT deviation {report.get('relative_deviation')!r}")
    for key in ("norm_drift", "energy_drift"):
        if not abs(report.get(key, math.inf)) <= QUENCH_DRIFT:
            problems.append(f"{key} {report.get(key)!r}")
    return [problems]


def check_outputs(workload: str, outdir: str, ref: dict) -> list[list[str]]:
    if workload == "quench":
        trace, report = read_quench(os.path.join(outdir, "out.csv"), os.path.join(outdir, "report.json"))
        return check_quench(trace, report, ref)
    rows = read_sweep_csv(os.path.join(outdir, "out.csv"))
    if workload == "crossing_sweep":
        return check_crossing(rows, ref)
    return check_atom_scan(rows, ref)


def references(workload: str) -> dict:
    return quench_reference() if workload == "quench" else sweep_references(workload)


# ---------------------------------------------------------------- self-test


def _sweep_row(param, delta, p, qbar, residual=1e-13) -> dict:
    return {
        "param": float(param), "gamma": 1.0, "g_tilde": 1.0, "E0_level": 1.0,
        "E1_level": 1.0 + delta, "deltaE": delta, "P0": p, "PN": p, "Q": 4 * p * p,
        "Qbar_loss": qbar, "iters": 500.0, "residual": residual,
    }


def synthetic_crossing(ref: dict) -> list[dict]:
    """A plausible fig2 output made from the references alone: the ends off
    them by the deviations the solver shows, the minimum at g = 0.035."""
    grid = ref["grid"]
    gaps = 1e-4 + 0.015 * np.abs(np.log10(grid / 0.035)) / np.log10(0.035 / 1e-4)
    gaps = np.minimum(gaps, 0.0155)
    gaps[0] = ref["sp_gap"] * (1 - 0.011)
    gaps[-1] = ref["tg_gap"] * (1 + 0.017)
    qbars = np.linspace(1e-10, ref["qbar_tg"] + 0.003, grid.size)
    rows = [_sweep_row(g, d, 0.5, q) for g, d, q in zip(grid, gaps, qbars)]
    rows[0].update(P0=ref["binomial_p"] * 1.033, PN=ref["binomial_p"] * 1.033)
    return rows


def synthetic_atom_scan(ref: dict) -> list[dict]:
    qbars = {2: 0.330, 3: ref["qbar_tg"][3] - 0.0125, 4: 0.581, 5: ref["qbar_tg"][5] - 0.0096, 6: 0.696}
    gaps = {2: 0.0157, 3: ref["tg_gap"][3] * (1 - 0.019), 4: 0.0157, 5: ref["tg_gap"][5] * (1 - 0.015), 6: 0.0178}
    return [_sweep_row(n, gaps[n], 0.5, qbars[n]) for n in SCAN["atoms"]]


def synthetic_quench(ref: dict, frequency_factor: float = 1.0) -> tuple[np.ndarray, dict]:
    samples = QUENCH["periods"] * QUENCH["samples_per_period"] + 1
    times = np.linspace(0.0, QUENCH["periods"] * 2.0 * math.pi / ref["delta_e"], samples)
    p = exact_p_k0(ref, times * frequency_factor)
    trace = np.column_stack([times, p, np.ones(samples)])
    report = {
        "deltaE_solver": ref["delta_e"], "relative_deviation": 0.0046,
        "norm_drift": 1e-13, "energy_drift": 2e-13,
    }
    return trace, report


def self_test() -> bool:
    """Feed each check a good output, which must pass, and wrong outputs,
    each of which must be rejected.  Uses only the references: no solver."""
    cases = []

    def case(name, fails, expect_reject):
        rejected = any(fails)
        cases.append((name, expect_reject, rejected, [f for f in fails if f]))

    ref = sweep_references("crossing_sweep")
    good = synthetic_crossing(ref)
    case("crossing_sweep: good output", check_crossing(good, ref), False)
    for i, label in ((0, "g=1e-4"), (-1, "g=1e3")):
        for factor in (1.05, 0.95):
            rows = [dict(r) for r in good]
            rows[i]["deltaE"] *= factor
            case(f"crossing_sweep: deltaE at {label} x{factor}", check_crossing(rows, ref), True)
    case("crossing_sweep: missing row", check_crossing(good[:6] + good[7:], ref), True)
    rows = [dict(r) for r in good]
    rows[3]["residual"] = 1e-8
    case("crossing_sweep: residual above tol", check_crossing(rows, ref), True)
    rows = [dict(r) for r in good]
    rows[4]["deltaE"] = rows[5]["deltaE"] = 0.01
    case("crossing_sweep: minimum outside [0.03, 0.3]", check_crossing(rows, ref), True)
    rows = [dict(r) for r in good]
    rows[0]["P0"] = 0.05
    case("crossing_sweep: P0 off binomial", check_crossing(rows, ref), True)
    rows = [dict(r) for r in good]
    rows[-1]["Qbar_loss"] += 0.02
    case("crossing_sweep: Qbar off hard-core", check_crossing(rows, ref), True)
    rows = [dict(r) for r in good]
    rows[2]["error"] = "ConvergenceError: stalled"
    case("crossing_sweep: point error", check_crossing(rows, ref), True)

    ref = sweep_references("atom_scan")
    good = synthetic_atom_scan(ref)
    case("atom_scan: good output", check_atom_scan(good, ref), False)
    for i in (1, 3):
        for factor in (1.05, 0.95):
            rows = [dict(r) for r in good]
            rows[i]["deltaE"] *= factor
            case(f"atom_scan: deltaE at N={i + 2} x{factor}", check_atom_scan(rows, ref), True)
    rows = [dict(r) for r in good]
    rows[4]["Qbar_loss"] = rows[3]["Qbar_loss"] - 0.01
    case("atom_scan: Qbar not rising", check_atom_scan(rows, ref), True)
    rows = [dict(r) for r in good]
    rows[3]["Qbar_loss"] -= 0.03
    case("atom_scan: Qbar off hard-core at N=5", check_atom_scan(rows, ref), True)
    case("atom_scan: missing row", check_atom_scan(good[:-1], ref), True)

    ref = quench_reference()
    trace, report = synthetic_quench(ref)
    case("quench: good output", check_quench(trace, report, ref), False)
    wrong, _ = synthetic_quench(ref, frequency_factor=1.05)
    case("quench: trace at the wrong frequency", check_quench(wrong, report, ref), True)
    case("quench: missing row", check_quench(trace[:-1], report, ref), True)
    case("quench: deltaE x1.05", check_quench(trace, dict(report, deltaE_solver=ref["delta_e"] * 1.05), ref), True)
    case("quench: FFT deviation 3%", check_quench(trace, dict(report, relative_deviation=0.03), ref), True)
    case("quench: energy drift 1e-9", check_quench(trace, dict(report, energy_drift=1e-9), ref), True)

    ok = True
    for name, expect_reject, rejected, reasons in cases:
        passed = expect_reject == rejected
        ok &= passed
        verdict = "rejected" if rejected else "accepted"
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {verdict}"
              + (f" ({reasons[0][0]})" if reasons else ""))
    print(f"quench reference: dim {ref['vectors'].shape[0]}, deltaE {ref['delta_e']:.12g}, "
          f"max |H - H^T| {ref['symmetry_error']:.1e}")
    return ok
