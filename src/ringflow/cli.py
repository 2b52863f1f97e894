"""Command-line front end: subcommands, config files, figure-data presets."""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, blas
from .basis import basis_size
from .dynamics import quench_samples, run_quench
from .errors import ConvergenceError, DimensionCapError
from .hamiltonian import cached_basis
from .observables import angular_momentum_distribution, loss_quality, quality
from .params import (
    ATOMIC_MASS_KG,
    PhysicalRing,
    SystemParams,
    lieb_liniger_gamma,
    rescale_interaction,
    to_physical,
)
from .solver import DEFAULT_SEED, DEFAULT_TOL, check_levels, solve_lowest
from .sweep import (
    SweepSpec,
    fig2_spec,
    fig3a_spec,
    linear_grid,
    log_grid,
    run_sweep,
)

# noon, single_particle and validate are imported by the handlers and checks
# that call them: no sweep or dynamics run reads them

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_DIMENSION = 4

SWEEP_COLUMNS = "param,gamma,g_tilde,E0_level,E1_level,deltaE,P0,PN,Q,Qbar_loss,iters,residual"


def fmt(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.16e}"


_PATH_KEYS = {"output", "report", "distributions_dir"}


def _digest(command: str, parameters: dict, seed: int, tol: float) -> str:
    physical = {k: v for k, v in parameters.items() if k not in _PATH_KEYS}
    blob = json.dumps(
        {"command": command, "parameters": physical, "seed": seed, "tol": tol},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def write_manifest(output_path: str, command: str, parameters: dict, seed: int, tol: float) -> str:
    digest = _digest(command, parameters, seed, tol)
    manifest = {
        "tool": "ringflow",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "tol": tol,
        "config_digest": digest,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "output": output_path,
    }
    with open(output_path + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return digest


def load_config(path: str, command: str) -> dict[str, dict[str, str]]:
    """Load an INI config with a [command] or [global] section, or a
    manifest JSON that `command` wrote."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".json") or text.lstrip().startswith("{"):
        manifest = json.loads(text)
        if manifest.get("command") != command:
            other = manifest.get("command")
            raise ValueError(f"{path} is a manifest of the {other!r} command, not of {command!r}")
        out = {command: {str(k): v for k, v in manifest.get("parameters", {}).items()}}
        for key in ("seed", "tol"):
            if key in manifest:
                out.setdefault("global", {})[key] = manifest[key]
        return out
    parser = configparser.ConfigParser()
    parser.read_string(text)
    if not parser.has_section(command) and not parser.has_section("global"):
        raise ValueError(f"{path} has no [{command}] or [global] section")
    return {name: dict(parser[name]) for name in parser.sections()}


def _coerce(key: str, value, reference):
    if value is None or reference is None:
        return value
    if isinstance(reference, bool):
        # the spellings configparser accepts, in any case (str(True) is "True")
        state = configparser.ConfigParser.BOOLEAN_STATES.get(str(value).strip().lower())
        if state is None:
            raise ValueError(f"{key} must be one of 1/yes/true/on or 0/no/false/off, got {value!r}")
        return state
    if isinstance(reference, int):
        return int(value)
    if isinstance(reference, float):
        return float(value)
    return str(value)


def resolve(command: str, defaults: dict, args: argparse.Namespace, config: dict) -> dict:
    """Defaults < config section < explicit flags."""
    section = config.get(command, {})
    resolved = {}
    for key, default in defaults.items():
        value = getattr(args, key, None)
        if value is None and key in section:
            value = _coerce(key, section[key], default)
        if value is None:
            value = default
        resolved[key] = value
    return resolved


def _print_or_write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_report(payload: dict, output: str | None) -> None:
    _print_or_write(json.dumps(payload, indent=2, sort_keys=True) + "\n", output)


def write_table(path: str, title: str, digest: str, comments, header: str, rows) -> None:
    """Write a data table: title and manifest lines, `# `-prefixed comments
    and header, then one comma-joined line per row.  String cells are written
    as they are, other cells through `fmt`."""
    lines = [f"# ringflow {__version__} {title}", f"# manifest: sha256:{digest}"]
    lines += ["# " + text for text in [*comments, header]]
    lines += [",".join(c if isinstance(c, str) else fmt(c) for c in row) for row in rows]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _system(opts: dict, phase: float) -> SystemParams:
    return SystemParams(
        n_atoms=opts["atoms"],
        n_modes=opts["modes"],
        interaction=opts["interaction"],
        barrier=opts["barrier"],
        phase=phase,
    )


# ---------------------------------------------------------------- sweep

SWEEP_DEFAULTS = {
    "figure": "",
    "param": "interaction",
    "scale": "log",
    "start": 1e-4,
    "stop": 1e3,
    "points": 60,
    "atoms": 5,
    "modes": 20,
    "interaction": 0.1,
    "barrier": 0.008,
    "phase_over_pi": 1.0,
    "gamma": 200.0,
    "rescale": True,
    "output": "",
}


GRIDS = {"log": log_grid, "linear": linear_grid}


def _choice(opts: dict, key: str, choices) -> str:
    if opts[key] not in choices:
        raise ValueError(f"unknown {key} {opts[key]!r}; expected one of {sorted(choices)}")
    return opts[key]


def _sweep_spec_from(opts: dict, seed: int, tol: float) -> tuple[SweepSpec, str]:
    grid_fn = GRIDS[_choice(opts, "scale", GRIDS)]
    figure = opts["figure"]
    if figure == "fig4":
        raise ValueError("fig4 is produced by the `noon` subcommand")
    if figure in ("fig2", "fig3"):
        spec = fig2_spec(
            n_atoms=opts["atoms"],
            n_modes=opts["modes"],
            barrier=opts["barrier"],
            points=opts["points"],
            tol=tol,
            seed=seed,
        )
        default_name = f"{figure}.csv"
    elif figure == "fig3a":
        spec = fig3a_spec(gamma=opts["gamma"], barrier=opts["barrier"], tol=tol, seed=seed)
        default_name = "fig3a.csv"
    elif figure:
        raise ValueError(f"unknown figure preset {figure!r}")
    else:
        base = _system(opts, opts["phase_over_pi"] * math.pi)
        spec = SweepSpec(
            parameter=opts["param"],
            grid=grid_fn(opts["start"], opts["stop"], opts["points"]),
            base=base,
            tol=tol,
            seed=seed,
        )
        default_name = f"sweep_{opts['param']}.csv"
    spec = replace(spec, rescale=opts["rescale"])
    return spec, (opts["output"] or default_name)


def write_sweep_csv(path: str, spec: SweepSpec, records, digest: str) -> None:
    base = (
        f"base: N={spec.base.n_atoms} r={spec.base.n_modes} "
        f"g={fmt(spec.base.interaction)} b={fmt(spec.base.barrier)} "
        f"omega={fmt(spec.base.phase)} sweep={spec.parameter} "
        f"points={spec.grid.size} rescale={spec.rescale} "
        f"seed={spec.seed} tol={fmt(spec.tol)}"
    )
    rows = [
        (rec.value, rec.gamma, rec.g_tilde, rec.e0, rec.e1, rec.delta_e, rec.p0,
         rec.pn, rec.quality, rec.qbar_loss, rec.iterations, rec.residual)
        for rec in records
    ]
    rows += [(f"# point {i} error: {rec.error}",) for i, rec in enumerate(records) if rec.error]
    write_table(
        path, "sweep", digest,
        ["units: couplings in E0*L, energies in E0, momenta in hbar", base],
        SWEEP_COLUMNS, rows,
    )


def check_sweep(opts: dict, gopts: dict) -> dict:
    spec, output = _sweep_spec_from(opts, gopts["seed"], gopts["tol"])
    return {"resolved_output": output, "grid_head": [float(v) for v in spec.grid[:3]]}


def handle_sweep(opts: dict, gopts: dict) -> int:
    spec, output = _sweep_spec_from(opts, gopts["seed"], gopts["tol"])
    records = run_sweep(spec)
    if records and all(rec.error for rec in records):
        # per-point capture is for partial failures; a fully failed sweep
        # re-raises its first failure, which sets the exit code
        raise records[0].exception
    digest = write_manifest(output, "sweep", opts, gopts["seed"], gopts["tol"])
    write_sweep_csv(output, spec, records, digest)
    print(f"wrote {output} ({len(records)} points)")
    return EXIT_OK


# ---------------------------------------------------------------- spectrum

SPECTRUM_DEFAULTS = {
    "method": "ed",
    "atoms": 3,
    "modes": 8,
    "interaction": 1.0,
    "barrier": 0.008,
    "levels": 4,
    "omega_start": 0.85,
    "omega_stop": 1.15,
    "omega_points": 31,
    "allow_even": False,
    "max_iterations": 0,
    "output": "",
}


def check_spectrum(opts: dict, gopts: dict) -> None:
    from .single_particle import tg_spectrum

    _choice(opts, "method", ("ed", "tg"))
    if opts["omega_points"] < 1:
        raise ValueError(f"omega_points must be >= 1, got {opts['omega_points']}")
    m = opts["levels"]
    for w in (opts["omega_start"], opts["omega_stop"]):  # the grid lies between its ends
        if opts["method"] == "tg":
            tg_spectrum(opts["atoms"], opts["barrier"], w * math.pi, m, opts["allow_even"])
        else:
            params = _system(opts, w * math.pi)
            check_levels(m, basis_size(params.n_atoms, params.n_modes))


def handle_spectrum(opts: dict, gopts: dict) -> int:
    from .single_particle import tg_spectrum

    omegas = np.linspace(opts["omega_start"], opts["omega_stop"], opts["omega_points"])
    m = opts["levels"]
    rows = []
    for w in omegas:
        if opts["method"] == "tg":
            vals = tg_spectrum(
                opts["atoms"], opts["barrier"], w * math.pi, m, allow_even=opts["allow_even"]
            )
        else:
            vals = solve_lowest(
                _system(opts, w * math.pi), m=m, tol=gopts["tol"], seed=gopts["seed"],
                max_iterations=opts["max_iterations"] or None,
            ).eigenvalues
        rows.append((w, *vals))
    output = opts["output"] or f"spectrum_{opts['method']}.csv"
    digest = write_manifest(output, "spectrum", opts, gopts["seed"], gopts["tol"])
    header = "omega_over_pi," + ",".join(f"level_{i}" for i in range(m))
    write_table(
        output, f"spectrum ({opts['method']})", digest, ["energies in E0"], header, rows
    )
    print(f"wrote {output} ({len(rows)} phases)")
    return EXIT_OK


# ---------------------------------------------------------------- single-particle

SP_DEFAULTS = {
    "barrier": 0.008,
    "omega_over_pi": 1.0,
    "count": 8,
    "tg_atoms": 0,
    "allow_even": False,
    "output": "",
}


def check_single_particle(opts: dict, gopts: dict) -> None:
    from .single_particle import levels, tg_gap

    if opts["tg_atoms"]:
        tg_gap(opts["tg_atoms"], opts["barrier"], allow_even=opts["allow_even"])
    else:
        levels(opts["barrier"], opts["omega_over_pi"] * math.pi, opts["count"])


def handle_single_particle(opts: dict, gopts: dict) -> int:
    from .single_particle import levels, tg_gap, tg_ground_energy

    if opts["tg_atoms"]:
        n = opts["tg_atoms"]
        payload = {
            "n_atoms": n,
            "barrier": opts["barrier"],
            "tg_gap_E0": tg_gap(n, opts["barrier"], allow_even=opts["allow_even"]),
            "tg_ground_energy_E0": tg_ground_energy(n, opts["barrier"]),
            "max_gap_limit_E0": n / 2 + 0.25,
        }
        _json_report(payload, opts["output"] or None)
        return EXIT_OK
    sol = levels(opts["barrier"], opts["omega_over_pi"] * math.pi, opts["count"])
    lines = [
        f"# ringflow {__version__} single-particle levels",
        f"# b={fmt(opts['barrier'])} omega={fmt(sol.phase)}",
        "# mu,alpha,energy_E0",
    ]
    for mu, (alpha, eps) in enumerate(zip(sol.roots, sol.energies)):
        lines.append(f"{mu},{fmt(alpha)},{fmt(eps)}")
    _print_or_write("\n".join(lines) + "\n", opts["output"] or None)
    return EXIT_OK


# ---------------------------------------------------------------- noon

NOON_DEFAULTS = {
    "atoms_min": 2,
    "atoms_max": 8,
    "barrier": 0.008,
    "interaction": 0.0,  # 0 means: use the gap-scaling rule g = 4*pi*b*sqrt(N)/(N-1)
    "with_ed": False,
    "ed_max_atoms": 5,
    "ed_modes": 20,
    "output": "",
}


def check_noon(opts: dict, gopts: dict) -> None:
    from .noon import fig4_interaction, noon_gap_closed_form, noon_validity

    if opts["atoms_max"] < opts["atoms_min"]:
        raise ValueError(
            f"empty atom range: atoms_max {opts['atoms_max']} < atoms_min {opts['atoms_min']}"
        )
    # N >= 2 and g > 0 hold on every row if on the first, and ED runs on it if on any
    n, b = opts["atoms_min"], opts["barrier"]
    g = opts["interaction"] or fig4_interaction(n, b)
    noon_gap_closed_form(n, g, b)
    noon_validity(n, g, b)
    if opts["with_ed"] and n <= opts["ed_max_atoms"]:
        SystemParams(n_atoms=n, n_modes=opts["ed_modes"], interaction=g, barrier=b)


def handle_noon(opts: dict, gopts: dict) -> int:
    from .noon import chain_gap_numeric, fig4_interaction, noon_gap_closed_form, noon_validity

    rows = []
    for n in range(opts["atoms_min"], opts["atoms_max"] + 1):
        g = opts["interaction"] or fig4_interaction(n, opts["barrier"])
        closed = noon_gap_closed_form(n, g, opts["barrier"])
        chain = chain_gap_numeric(n, g, opts["barrier"])
        validity = noon_validity(n, g, opts["barrier"])
        ed = math.nan
        if opts["with_ed"] and n <= opts["ed_max_atoms"]:
            params = SystemParams(
                n_atoms=n,
                n_modes=opts["ed_modes"],
                interaction=g,
                barrier=opts["barrier"],
                phase=math.pi,
            )
            solution = solve_lowest(params, tol=gopts["tol"], seed=gopts["seed"])
            ed = float(solution.eigenvalues[1] - solution.eigenvalues[0])
        rows.append((n, g, closed, chain, chain / closed, ed, validity.ratio_barrier,
                     validity.ratio_interaction, str(validity.condition_met)))
    output = opts["output"] or "fig4.csv"
    digest = write_manifest(output, "noon", opts, gopts["seed"], gopts["tol"])
    write_table(
        output, "noon gap scaling", digest, [f"b={fmt(opts['barrier'])}; energies in E0"],
        "n_atoms,interaction,gap_closed_form,gap_chain,chain_over_closed,"
        "gap_ed,ratio_barrier,ratio_interaction,condition_met",
        rows,
    )
    print(f"wrote {output} ({len(rows)} atom numbers)")
    return EXIT_OK


# ---------------------------------------------------------------- loss

LOSS_DEFAULTS = {
    "atoms": 3,
    "modes": 8,
    "interaction": 1.0,
    "barrier": 0.008,
    "phase_over_pi": 1.0,
    "distributions_dir": "",
    "output": "",
}


def _write_distribution(path: str, dist, header: str) -> None:
    lines = [f"# {header}", "# K,P"]
    for k, p in zip(dist.momenta, dist.probabilities):
        lines.append(f"{int(k)},{fmt(p)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_loss(opts: dict, gopts: dict) -> None:
    if _system(opts, opts["phase_over_pi"] * math.pi).n_atoms < 2:
        raise ValueError(f"the loss of one atom needs n_atoms >= 2, got {opts['atoms']}")


def handle_loss(opts: dict, gopts: dict) -> int:
    params = _system(opts, opts["phase_over_pi"] * math.pi)
    coupling = rescale_interaction(params.interaction, params.n_modes)
    solution = solve_lowest(params, coupling=coupling, tol=gopts["tol"], seed=gopts["seed"])
    keep = bool(opts["distributions_dir"])
    ground = solution.eigenvectors[:, 0]
    basis = cached_basis(params.n_atoms, params.n_modes)
    basis_nm1 = cached_basis(params.n_atoms - 1, params.n_modes)
    dist = angular_momentum_distribution(ground, basis)
    loss = loss_quality(ground, basis, basis_nm1, keep_distributions=keep)
    loss_post = loss_quality(ground, basis, basis_nm1, post_loss_weights=True)
    payload = {
        "n_atoms": params.n_atoms,
        "n_modes": params.n_modes,
        "interaction": params.interaction,
        "g_tilde": coupling.g_tilde,
        "barrier": params.barrier,
        "phase": params.phase,
        "gamma": lieb_liniger_gamma(params),
        "E0_level": float(solution.eigenvalues[0]),
        "E1_level": float(solution.eigenvalues[1]),
        "deltaE": float(solution.eigenvalues[1] - solution.eigenvalues[0]),
        "P0": dist.p_of(0),
        "PN": dist.p_of(params.n_atoms),
        "Q": quality(dist, 0, params.n_atoms),
        "qbar_pre_loss_weights": loss.qbar,
        "qbar_post_loss_weights": loss_post.qbar,
        "weighting_note": (
            "pre-loss weighting is the default (weights sum to 1); the "
            "post-loss variant is reported for comparison"
        ),
        "modes": [
            {"k": e.k, "occupation": e.occupation, "quality": e.quality, "weight": e.weight}
            for e in loss.entries
        ],
    }
    if keep:
        os.makedirs(opts["distributions_dir"], exist_ok=True)
        _write_distribution(
            os.path.join(opts["distributions_dir"], "ground.csv"), dist, "ground state P(K)"
        )
        for entry in loss.entries:
            if entry.distribution is not None:
                _write_distribution(
                    os.path.join(opts["distributions_dir"], f"loss_k{entry.k}.csv"),
                    entry.distribution,
                    f"P(K) after losing one atom from k={entry.k}",
                )
    _json_report(payload, opts["output"] or None)
    return EXIT_OK


# ---------------------------------------------------------------- dynamics

DYNAMICS_DEFAULTS = {
    "atoms": 3,
    "modes": 8,
    "interaction": 1.0,
    "barrier": 0.008,
    "omega_initial_over_pi": 0.9,
    "omega_final_over_pi": 1.0,
    "periods": 20.0,
    "samples_per_period": 48,
    "output": "",
    "report": "",
}


def check_dynamics(opts: dict, gopts: dict) -> None:
    _system(opts, opts["omega_initial_over_pi"] * math.pi)
    _system(opts, opts["omega_final_over_pi"] * math.pi)
    quench_samples(opts["periods"], opts["samples_per_period"])


def handle_dynamics(opts: dict, gopts: dict) -> int:
    report = run_quench(
        _system(opts, opts["omega_final_over_pi"] * math.pi),
        phase_initial=opts["omega_initial_over_pi"] * math.pi,
        periods=opts["periods"],
        samples_per_period=opts["samples_per_period"],
        tol=gopts["tol"],
        seed=gopts["seed"],
    )
    output = opts["output"] or "dynamics.csv"
    digest = write_manifest(output, "dynamics", opts, gopts["seed"], gopts["tol"])
    result = report.result
    write_table(
        output, "quench trace", digest, ["time in hbar/E0"], "t,P_K0,norm",
        zip(result.times, report.traces["P_K0"], result.norms),
    )
    payload = {
        "deltaE_solver": report.delta_e,
        "fft_peak": report.fft_peak,
        "relative_deviation": report.relative_deviation,
        "norm_drift": report.norm_drift,
        "energy_drift": report.energy_drift,
        "truncated_weight": result.truncated_weight,
        "method": result.method,
        "trace_file": output,
    }
    _json_report(payload, opts["report"] or None)
    return EXIT_OK


# ---------------------------------------------------------------- units

UNITS_DEFAULTS = {
    "atoms": 100,
    "species": "mass=7u",
    "mass_kg": 0.0,
    "radius": 50e-6,
    "deltaE": 25.0,
    "phase_over_pi": 1.0,
    "output": "",
}


def _parse_species(spec: str) -> float:
    match = re.fullmatch(r"mass=([0-9eE.+-]+)(u|kg)", spec.strip())
    if not match:
        raise ValueError(f"cannot parse species {spec!r}; expected mass=<value>u or mass=<value>kg")
    value = float(match.group(1))
    return value * ATOMIC_MASS_KG if match.group(2) == "u" else value


def _units_inputs(opts: dict) -> tuple[PhysicalRing, SystemParams]:
    mass = opts["mass_kg"] or _parse_species(opts["species"])
    ring = PhysicalRing(atom_mass=mass, ring_radius=opts["radius"])
    params = SystemParams(
        n_atoms=opts["atoms"], n_modes=2, phase=opts["phase_over_pi"] * math.pi
    )
    return ring, params


def check_units(opts: dict, gopts: dict) -> None:
    _units_inputs(opts)


def handle_units(opts: dict, gopts: dict) -> int:
    ring, params = _units_inputs(opts)
    _json_report(to_physical(params, ring, opts["deltaE"]), opts["output"] or None)
    return EXIT_OK


# ---------------------------------------------------------------- validate

VALIDATE_DEFAULTS = {"output": ""}


def handle_validate(opts: dict, gopts: dict) -> int:
    from .validate import run_validation

    report = run_validation(verbose_print=print)
    if opts["output"]:
        _json_report(report, opts["output"])
    return EXIT_OK if report["all_passed"] else 1


# ---------------------------------------------------------------- parser

# each command's defaults, input check and handler; the check runs first in
# its dry run and its real run alike, and one that returns a dict adds
# resolved values to the dry run
COMMANDS = {
    "sweep": (SWEEP_DEFAULTS, check_sweep, handle_sweep),
    "spectrum": (SPECTRUM_DEFAULTS, check_spectrum, handle_spectrum),
    "single-particle": (SP_DEFAULTS, check_single_particle, handle_single_particle),
    "noon": (NOON_DEFAULTS, check_noon, handle_noon),
    "loss": (LOSS_DEFAULTS, check_loss, handle_loss),
    "dynamics": (DYNAMICS_DEFAULTS, check_dynamics, handle_dynamics),
    "units": (UNITS_DEFAULTS, check_units, handle_units),
    "validate": (VALIDATE_DEFAULTS, None, handle_validate),
}


def _add_flags(parser: argparse.ArgumentParser, defaults: dict) -> None:
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(default, bool):
            group = parser.add_mutually_exclusive_group()
            group.add_argument(flag, dest=key, action="store_true", default=None)
            group.add_argument(
                "--no-" + key.replace("_", "-"), dest=key, action="store_false", default=None
            )
        elif isinstance(default, int):
            parser.add_argument(flag, dest=key, type=int, default=None)
        elif isinstance(default, float):
            parser.add_argument(flag, dest=key, type=float, default=None)
        else:
            parser.add_argument(flag, dest=key, type=str, default=None)


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps subparser defaults from clobbering values parsed before
    # the subcommand name (global flags work in either position)
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--seed", type=int, help="solver start-vector seed")
    shared.add_argument("--tol", type=float, help="eigensolver tolerance")
    shared.add_argument("--config", type=str, help="INI config or manifest JSON")
    shared.add_argument(
        "--json-errors", dest="json_errors", action="store_const", const=True,
        help="machine-readable errors",
    )
    shared.add_argument(
        "--dry-run", dest="dry_run", action="store_const", const=True,
        help="print the resolved spec and exit",
    )
    parser = argparse.ArgumentParser(
        prog="ringflow",
        parents=[shared],
        description=(
            "Diagonalization and analytics for superpositions of circulating "
            "states of interacting bosons on a barrier ring"
        ),
    )
    parser.add_argument("--version", action="version", version=f"ringflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (defaults, _, _) in COMMANDS.items():
        sp = sub.add_parser(name, parents=[shared])
        _add_flags(sp, defaults)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command on one BLAS thread, so that its outputs do not depend
    on the thread count; the caller's counts are restored on return."""
    parser = build_parser()
    args = parser.parse_args(argv)
    json_errors = bool(getattr(args, "json_errors", False))
    with blas.one_thread():
        try:
            config_path = getattr(args, "config", None)
            config = load_config(config_path, args.command) if config_path else {}
            gsection = config.get("global", {})
            seed = getattr(args, "seed", None)
            tol = getattr(args, "tol", None)
            gopts = {
                "seed": seed if seed is not None else int(gsection.get("seed", DEFAULT_SEED)),
                "tol": tol if tol is not None else float(gsection.get("tol", DEFAULT_TOL)),
                "dry_run": bool(getattr(args, "dry_run", False)),
            }
            defaults, check, handler = COMMANDS[args.command]
            opts = resolve(args.command, defaults, args, config)
            resolved = check(opts, gopts) if check else None
            if gopts["dry_run"]:
                digest = _digest(args.command, opts, gopts["seed"], gopts["tol"])
                payload = {"command": args.command, "parameters": {**opts, **(resolved or {})}}
                _json_report({**payload, "config_digest": digest}, None)
                return EXIT_OK
            return handler(opts, gopts)
        except DimensionCapError as exc:
            _report_error(exc, EXIT_DIMENSION, json_errors)
            return EXIT_DIMENSION
        except ConvergenceError as exc:
            _report_error(exc, EXIT_CONVERGENCE, json_errors)
            return EXIT_CONVERGENCE
        except (ValueError, OSError, KeyError, configparser.Error, json.JSONDecodeError) as exc:
            _report_error(exc, EXIT_USAGE, json_errors)
            return EXIT_USAGE


def _report_error(exc: Exception, code: int, json_errors: bool) -> None:
    if json_errors:
        print(
            json.dumps({"error": str(exc), "type": type(exc).__name__, "exit_code": code}),
            file=sys.stderr,
        )
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
