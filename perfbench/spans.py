"""In-memory spans around the public functions of each ringflow layer.

`instrument` replaces each function in `TARGETS` by a timing wrapper at the
module attribute its callers look it up through (a caller that did
`from .solver import solve_lowest` is reached through its own module).  The
source is not changed.  A target that a later change renamed or removed is
listed by `Recorder.export` under `missing` and the run goes on without it.

`summarize` turns the exported spans into the per-layer metrics: self time
(a span's duration minus the time its direct children cover) summed per
layer, and counts read from the objects the functions return.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  Several bindings of one function share a
# span name; each call passes through exactly one of them.
TARGETS = (
    ("ringflow.hamiltonian", "build_basis", "basis.build_basis"),
    ("ringflow.hamiltonian", "build_pieces", "hamiltonian.build_pieces"),
    ("ringflow.hamiltonian", "cached_sector_pieces", "hamiltonian.cached_sector_pieces"),
    ("ringflow.solver", "cached_sector_pieces", "hamiltonian.cached_sector_pieces"),
    ("ringflow.hamiltonian", "cached_loss_operator", "hamiltonian.cached_loss_operator"),
    ("ringflow.solver", "assemble", "hamiltonian.assemble"),
    ("ringflow.solver", "assemble_sector", "hamiltonian.assemble_sector"),
    ("ringflow.dynamics", "assemble", "hamiltonian.assemble"),
    ("ringflow.sweep", "solve_lowest", "solver.solve_lowest"),
    ("ringflow.dynamics", "solve_lowest", "solver.solve_lowest"),
    ("ringflow.solver", "solve_lowest", "solver.solve_lowest"),
    ("ringflow.dynamics", "level_splitting", "solver.level_splitting"),
    ("ringflow.solver", "lowest_eigenpairs", "solver.lowest_eigenpairs"),
    ("ringflow.dynamics", "propagate", "solver.propagate"),
    ("ringflow.sweep", "angular_momentum_distribution", "observables.angular_momentum_distribution"),
    ("ringflow.sweep", "loss_quality", "observables.loss_quality"),
    ("ringflow.cli", "run_sweep", "sweep.run_sweep"),
    ("ringflow.cli", "run_quench", "dynamics.run_quench"),
    ("ringflow.cli", "write_sweep_csv", "cli.write_sweep_csv"),
    ("ringflow.cli", "write_manifest", "cli.write_manifest"),
)

# per-layer time metric -> span names whose self times it sums
LAYER_TIMES = {
    "basis.build_s": ("basis.build_basis",),
    "hamiltonian.pieces_s": ("hamiltonian.build_pieces",),
    "hamiltonian.sector_s": ("hamiltonian.cached_sector_pieces",),
    "hamiltonian.loss_ops_s": ("hamiltonian.cached_loss_operator",),
    "hamiltonian.assemble_s": ("hamiltonian.assemble", "hamiltonian.assemble_sector"),
    "solver.eigensolve_s": (
        "solver.solve_lowest", "solver.level_splitting", "solver.lowest_eigenpairs",
    ),
    "solver.propagate_s": ("solver.propagate",),
    "observables.pk_s": ("observables.angular_momentum_distribution",),
    "observables.loss_s": ("observables.loss_quality",),
    "sweep.self_s": ("sweep.run_sweep",),
    "dynamics.self_s": ("dynamics.run_quench",),
    "cli.write_s": ("cli.write_sweep_csv", "cli.write_manifest"),
    "cli.self_s": ("cli.main",),
    "setup.self_s": ("setup",),
}


class Recorder:
    """Spans (name, start, end, parent) and per-span counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
                record.update(_counts(out))
                return out

        return traced

    def export(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


def _counts(out) -> dict:
    """Counts read from a returned FockBasis, EigenSolution or QuenchResult."""
    counts = {}
    for attr, key in (
        ("iterations", "matvecs"),
        ("method", "method"),
        ("steps_taken", "steps"),
        ("rejected_steps", "rejected"),
    ):
        if hasattr(out, attr):
            counts[key] = getattr(out, attr)
    if hasattr(out, "occupations") and hasattr(out, "size"):
        counts["states"] = int(out.size)
    return counts


def instrument(recorder: Recorder) -> None:
    for module_name, attr, name in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            recorder.missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(name, fn))


def self_times(spans: list[dict]) -> list[float]:
    child_time = [0.0] * len(spans)
    for record in spans:
        if record["parent"] is not None:
            child_time[record["parent"]] += record["end"] - record["start"]
    return [r["end"] - r["start"] - c for r, c in zip(spans, child_time)]


def summarize(trace: dict, import_s: float, build_rss_mb: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    spans = trace["spans"]
    own = self_times(spans)
    metrics = {
        layer: sum(t for r, t in zip(spans, own) if r["name"] in names)
        for layer, names in LAYER_TIMES.items()
    }
    metrics["setup.import_s"] = import_s
    metrics["hamiltonian.build_rss_mb"] = build_rss_mb

    def spans_named(name):
        return [r for r in spans if r["name"] == name]

    metrics["basis.states"] = sum(r.get("states", 0) for r in spans_named("basis.build_basis"))
    solves = spans_named("solver.lowest_eigenpairs")
    metrics["solver.solves"] = len(solves)
    metrics["solver.matvecs"] = sum(r.get("matvecs", 0) for r in solves)
    krylov = [r for r in solves if r.get("method") == "lanczos"]
    krylov_matvecs = sum(r["matvecs"] for r in krylov)
    metrics["solver.ms_per_matvec"] = (
        1e3 * sum(r["end"] - r["start"] for r in krylov) / krylov_matvecs
        if krylov_matvecs
        else 0.0
    )
    props = spans_named("solver.propagate")
    steps = sum(r.get("steps", 0) for r in props)
    rejected = sum(r.get("rejected", 0) for r in props)
    metrics["solver.prop_steps"] = steps
    metrics["solver.prop_rejected"] = rejected
    metrics["solver.prop_accept_ratio"] = steps / (steps + rejected) if steps else 0.0
    return metrics
