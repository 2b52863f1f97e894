import inspect
import json
import os
import subprocess
import sys

import pytest

import ringflow


def test_every_exported_name_resolves():
    missing = [name for name in ringflow.__all__ if not hasattr(ringflow, name)]
    assert missing == []


# modules that no sweep or dynamics run reads: scipy's special functions and
# constants (`params` spells out psi' and its two SI constants), the root
# finders of the oracles and the single-particle spectrum, ARPACK and LOBPCG
# (imported by their solver on its first call), and the analytic modules of
# the other commands
NOT_LOADED_AT_START = [
    "scipy.special",
    "scipy.constants",
    "scipy.optimize",
    "scipy.sparse.linalg",
    "ringflow.noon",
    "ringflow.oracles",
    "ringflow.validate",
    "ringflow.single_particle",
]


def _fresh_json(code: str):
    """Run `code` in a fresh interpreter and parse its last line of output."""
    src = os.path.dirname(os.path.dirname(ringflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
        timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_only_what_a_run_needs():
    code = "import json, sys, ringflow.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = _fresh_json(code)
    assert [name for name in NOT_LOADED_AT_START if name in loaded] == []


def test_dynamics_run_imports_nothing_beyond_the_cli(tmp_path):
    # an import inside the quench's run path would be timed as run time
    argv = ["dynamics", "--periods", "2", "--output", str(tmp_path / "trace.csv"),
            "--report", str(tmp_path / "report.json")]
    code = (
        "import json, sys, ringflow.cli\n"
        "before = set(sys.modules)\n"
        f"code = ringflow.cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))"
    )
    assert _fresh_json(code) == [0, []]
    assert (tmp_path / "report.json").exists()


def test_dir_and_star_import_cover_every_exported_name():
    assert set(ringflow.__all__) <= set(dir(ringflow))
    namespace: dict = {}
    exec("from ringflow import *", namespace)
    assert [name for name in ringflow.__all__ if name not in namespace] == []
    from ringflow import noon, solver

    assert namespace["solve_lowest"] is solver.solve_lowest
    assert namespace["noon_validity"] is noon.noon_validity


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        ringflow.no_such_name


def test_first_access_from_threads_gives_one_object():
    # four threads resolve the name at once in a process that has not yet
    # imported the solver
    code = """
import json, sys, threading
import ringflow
assert "ringflow.solver" not in sys.modules
sys.setswitchinterval(1e-6)
start = threading.Barrier(4)
found = []
def touch():
    start.wait()
    found.append(ringflow.solve_lowest)
threads = [threading.Thread(target=touch) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
from ringflow.solver import solve_lowest
print(json.dumps([fn is solve_lowest for fn in found]))
"""
    assert _fresh_json(code) == [True] * 4


def test_builders_the_benchmark_calls_keep_their_signatures():
    # the benchmark's set-up calls these by name and times them apart from
    # the command; a renamed builder would move its work into the run time
    from ringflow import hamiltonian

    expected = {
        "build_basis": ["n_atoms", "n_modes", "dimension_cap"],
        "cached_basis": ["n_atoms", "n_modes"],
        "cached_sector_pieces": ["n_atoms", "n_modes"],
        "cached_loss_operator": ["n_atoms", "n_modes", "k"],
    }
    found = {
        name: list(inspect.signature(getattr(hamiltonian, name)).parameters)
        for name in expected
        if callable(getattr(hamiltonian, name, None))
    }
    assert found == expected
