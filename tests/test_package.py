import inspect
import os
import subprocess
import sys

import ringflow


def test_every_exported_name_resolves():
    missing = [name for name in ringflow.__all__ if not hasattr(ringflow, name)]
    assert missing == []


def test_cli_import_does_not_load_scipy_optimize():
    # only the root finders of the oracles and the single-particle spectrum
    # use it, and they import it when called
    code = "import sys, ringflow.cli; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(ringflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_builders_the_benchmark_calls_keep_their_signatures():
    # the benchmark's set-up calls these by name and times them apart from
    # the command; a renamed builder would move its work into the run time
    from ringflow import hamiltonian

    expected = {
        "build_basis": ["n_atoms", "n_modes", "dimension_cap"],
        "build_pieces": ["basis"],
        "cached_basis": ["n_atoms", "n_modes"],
        "cached_pieces": ["n_atoms", "n_modes"],
        "cached_sector_pieces": ["n_atoms", "n_modes"],
        "cached_loss_operator": ["n_atoms", "n_modes", "k"],
    }
    found = {
        name: list(inspect.signature(getattr(hamiltonian, name)).parameters)
        for name in expected
        if callable(getattr(hamiltonian, name, None))
    }
    assert found == expected
