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
