import math

import pytest

from ringflow.params import SystemParams, interaction_for_gamma
from ringflow.solver import solve_lowest
from ringflow.sweep import fig2_spec, run_sweep


@pytest.fixture(scope="session")
def fig2_records():
    """The full splitting-vs-interaction scan (N=5, r=20); shared because it
    is the expensive artifact most acceptance criteria read from."""
    return run_sweep(fig2_spec())


@pytest.fixture(scope="session")
def tg_params():
    """Hard-core operating point gamma = 200 at N=5, r=20."""
    return SystemParams(
        n_atoms=5,
        n_modes=20,
        interaction=interaction_for_gamma(200.0, 5),
        barrier=0.008,
        phase=math.pi,
    )


@pytest.fixture(scope="session")
def tg_solution(tg_params):
    """The lowest pair at `tg_params`, solved once for the tests that read it."""
    return solve_lowest(tg_params)
