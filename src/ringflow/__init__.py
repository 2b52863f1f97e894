"""Diagonalization and analytics for mesoscopic superpositions of circulating
states of interacting bosons on a 1D ring with a rotating barrier."""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, imported on first access so
# that `import ringflow.cli` loads only the modules a command runs
_EXPORTS = {
    name: module
    for module, names in {
        "basis": "FockBasis build_basis",
        "errors": "ConvergenceError DimensionCapError",
        "hamiltonian": "FactoredOperator build_hamiltonian loss_operator",
        "noon": "chain_elimination chain_gap_numeric noon_gap_closed_form noon_validity",
        "observables": "AngularMomentumDistribution angular_momentum_distribution "
        "loss_quality quality",
        "oracles": "bethe_ground_energy binomial_pk truncation_validation two_particle_exact",
        "params": "PhysicalRing RescaledCoupling SystemParams lieb_liniger_gamma "
        "raw_coupling rescale_interaction to_physical",
        "single_particle": "levels tg_gap tg_ground_energy",
        "solver": "EigenSolution QuenchResult lowest_eigenpairs propagate solve_lowest",
        "sweep": "SweepRecord SweepSpec run_sweep",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
