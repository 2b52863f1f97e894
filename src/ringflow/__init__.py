"""Diagonalization and analytics for mesoscopic superpositions of circulating
states of interacting bosons on a 1D ring with a rotating barrier."""

__version__ = "0.1.0"

from .basis import FockBasis, build_basis
from .errors import ConvergenceError, DimensionCapError
from .hamiltonian import FactoredOperator, build_hamiltonian, loss_operator
from .noon import (
    chain_elimination,
    chain_gap_numeric,
    noon_gap_closed_form,
    noon_validity,
)
from .observables import (
    AngularMomentumDistribution,
    angular_momentum_distribution,
    loss_quality,
    quality,
)
from .oracles import bethe_ground_energy, binomial_pk, truncation_validation, two_particle_exact
from .params import (
    PhysicalRing,
    RescaledCoupling,
    SystemParams,
    lieb_liniger_gamma,
    raw_coupling,
    rescale_interaction,
    to_physical,
)
from .single_particle import levels, tg_gap, tg_ground_energy
from .solver import (
    EigenSolution,
    QuenchResult,
    lowest_eigenpairs,
    propagate,
    solve_lowest,
)
from .sweep import SweepRecord, SweepSpec, run_sweep

__all__ = [
    "AngularMomentumDistribution",
    "ConvergenceError",
    "DimensionCapError",
    "EigenSolution",
    "FactoredOperator",
    "FockBasis",
    "PhysicalRing",
    "QuenchResult",
    "RescaledCoupling",
    "SweepRecord",
    "SweepSpec",
    "SystemParams",
    "angular_momentum_distribution",
    "bethe_ground_energy",
    "binomial_pk",
    "build_basis",
    "build_hamiltonian",
    "chain_elimination",
    "chain_gap_numeric",
    "levels",
    "lieb_liniger_gamma",
    "loss_operator",
    "loss_quality",
    "lowest_eigenpairs",
    "noon_gap_closed_form",
    "noon_validity",
    "propagate",
    "quality",
    "raw_coupling",
    "rescale_interaction",
    "run_sweep",
    "solve_lowest",
    "tg_gap",
    "tg_ground_energy",
    "to_physical",
    "truncation_validation",
    "two_particle_exact",
]
