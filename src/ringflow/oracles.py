"""Independent exact references used to validate the diagonalization core.

Four families: the closed-form two-particle ground energy on the barrier-free
ring, the Lieb-Liniger Bethe ansatz for small N, the binomial total-momentum
distribution of the ideal condensate at the crossing, and the hard-core
(Tonks-Girardeau) momentum distribution from Lenard's formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .observables import AngularMomentumDistribution

TG_K_MAX = 128  # momentum cutoff of the hard-core occupations (units 2*pi/L)


def two_particle_exact(g: float) -> float:
    """Exact N=2 ground energy at b=0, Omega=0, total momentum zero.

    Solves g*pi*cot(pi*z)/(2z) = 1 with E = 2*z^2 (canonical units); the
    root lies in z in (0, 1/2).  E -> g as g -> 0 and E -> 1/2 as g -> inf.
    """
    if not (g > 0 and math.isfinite(g)):
        raise ValueError(f"g must be finite and > 0, got {g!r}")
    from scipy.optimize import brentq  # here: `import ringflow.cli` need not load it

    def f(z: float) -> float:
        return g * math.pi / (2.0 * z * math.tan(math.pi * z)) - 1.0

    z = brentq(f, 1e-12, 0.5 - 1e-15, xtol=1e-16, rtol=8.9e-16)
    return 2.0 * z * z


@dataclass(frozen=True)
class TruncationReport:
    """Truncated-basis N=2 energies against the exact value."""

    interaction: float
    n_modes: int
    e_exact: float
    e_rescaled: float
    e_unscaled: float

    @property
    def rescaled_error(self) -> float:
        return abs(self.e_rescaled - self.e_exact) / abs(self.e_exact)

    @property
    def unscaled_error(self) -> float:
        return abs(self.e_unscaled - self.e_exact) / abs(self.e_exact)


def truncation_validation(g: float, n_modes: int) -> TruncationReport:
    """Run the diagonalization core at N=2, b=0 with and without rescaling."""
    from .params import SystemParams, raw_coupling, rescale_interaction
    from .solver import solve_lowest

    params = SystemParams(n_atoms=2, n_modes=n_modes, interaction=g, barrier=0.0, phase=0.0)

    def ground(coupling) -> float:
        return float(solve_lowest(params, m=1, coupling=coupling).eigenvalues[0])

    return TruncationReport(
        interaction=g,
        n_modes=n_modes,
        e_exact=two_particle_exact(g),
        e_rescaled=ground(rescale_interaction(g, n_modes)),
        e_unscaled=ground(raw_coupling(g)),
    )


@dataclass(frozen=True)
class BetheSolution:
    """Ground-state Bethe roots for N periodic bosons with contact coupling."""

    n_atoms: int
    interaction: float
    quasi_momenta: np.ndarray  # units 2*pi/L
    energy: float  # units E0
    residual: float
    iterations: int


def bethe_ground_energy(n_atoms: int, g: float) -> BetheSolution:
    """Solve the N coupled Bethe equations for the periodic ground state.

    In reduced momenta kappa_j (units 2*pi/L) the equations read
    kappa_j = I_j - (1/pi) * sum_l arctan((kappa_j - kappa_l)/(pi*g)),
    with I_j = -(N-1)/2 ... (N-1)/2, and E = sum kappa_j^2 in E0.
    Damped Newton from the free-fermion roots scaled by gamma/(gamma+2).
    """
    if not (2 <= n_atoms <= 9):
        raise ValueError(f"n_atoms must lie in 2..9, got {n_atoms}")
    if not (g > 0 and math.isfinite(g)):
        raise ValueError(f"g must be finite and > 0, got {g!r}")
    n = n_atoms
    quantum_numbers = np.arange(n) - (n - 1) / 2.0
    gamma = 2.0 * math.pi**2 * g / n
    kappa = quantum_numbers * gamma / (gamma + 2.0)
    c = math.pi * g  # arctan scale in reduced momenta

    def system(k: np.ndarray) -> np.ndarray:
        diffs = k[:, None] - k[None, :]
        return k - quantum_numbers + np.arctan(diffs / c).sum(axis=1) / math.pi

    def jacobian(k: np.ndarray) -> np.ndarray:
        diffs = k[:, None] - k[None, :]
        kernel = (c / math.pi) / (c * c + diffs * diffs)
        jac = -kernel
        jac[np.diag_indices(n)] = 1.0 + kernel.sum(axis=1) - kernel.diagonal()
        return jac

    resid = system(kappa)
    norm = float(np.max(np.abs(resid)))
    iterations = 0
    for iterations in range(1, 201):
        if norm < 1e-13:
            break
        step = np.linalg.solve(jacobian(kappa), -resid)
        lam = 1.0
        while lam >= 1e-4:
            trial = kappa + lam * step
            trial_resid = system(trial)
            trial_norm = float(np.max(np.abs(trial_resid)))
            if trial_norm < norm:
                kappa, resid, norm = trial, trial_resid, trial_norm
                break
            lam /= 2.0
        else:
            break
    if norm > 1e-10:
        raise ConvergenceError(
            f"Bethe Newton stalled at residual {norm:.3e} (N={n}, g={g})",
            residual=norm,
        )
    kappa = np.sort(kappa)
    return BetheSolution(
        n_atoms=n,
        interaction=g,
        quasi_momenta=kappa,
        energy=float(np.sum(kappa**2)),
        residual=norm,
        iterations=iterations,
    )


def binomial_pk(n_atoms: int) -> AngularMomentumDistribution:
    """P(K) = C(N,K)/2^N for N atoms condensed in the equal-weight two-mode
    single-particle ground state at the crossing."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    ks = np.arange(n_atoms + 1)
    probs = np.array([math.comb(n_atoms, int(k)) for k in ks], dtype=float)
    probs /= 2.0**n_atoms
    return AngularMomentumDistribution(momenta=ks, probabilities=probs)


@dataclass(frozen=True)
class HardCoreMomentumDistribution:
    """Tonks-Girardeau ring occupations n_k for |k| <= TG_K_MAX (units 2*pi/L)."""

    n_atoms: int
    momenta: np.ndarray
    occupations: np.ndarray

    @property
    def loss_quality(self) -> float:
        """Hard-core limit of the pre-loss Q-bar of `observables.loss_quality`.

        The crossing state is an equal superposition of the hard-core ground
        state (K = 0, occupations n_k) and its one-unit boost (K = N,
        occupations n_{k-1}).  Losing an atom from mode k leaves the branches
        with weights n_k : n_{k-1}, which gives
        Q-bar = (2/N) * sum_k n_k n_{k-1} / (n_k + n_{k-1}).
        Flat occupations (free fermions) give 1 - 1/N.
        """
        upper, lower = self.occupations[1:], self.occupations[:-1]
        return float(2.0 / self.n_atoms * np.sum(upper * lower / (upper + lower)))


def tg_momentum_distribution(n_atoms: int) -> HardCoreMomentumDistribution:
    """Momentum occupations of N hard-core bosons on the barrier-free ring.

    For odd N the mapped fermions fill the plane waves k_j = -(N-1)/2 ...
    (N-1)/2 with periodic boundary conditions.  Lenard's formula in cofactor
    form (Lenard, J. Math. Phys. 5, 930 (1964); Pezer and Buljan, PRL 98,
    240403 (2007)) gives the one-body density matrix
    rho(0, s) = sum_ij C_ij(s) exp(2*pi*i*k_j*s), where C is the cofactor
    matrix of P_ij(s) = delta_ij - 2 * int_0^s exp(2*pi*i*(k_j - k_i)*x) dx.
    rho(0, s) is entire in s on [0, 1], so Gauss-Legendre quadrature of
    n_k = int_0^1 rho(0, s) exp(-2*pi*i*k*s) ds converges exponentially.
    The occupations fall off as C/k^4; the truncation to |k| <= TG_K_MAX
    drops a weight of about 2*C/(3*TG_K_MAX^3) from the sum rule
    sum n_k = N (1.6e-6 at N = 5).
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if n_atoms % 2 == 0:
        raise ValueError(
            "tg_momentum_distribution requires odd n_atoms (the periodic "
            "fermionic filling maps onto periodic bosons only for odd N)"
        )
    n = n_atoms
    ks = np.arange(n) - (n - 1) // 2
    x, w = np.polynomial.legendre.leggauss(4 * (TG_K_MAX + n))
    s, w = 0.5 * (x + 1.0), 0.5 * w

    diff = ks[None, :] - ks[:, None]
    phase = 2j * math.pi * diff[None, :, :] * s[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        overlap = np.where(diff == 0, s[:, None, None], np.expm1(phase) / (2j * math.pi * diff))
    p = np.eye(n) - 2.0 * overlap
    cofactors = np.ones_like(p)
    if n > 1:
        for i in range(n):
            for j in range(n):
                minor = np.delete(np.delete(p, i, axis=1), j, axis=2)
                cofactors[:, i, j] = (-1) ** (i + j) * np.linalg.det(minor)
    rho = np.einsum("sij,sj->s", cofactors, np.exp(2j * math.pi * np.outer(s, ks)))

    momenta = np.arange(-TG_K_MAX, TG_K_MAX + 1)
    occupations = (np.exp(-2j * math.pi * np.outer(momenta, s)) @ (w * rho)).real
    return HardCoreMomentumDistribution(n_atoms=n, momenta=momenta, occupations=occupations)
