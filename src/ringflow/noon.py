"""Two-mode chain model for the NOON regime.

When only the k = 0 and k = 1 modes matter, the states |N-n, n> form an
(N+1)-site chain with diagonal t_n = g*n*(N-n) and hopping
V_{n,n+1} = b*sqrt((N-n)(n+1)) (canonical units).  The endpoints n = 0 and
n = N are degenerate and couple only through the interior, which can be
eliminated exactly; evaluated at lambda = t_0 the reduced 2x2 system gives
the closed-form splitting 2*b^N*N/(g^{N-1}*(N-1)!).

The chain splitting is the b -> 0 limit of the full Hamiltonian at fixed g/b.
It leaves out interaction-assisted paths through the modes k = -1 and k = 2,
whose relative size is about g^2/b, so the leading correction scales as g^2/b
(proportional to b along the fig4 rule).  At N = 5 on that rule the full
diagonalization exceeds the chain by 33x at b = 0.008 (g^2/b = 0.40) and by
1.26x at b = 2.5e-4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

POLE_GUARD = 1e-12


@dataclass(frozen=True)
class ChainModel:
    """Tridiagonal two-mode chain for N atoms."""

    n_atoms: int
    diagonal: np.ndarray  # t_n = g*n*(N-n), n = 0..N
    hopping: np.ndarray  # V_{n,n+1} = b*sqrt((N-n)(n+1)), n = 0..N-1


def chain_model(n_atoms: int, g: float, b: float) -> ChainModel:
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    n = n_atoms
    sites = np.arange(n + 1)
    diagonal = g * sites * (n - sites)
    hopping = b * np.sqrt((n - sites[:-1]) * (sites[:-1] + 1.0))
    return ChainModel(n_atoms=n, diagonal=diagonal.astype(float), hopping=hopping)


def chain_gap_numeric(n_atoms: int, g: float, b: float) -> float:
    """Splitting of the two lowest chain eigenvalues (dense tridiagonal solve)."""
    if n_atoms >= 2 and g <= 0:
        raise ValueError("g must be > 0 for N >= 2 (interior sites need a gap)")
    model = chain_model(n_atoms, g, b)
    vals = eigh_tridiagonal(
        model.diagonal, model.hopping, select="i", select_range=(0, 1)
    )[0]
    return float(vals[1] - vals[0])


def noon_gap_closed_form(n_atoms: int, g: float, b: float) -> float:
    """Closed-form NOON splitting 2*b^N*N/(g^{N-1}*(N-1)!).

    Dominated by the inverse factorial at large N, hence shrinking faster
    than exponentially with atom number.
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if not (g > 0 and math.isfinite(g)):
        raise ValueError(f"g must be finite and > 0, got {g!r}")
    if not (b > 0 and math.isfinite(b)):
        raise ValueError(f"b must be finite and > 0, got {b!r}")
    n = n_atoms
    return 2.0 * b**n * n / (g ** (n - 1) * math.factorial(n - 1))


@dataclass(frozen=True)
class ChainElimination:
    """Reduced two-level system after eliminating the interior of the chain."""

    effective_coupling: float  # V(lambda)
    effective_diagonal: float  # t(lambda) = t_0 - A_N * V(lambda)
    tail_correction: float  # A_N


def chain_elimination(n_atoms: int, g: float, b: float, lam: float) -> ChainElimination:
    """Eliminate interior chain sites at fixed trial energy lambda.

    V(lambda) = prod V_{n,n+1} / prod_{n=1}^{N-1} (lambda - t_n) and
    t(lambda) = t_0 - A_N V(lambda), with A_N from the three-term recursion
    started at A_1 = 0.  The splitting of the reduced system evaluated at
    lambda = t_0 reproduces the closed form exactly.
    """
    model = chain_model(n_atoms, g, b)
    n = n_atoms
    t = model.diagonal
    v = model.hopping
    for i in range(1, n):
        if abs(lam - t[i]) < POLE_GUARD:
            raise ValueError(
                f"lambda = {lam} is within {POLE_GUARD} of the interior pole t_{i} = {t[i]}"
            )

    # prefix[i] = (lam - t_0)...(lam - t_{i-1}) / (V_01 ... V_{i-1,i})
    prefix = np.ones(n + 1)
    for i in range(1, n + 1):
        prefix[i] = prefix[i - 1] * (lam - t[i - 1]) / v[i - 1]

    a_prev, a_cur = 0.0, 0.0  # A_0, A_1
    for i in range(1, n):
        a_next = (
            a_cur * (lam - t[i]) / v[i]
            - (v[i - 1] / v[i]) * prefix[i - 1]
            - a_prev * v[i - 1] / v[i]
        )
        a_prev, a_cur = a_cur, a_next
    a_n = a_cur

    coupling = float(np.prod(v)) / float(np.prod(lam - t[1:n])) if n > 1 else float(v[0])
    return ChainElimination(
        effective_coupling=coupling,
        effective_diagonal=float(t[0] - a_n * coupling),
        tail_correction=float(a_n),
    )


def reduced_levels(n_atoms: int, g: float, b: float, lam: float) -> tuple[float, float]:
    """Eigenvalues t(lambda) -/+ |V(lambda)| of the reduced 2x2 system."""
    red = chain_elimination(n_atoms, g, b, lam)
    lo = red.effective_diagonal - abs(red.effective_coupling)
    hi = red.effective_diagonal + abs(red.effective_coupling)
    return lo, hi


@dataclass(frozen=True)
class NoonValidity:
    """Two-level amplitude ratios that must be large for a clean NOON state."""

    ratio_barrier: float  # |a0/a1| against the barrier-coupled state
    ratio_interaction: float  # |a0/a1~| against the interaction-coupled state
    condition_met: bool


def noon_validity(n_atoms: int, g: float, b: float, threshold: float = 10.0) -> NoonValidity:
    """Check b*sqrt(N) << g*N/2 << E0 via the explicit two-level ratios.

    The "<<" are operationalized as both amplitude ratios >= threshold
    (default 10).  `condition_met` bounds the composition of the state (a
    clean two-mode NOON state), not the accuracy of the chain splitting,
    whose relative error scales as g^2/b: it is True at the fig4 point
    N = 5, b = 0.008, where the chain splitting is 33x below the full
    diagonalization.
    """
    if n_atoms < 2:
        raise ValueError(f"n_atoms must be >= 2, got {n_atoms}")
    if b < 0:
        raise ValueError(f"b must be >= 0, got {b!r}")
    n = n_atoms
    if b > 0:
        x = g * (n - 1) / (2.0 * b * math.sqrt(n))
        ratio_barrier = x + math.sqrt(x * x + 1.0)
    else:
        ratio_barrier = math.inf
    if g > 0:
        y = (2.0 + g * (2 * n - 3)) / (g * math.sqrt(n * (n - 1.0)))
        ratio_interaction = y + math.sqrt(y * y + 1.0)
    else:
        ratio_interaction = math.inf
    return NoonValidity(
        ratio_barrier=ratio_barrier,
        ratio_interaction=ratio_interaction,
        condition_met=(ratio_barrier >= threshold and ratio_interaction >= threshold),
    )


def fig4_interaction(n_atoms: int, b: float) -> float:
    """Coupling rule g = 4*pi*b*sqrt(N)/(N-1) used for the gap-scaling curve."""
    if n_atoms < 2:
        raise ValueError(f"n_atoms must be >= 2, got {n_atoms}")
    return 4.0 * math.pi * b * math.sqrt(n_atoms) / (n_atoms - 1)
