"""Analytic single-particle spectrum of the barrier ring, and Tonks-Girardeau
many-body energies obtained by filling those levels.

With the rotational phase gauged into twisted boundary conditions, the
energies are eps_mu = alpha_mu^2 (units E0), where the alpha_mu > 0 solve

    2*alpha/(pi*b) = cot(pi*alpha - Omega/2) + cot(pi*alpha + Omega/2)

with b in E0*L units.  The right-hand side decreases from +inf to -inf
between consecutive poles at alpha = m +/- Omega/(2*pi), so each branch
carries exactly one root and bisection is safe.  At Omega = pi the poles
merge pairwise at half-integers: wave functions with a node at the barrier
stay pinned at alpha = (mu+1)/2 for even mu, while the odd-mu roots solve
alpha/(pi*b) = -tan(pi*alpha).

In the hard-core (Tonks-Girardeau) limit the N-boson spectrum equals that of
N free spinless fermions in these levels: the ground state fills the lowest
N, and the gap at Omega = pi is eps_N - eps_{N-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ALPHA_TOL = 1e-12
_EDGE = 1e-13
_PI_SNAP = 1e-9


@dataclass(frozen=True)
class SingleParticleLevels:
    """Lowest roots alpha_mu (ascending) and energies eps_mu = alpha_mu^2."""

    barrier: float
    phase: float
    roots: np.ndarray

    @property
    def energies(self) -> np.ndarray:
        return self.roots**2


def _plane_wave_roots(phase: float, count: int) -> np.ndarray:
    a = phase / (2.0 * math.pi)
    ks = np.arange(-(count + 2), count + 3)
    return np.sort(np.abs(ks - a))[:count]


def _roots_at_pi(barrier: float, count: int) -> np.ndarray:
    from scipy.optimize import brentq  # here: `import ringflow.cli` need not load it

    roots = []
    nu = 1
    while len(roots) < count:
        base = nu - 0.5
        roots.append(base)  # even mu: node at the barrier, independent of b
        if len(roots) >= count:
            break

        # odd mu: alpha = base + delta solves alpha/(pi*b) = -tan(pi*alpha);
        # parametrizing by delta keeps the pole at delta = 0 exact
        def f(delta: float) -> float:
            return (base + delta) / (math.pi * barrier) - 1.0 / math.tan(math.pi * delta)

        lo = min(1e-12, barrier * 1e-6 / base)
        hi = 1.0 - 1e-12
        tries = 0
        while f(lo) >= 0 and tries < 8:
            lo *= 1e-3
            tries += 1
        roots.append(base + brentq(f, lo, hi, xtol=ALPHA_TOL * 1e-2, rtol=8.9e-16))
        nu += 1
    return np.array(roots[:count])


def _poles(phase: float, how_many: int) -> np.ndarray:
    a = phase / (2.0 * math.pi)
    ms = np.arange(0, how_many + 2)
    candidates = np.concatenate([ms + a, ms - a, ms + 1 - a])
    candidates = np.unique(candidates[candidates > 1e-14])
    return candidates[:how_many]


def _roots_general(barrier: float, phase: float, count: int) -> np.ndarray:
    from scipy.optimize import brentq  # here: `import ringflow.cli` need not load it

    poles = _poles(phase, count + 1)

    def f(alpha: float) -> float:
        lhs = 2.0 * alpha / (math.pi * barrier)
        return (
            lhs
            - 1.0 / math.tan(math.pi * alpha - phase / 2.0)
            - 1.0 / math.tan(math.pi * alpha + phase / 2.0)
        )

    roots = []
    for lo_pole, hi_pole in zip(poles[:-1], poles[1:]):
        width = hi_pole - lo_pole
        shift = max(width * 1e-9, _EDGE)
        for _ in range(4):
            lo, hi = lo_pole + shift, hi_pole - shift
            flo, fhi = f(lo), f(hi)
            if flo < 0 < fhi:
                break
            shift *= 1e-3
        else:
            raise RuntimeError(
                f"bracketing failed on ({lo_pole}, {hi_pole}) for b={barrier}, "
                f"Omega={phase}"
            )
        roots.append(brentq(f, lo, hi, xtol=ALPHA_TOL * 1e-2, rtol=8.9e-16))
    return np.array(roots[:count])


def levels(barrier: float, phase: float, count: int) -> SingleParticleLevels:
    """Lowest `count` single-particle levels for barrier b and phase Omega.

    Requires b >= 0 and Omega in (0, 2*pi).  b = 0 returns the plane-wave
    limit eps = (k - Omega/2pi)^2 expressed through alpha = |k - Omega/2pi|.
    """
    if not (barrier >= 0 and math.isfinite(barrier)):
        raise ValueError(f"barrier must be finite and >= 0, got {barrier!r}")
    if not (0.0 < phase < 2.0 * math.pi):
        raise ValueError(f"phase must lie in (0, 2*pi), got {phase!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if barrier == 0.0:
        roots = _plane_wave_roots(phase, count)
    elif abs(phase - math.pi) <= _PI_SNAP:
        roots = _roots_at_pi(barrier, count)
    else:
        roots = _roots_general(barrier, phase, count)
    return SingleParticleLevels(barrier=float(barrier), phase=float(phase), roots=roots)


def tg_ground_energy(n_atoms: int, barrier: float) -> float:
    """Hard-core ground energy at Omega = pi: sum of the lowest N levels."""
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    eps = levels(barrier, math.pi, n_atoms).energies
    return float(np.sum(eps))


def tg_gap(n_atoms: int, barrier: float, allow_even: bool = False) -> float:
    """Hard-core level splitting at Omega = pi: eps_N - eps_{N-1}.

    The free-fermion mapping on a ring is clean for odd N; even N is rejected
    unless `allow_even` opts into the naive filling (boundary-condition
    caveats apply there).
    """
    if n_atoms < 1:
        raise ValueError(f"n_atoms must be >= 1, got {n_atoms}")
    if n_atoms % 2 == 0 and not allow_even:
        raise ValueError(
            "tg_gap requires odd n_atoms (set allow_even=True for the naive "
            "even-N filling, which ignores boundary-condition subtleties)"
        )
    eps = levels(barrier, math.pi, n_atoms + 1).energies
    return float(eps[n_atoms] - eps[n_atoms - 1])


def tg_spectrum(
    n_atoms: int, barrier: float, phase: float, m: int, allow_even: bool = False
) -> np.ndarray:
    """Lowest m hard-core many-body energies at a general phase.

    Fermionic filling of the single-particle levels, enumerating up to two
    particle-hole excitations near the Fermi level; exact for the low-lying
    spectrum at desk-scale m.
    """
    if n_atoms % 2 == 0 and not allow_even:
        raise ValueError("tg_spectrum requires odd n_atoms (or allow_even=True)")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    span = m + 2
    eps = levels(barrier, phase, n_atoms + span).energies
    base = float(eps[:n_atoms].sum())
    holes = list(range(max(0, n_atoms - span), n_atoms))
    parts = list(range(n_atoms, n_atoms + span))
    energies = [base]
    for h in holes:
        for p in parts:
            energies.append(base - eps[h] + eps[p])
    for i, h1 in enumerate(holes):
        for h2 in holes[i + 1 :]:
            for j, p1 in enumerate(parts):
                for p2 in parts[j + 1 :]:
                    energies.append(base - eps[h1] - eps[h2] + eps[p1] + eps[p2])
    return np.sort(np.array(energies))[:m]


def weak_barrier_audit(
    atom_numbers: tuple[int, ...] = (1, 5), barriers: tuple[float, ...] = (1e-5, 1e-7)
) -> dict:
    """Measured small-b limit of (level splitting)/b at Omega = pi.

    Degenerate perturbation theory across the crossing gives splitting
    2*b/L + O(b^2); a single-branch estimate of b/L underestimates it by a
    factor of 2.  The returned mapping records the measured coefficients so
    the discrepancy is documented alongside every validation run.
    """
    measured = {}
    for n in atom_numbers:
        slopes = {f"b={b:g}": tg_gap(n, b) / b for b in barriers}
        smallest = min(barriers)
        measured[f"n_atoms={n}"] = {
            "slopes": slopes,
            "limit_estimate": slopes[f"b={smallest:g}"],
        }
    return {
        "measured": measured,
        "perturbative_reference": 2.0,
        "note": (
            "splitting/b approaches 2 as b -> 0, matching degenerate "
            "perturbation theory across the crossing; the naive single-branch "
            "estimate of b/L is low by a factor of 2"
        ),
    }
