"""Model parameters and the canonical unit system.

Everything inside the package is dimensionless: the energy unit is
E0 = 2*pi^2*hbar^2/(M*L^2), the lowest nonzero kinetic energy of one atom on
the ring; the length unit is the ring circumference L; and hbar = 1.  The
contact interaction g and the barrier strength b are measured in E0*L, the
rotational phase Omega in radians.  In these units the atom mass equals
2*pi^2 and drops out of every formula.  Conversion to laboratory units is
confined to `to_physical` at the CLI boundary (`energy_unit` gives E0 in
joule); its SI constants are CODATA 2022 literals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2022: bit for bit scipy 1.17.1's `scipy.constants.hbar` and
# `physical_constants["atomic mass constant"]`, without importing scipy.constants
HBAR_SI = 1.0545718176461565e-34
ATOMIC_MASS_KG = 1.66053906892e-27


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless parameters of N bosons on a ring with a delta barrier.

    n_atoms: particle number N (positive integer).
    n_modes: even number r of retained angular-momentum modes; the truncated
        momentum window is the integer set {-r/2+1, ..., r/2}.
    interaction: contact coupling g >= 0 in units E0*L.
    barrier: barrier strength b >= 0 in units E0*L.
    phase: rotational phase Omega in radians (pi is the crossing point).
    """

    n_atoms: int
    n_modes: int
    interaction: float = 0.0
    barrier: float = 0.0
    phase: float = math.pi

    def __post_init__(self) -> None:
        for name in ("n_atoms", "n_modes"):
            value = getattr(self, name)
            if int(value) != value:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        if self.n_modes < 2 or self.n_modes % 2:
            raise ValueError(f"n_modes must be even and >= 2, got {self.n_modes}")
        for name in ("interaction", "barrier"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase!r}")
        object.__setattr__(self, "phase", float(self.phase))


def lieb_liniger_gamma(params: SystemParams) -> float:
    """Dimensionless interaction parameter gamma = 2*pi^2*g/N (= g*M*L/(hbar^2*N))."""
    return 2.0 * math.pi**2 * params.interaction / params.n_atoms


def interaction_for_gamma(gamma: float, n_atoms: int) -> float:
    """Coupling g that realizes a given gamma at fixed atom number."""
    return gamma * n_atoms / (2.0 * math.pi**2)


@dataclass(frozen=True)
class RescaledCoupling:
    """Interaction strength used in the truncated basis.

    g_tilde = g/(1 + g/g_zero) compensates the momentum modes removed by the
    truncation, so that the truncated two-particle problem reproduces exact
    energies.  1/g_zero is the pair-channel weight of the removed modes,
    sum over |q| >= r/2 of 1/(2 q^2) at zero pair energy: the trigamma
    value psi'(r/2), which the coarse estimate r/2 approximates to about 10%
    at r = 20.  An infinite g_zero marks a pass-through coupling for
    diagnostics with rescaling disabled.
    """

    g_tilde: float
    g_zero: float


def truncation_tail(n_modes: int) -> float:
    """1/g_zero: pair-channel weight sum_{q >= r/2} 1/q^2 over the removed
    modes at zero pair energy, the trigamma value psi'(r/2).

    psi'(x) = psi'(x+1) + 1/x^2 carries x up to 60, where the asymptotic
    series 1/x + 1/2x^2 + 1/6x^3 - 1/30x^5 + 1/42x^7 - 1/30x^9 ends it.  Each
    term enters `math.fsum` as its rounded value plus the rounded remainder,
    about 106 bits in all: for r = 2..200 the result is psi'(r/2) correctly
    rounded, and within 2 ulp of `scipy.special.polygamma(1, r/2)`.  (Summing
    the rounded terms alone puts psi'(7) 1 ulp low, which moves the r = 14
    row of fig3a.)"""
    if n_modes < 2 or n_modes % 2:
        raise ValueError(f"n_modes must be even and >= 2, got {n_modes}")
    terms: list[float] = []

    def add(num: int, den: int) -> None:
        rounded = num / den
        p, q = rounded.as_integer_ratio()
        terms.extend((rounded, (num * q - p * den) / (q * den)))

    x = int(n_modes) // 2
    while x < 60:
        add(1, x * x)
        x += 1
    for num, den in ((1, x), (1, 2 * x**2), (1, 6 * x**3), (-1, 30 * x**5),
                     (1, 42 * x**7), (-1, 30 * x**9)):
        add(num, den)
    return math.fsum(terms)


def rescale_interaction(g: float, n_modes: int) -> RescaledCoupling:
    """Map the bare coupling g to the truncated-basis coupling g_tilde."""
    g = float(g)
    if not math.isfinite(g) or g < 0:
        raise ValueError(f"interaction must be finite and >= 0, got {g!r}")
    g_zero = 1.0 / truncation_tail(n_modes)
    return RescaledCoupling(g_tilde=g / (1.0 + g / g_zero), g_zero=g_zero)


def raw_coupling(g: float) -> RescaledCoupling:
    """Pass-through coupling for runs with the rescaling disabled."""
    g = float(g)
    if not math.isfinite(g) or g < 0:
        raise ValueError(f"interaction must be finite and >= 0, got {g!r}")
    return RescaledCoupling(g_tilde=g, g_zero=math.inf)


@dataclass(frozen=True)
class PhysicalRing:
    """Laboratory ring: atom mass in kg, radius in m (L = 2*pi*radius)."""

    atom_mass: float
    ring_radius: float

    def __post_init__(self) -> None:
        for name in ("atom_mass", "ring_radius"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def circumference(self) -> float:
        return 2.0 * math.pi * self.ring_radius


def energy_unit(ring: PhysicalRing) -> float:
    """E0 in joule for the given ring: 2*pi^2*hbar^2/(M*L^2)."""
    length = ring.circumference
    return 2.0 * math.pi**2 * HBAR_SI**2 / (ring.atom_mass * length**2)


def barrier_angular_speed(ring: PhysicalRing, phase: float) -> float:
    """Stirring rate omega (rad/s) realizing the rotational phase.

    The barrier moves with tangential velocity v = hbar*Omega/(M*L); omega is
    v divided by the ring radius.  At Omega = pi this equals E0/hbar.
    """
    v = HBAR_SI * phase / (ring.atom_mass * ring.circumference)
    return v / ring.ring_radius


def to_physical(
    params: SystemParams, ring: PhysicalRing, delta_e_canonical: float
) -> dict[str, float]:
    """Laboratory-unit report for a canonical level splitting.

    Returns a flat mapping with SI units annotated in the key names, suitable
    for direct JSON serialization.
    """
    e0 = energy_unit(ring)
    omega = barrier_angular_speed(ring, params.phase)
    return {
        "n_atoms": float(params.n_atoms),
        "atom_mass_kg": ring.atom_mass,
        "ring_radius_m": ring.ring_radius,
        "circumference_m": ring.circumference,
        "E0_J": e0,
        "delta_e_E0": float(delta_e_canonical),
        "delta_e_J": float(delta_e_canonical) * e0,
        "delta_e_over_hbar_per_s": float(delta_e_canonical) * e0 / HBAR_SI,
        "barrier_angular_speed_rad_per_s": omega,
        "barrier_rotation_Hz": omega / (2.0 * math.pi),
        "mean_spacing_m": ring.circumference / params.n_atoms,
        "phase_rad": params.phase,
    }
