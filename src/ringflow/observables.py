"""Total-angular-momentum diagnostics and single-atom-loss robustness metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import FockBasis

NORM_TOL = 1e-8
OCCUPATION_THRESHOLD = 1e-12


@dataclass(frozen=True)
class AngularMomentumDistribution:
    """Probability P(K) over integer total angular momentum K (units hbar)."""

    momenta: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        total = float(np.sum(self.probabilities))
        if np.any(self.probabilities < -1e-14) or abs(total - 1.0) > 1e-12:
            raise ValueError(f"invalid distribution: sum={total}")

    def p_of(self, k: int) -> float:
        hits = np.flatnonzero(self.momenta == k)
        return float(self.probabilities[hits[0]]) if hits.size else 0.0

    def as_dict(self) -> dict[int, float]:
        return {int(k): float(p) for k, p in zip(self.momenta, self.probabilities)}


def angular_momentum_distribution(
    psi: np.ndarray, basis: FockBasis
) -> AngularMomentumDistribution:
    """P(K) = sum of |coefficient|^2 over basis states with total momentum K."""
    psi = np.asarray(psi)
    if psi.shape != (basis.size,):
        raise ValueError(f"state has shape {psi.shape}, expected ({basis.size},)")
    weights = np.abs(psi) ** 2
    norm = float(weights.sum())
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm^2 = {norm} deviates from 1 beyond {NORM_TOL}")
    k_min = int(basis.total_k.min())
    counts = np.bincount(basis.total_k - k_min, weights=weights)
    present = np.flatnonzero(counts > 0.0)
    probs = counts[present] / norm
    return AngularMomentumDistribution(momenta=present + k_min, probabilities=probs)


def quality(distribution: AngularMomentumDistribution, k1: int, k2: int) -> float:
    """Superposition quality Q = 4*P(K1)*P(K2); 1 for a balanced pair, 0 for
    a momentum eigenstate."""
    return 4.0 * distribution.p_of(k1) * distribution.p_of(k2)


def total_variation(
    a: AngularMomentumDistribution, b: AngularMomentumDistribution
) -> float:
    keys = set(a.as_dict()) | set(b.as_dict())
    return 0.5 * sum(abs(a.p_of(k) - b.p_of(k)) for k in keys)


@dataclass(frozen=True)
class LossModeEntry:
    """One momentum channel of the loss analysis."""

    k: int
    occupation: float  # pre-loss <a+_k a_k>
    quality: float  # Q after losing one atom from mode k
    weight: float  # contribution weight used in the aggregate
    distribution: AngularMomentumDistribution | None = field(
        default=None, repr=False, compare=False
    )


@dataclass(frozen=True)
class LossReport:
    """Per-mode loss qualities and the occupation-weighted aggregate."""

    n_atoms: int
    entries: tuple[LossModeEntry, ...]
    qbar: float
    weighting: str  # "pre-loss" or "post-loss"


def loss_quality(
    psi: np.ndarray,
    basis_n: FockBasis,
    basis_nm1: FockBasis,
    post_loss_weights: bool = False,
    keep_distributions: bool = False,
) -> LossReport:
    """Robustness of a superposition against the loss of one atom.

    For each momentum k with nonzero occupation, the post-loss state
    a_k psi / sqrt(<a+_k a_k>) is scored by Q_k = 4 P(-k) P(N-k), and the
    aggregate averages Q_k with weights n_k/N.  Weights use the pre-loss
    occupations by default, so they sum to one; `post_loss_weights` switches
    to the occupations measured after the loss.
    """
    from .hamiltonian import cached_loss_operator

    psi = np.asarray(psi, dtype=float)
    weights_total = float(np.sum(psi**2))
    if abs(weights_total - 1.0) > NORM_TOL:
        raise ValueError(f"state norm^2 = {weights_total} deviates from 1")
    n = basis_n.n_atoms
    prob = psi**2
    entries = []
    qbar = 0.0
    for pos, k in enumerate(int(v) for v in basis_n.window):
        # numpy's own sum, not a BLAS dot: it rounds alike at any thread count
        occupation = float(np.add.reduce(prob * basis_n.occupations[:, pos]))
        if occupation <= OCCUPATION_THRESHOLD:
            continue
        phi = cached_loss_operator(n, basis_n.n_modes, k) @ psi
        phi /= math.sqrt(occupation)
        dist = angular_momentum_distribution(phi, basis_nm1)
        q_k = quality(dist, -k, n - k)
        if post_loss_weights:
            post_occ = float(np.add.reduce(phi**2 * basis_nm1.occupations[:, pos]))
            weight = post_occ / n
        else:
            weight = occupation / n
        qbar += q_k * weight
        entries.append(
            LossModeEntry(
                k=k,
                occupation=occupation,
                quality=q_k,
                weight=weight,
                distribution=dist if keep_distributions else None,
            )
        )
    return LossReport(
        n_atoms=n,
        entries=tuple(entries),
        qbar=qbar,
        weighting="post-loss" if post_loss_weights else "pre-loss",
    )
