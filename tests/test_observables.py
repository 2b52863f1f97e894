import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringflow.basis import build_basis
from ringflow.hamiltonian import cached_basis
from ringflow.observables import (
    AngularMomentumDistribution,
    angular_momentum_distribution,
    loss_quality,
    quality,
    total_variation,
)
from ringflow.oracles import binomial_pk
from ringflow.params import SystemParams, interaction_for_gamma
from ringflow.solver import solve_lowest


def test_point_mass_for_single_fock_state():
    basis = build_basis(3, 4)
    psi = np.zeros(basis.size)
    idx = basis.rank([0, 0, 3, 0])  # all atoms at k=1
    psi[idx] = 1.0
    dist = angular_momentum_distribution(psi, basis)
    assert dist.as_dict() == {3: 1.0}


def test_norm_check_rejected():
    basis = build_basis(2, 4)
    psi = np.full(basis.size, 0.9)
    with pytest.raises(ValueError):
        angular_momentum_distribution(psi, basis)


def test_quality_arithmetic():
    def dist(probabilities):
        return AngularMomentumDistribution(
            np.array(list(probabilities)), np.array(list(probabilities.values()))
        )

    assert quality(dist({0: 0.5, 5: 0.5}), 0, 5) == pytest.approx(1.0)
    assert quality(dist({3: 1.0}), 0, 3) == 0.0
    assert quality(dist({0: 0.4, 5: 0.6}), 0, 5) == pytest.approx(0.96)


@given(st.integers(min_value=0, max_value=1000))
@settings(max_examples=30, deadline=None)
def test_distribution_properties_random_states(seed):
    basis = cached_basis(3, 6)
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(basis.size)
    psi /= np.linalg.norm(psi)
    dist = angular_momentum_distribution(psi, basis)
    assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(dist.probabilities >= 0)
    q = quality(dist, 0, 3)
    assert 0.0 <= q <= 1.0
    occ = np.abs(psi) ** 2 @ basis.occupations
    assert occ.sum() == pytest.approx(3.0, abs=1e-10)


def test_condensate_distribution_matches_binomial():
    params = SystemParams(n_atoms=3, n_modes=8, interaction=0.0, barrier=0.008, phase=math.pi)
    sol = solve_lowest(params, m=1)
    dist = angular_momentum_distribution(sol.eigenvectors[:, 0], cached_basis(3, 8))
    assert total_variation(dist, binomial_pk(3)) < 1e-3


def test_ideal_noon_state_is_fragile():
    basis = build_basis(3, 4)
    basis_m = build_basis(2, 4)
    psi = np.zeros(basis.size)
    psi[basis.rank([0, 3, 0, 0])] = 1.0 / math.sqrt(2)  # all atoms at k=0
    psi[basis.rank([0, 0, 3, 0])] = 1.0 / math.sqrt(2)  # all atoms at k=1
    report = loss_quality(psi, basis, basis_m)
    assert report.qbar == pytest.approx(0.0, abs=1e-14)
    for entry in report.entries:
        assert entry.quality == pytest.approx(0.0, abs=1e-14)
    assert sum(e.weight for e in report.entries) == pytest.approx(1.0, abs=1e-12)


def test_ideal_flat_superposition_recovers_fermion_rule():
    # two flow branches with flat unit occupations over disjoint-but-overlapping
    # windows reproduce qbar = 1 - 1/N exactly (the free-fermion reference)
    n, r = 3, 8
    basis = build_basis(n, r)
    basis_m = build_basis(n - 1, r)
    occ_a = np.zeros(r, dtype=int)
    occ_b = np.zeros(r, dtype=int)
    for k in range(-1, 2):  # branch K=0: one atom each at k = -1, 0, 1
        occ_a[basis.mode_position(k)] = 1
    for k in range(0, 3):  # branch K=N: one atom each at k = 0, 1, 2
        occ_b[basis.mode_position(k)] = 1
    psi = np.zeros(basis.size)
    psi[basis.rank(occ_a)] = 1.0 / math.sqrt(2)
    psi[basis.rank(occ_b)] = 1.0 / math.sqrt(2)
    report = loss_quality(psi, basis, basis_m)
    assert report.qbar == pytest.approx(1.0 - 1.0 / n, abs=1e-12)
    # aggregate is invariant under a global sign/phase of the state
    flipped = loss_quality(-psi, basis, basis_m)
    assert flipped.qbar == pytest.approx(report.qbar, abs=1e-15)


def test_condensate_loss_leaves_product_state():
    # losing any atom from a product condensate leaves the (N-1)-atom
    # condensate of the same orbital: a_k (B+)^N |0> = N c_k (B+)^{N-1} |0>,
    # so the post-loss distribution is k-independent (binomial at g=0)
    params = SystemParams(n_atoms=3, n_modes=8, interaction=0.0, barrier=0.008, phase=math.pi)
    sol = solve_lowest(params, m=1)
    basis = cached_basis(3, 8)
    report = loss_quality(
        sol.eigenvectors[:, 0], basis, cached_basis(2, 8), keep_distributions=True
    )
    reference = binomial_pk(2)
    for entry in report.entries:
        if entry.occupation < 1e-6:
            continue
        assert total_variation(entry.distribution, reference) < 2e-3


def test_reflection_symmetry_of_ground_distribution():
    params = SystemParams(
        n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=math.pi
    )
    sol = solve_lowest(params, m=1)
    dist = angular_momentum_distribution(sol.eigenvectors[:, 0], cached_basis(3, 8))
    for k in dist.momenta:
        assert dist.p_of(int(k)) == pytest.approx(dist.p_of(3 - int(k)), abs=1e-10)


def test_post_loss_weighting_variant():
    params = SystemParams(
        n_atoms=3, n_modes=8, interaction=interaction_for_gamma(200.0, 3),
        barrier=0.008, phase=math.pi,
    )
    sol = solve_lowest(params, m=1)
    basis = cached_basis(3, 8)
    basis_m = cached_basis(2, 8)
    pre = loss_quality(sol.eigenvectors[:, 0], basis, basis_m)
    post = loss_quality(sol.eigenvectors[:, 0], basis, basis_m, post_loss_weights=True)
    assert pre.weighting == "pre-loss"
    assert post.weighting == "post-loss"
    # bunched bosonic occupations push the two aggregates apart
    assert post.qbar != pytest.approx(pre.qbar, abs=1e-3)
    # per-mode qualities are weighting-independent
    for a, b in zip(pre.entries, post.entries):
        assert a.quality == pytest.approx(b.quality, abs=1e-12)
