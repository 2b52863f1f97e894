import tracemalloc
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringflow.basis import basis_size, build_basis
from ringflow.errors import DimensionCapError


def test_sizes():
    assert build_basis(1, 6).size == 6
    assert build_basis(2, 4).size == 10
    assert basis_size(5, 20) == 42504


def test_lexicographic_order_and_window():
    b = build_basis(2, 4)
    assert list(b.window) == [-1, 0, 1, 2]
    occ = [tuple(row) for row in b.occupations]
    assert occ == sorted(occ)
    assert occ[0] == (0, 0, 0, 2)
    assert occ[-1] == (2, 0, 0, 0)


@pytest.mark.parametrize(
    "n_atoms, n_modes", [(0, 20), (1, 2), (2, 20), (3, 8), (4, 8), (5, 20)]
)
def test_table_equals_sorted_multisets(n_atoms, n_modes):
    # independent reference: each multiset of N modes as its occupation tuple
    reference = []
    for modes in combinations_with_replacement(range(n_modes), n_atoms):
        occ = [0] * n_modes
        for m in modes:
            occ[m] += 1
        reference.append(tuple(occ))
    b = build_basis(n_atoms, n_modes)
    assert b.occupations.dtype == np.int8
    assert [tuple(row) for row in b.occupations.tolist()] == sorted(reference)
    assert not b.occupations.flags.writeable


def test_table_type_follows_the_atom_number():
    b = build_basis(200, 2)  # 201 states, each entry up to 200 > int8's 127
    assert b.size == 201
    assert b.occupations.dtype == np.int16
    assert np.all(b.occupations.sum(axis=1) == 200)
    assert all(b.rank(b.occupations[i]) == i for i in range(b.size))
    assert np.array_equal(b.rank_rows(b.occupations), np.arange(b.size))
    assert np.array_equal(b.total_k, b.occupations[:, 1])  # window {0, 1}


def test_build_holds_no_wide_table():
    # the int8 table of N=5, r=20 is 0.85 MB; a build through (size x r)
    # int64 arrays peaked at 19.8 MB
    tracemalloc.start()
    try:
        build_basis(5, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@given(
    st.integers(min_value=1, max_value=4),
    st.sampled_from([2, 4, 6, 8]),
)
@settings(max_examples=20, deadline=None)
def test_rank_unrank_bijection(n, r):
    b = build_basis(n, r)
    assert all(b.rank(b.occupations[i]) == i for i in range(b.size))
    assert np.array_equal(b.rank_rows(b.occupations), np.arange(b.size))


def test_rank_rows_matches_table_at_scale():
    b = build_basis(5, 20)
    rng = np.random.default_rng(0)
    picks = rng.integers(0, b.size, size=500)
    ranks = b.rank_rows(b.occupations[picks])
    assert np.array_equal(ranks, picks)


def test_rank_unknown_state_raises():
    b = build_basis(2, 4)
    with pytest.raises(KeyError):
        b.rank([1, 0, 0, 0])  # wrong atom number
    with pytest.raises(KeyError):
        b.rank([3, -1, 0, 0])  # negative entry, right sum
    with pytest.raises(KeyError):
        b.rank([0, 0, 2])  # wrong length
    with pytest.raises(KeyError):
        b.rank([2, 0, 1, 0])  # sum above N


def test_total_momentum_examples():
    b = build_basis(3, 4)  # window -1..2
    assert b.total_k[b.rank([0, 3, 0, 0])] == 0
    assert b.total_k[b.rank([0, 0, 3, 0])] == 3
    # one atom each at k=-1, 0, 2
    assert b.total_k[b.rank([1, 1, 0, 1])] == 1


def test_total_k_bounds():
    b = build_basis(3, 8)
    lo, hi = 3 * (-3), 3 * 4
    assert b.total_k.min() >= lo
    assert b.total_k.max() <= hi


def test_sectors_partition():
    b = build_basis(2, 4)
    all_indices = np.concatenate([b.sector_indices(int(k)) for k in b.sector_momenta()])
    assert np.array_equal(np.sort(all_indices), np.arange(b.size))
    # window {0,1}: sector K=1 holds exactly |1,1>
    b2 = build_basis(2, 2)
    sector = b2.sector_indices(1)
    assert sector.size == 1
    assert list(b2.occupations[sector[0]]) == [1, 1]
    # one-particle case: one state per K
    b1 = build_basis(1, 2)
    assert b1.sector_indices(0).size == 1
    assert b1.sector_indices(1).size == 1
    assert b1.sector_indices(7).size == 0


@given(st.integers(min_value=1, max_value=4), st.sampled_from([2, 4, 6, 8]))
@settings(max_examples=20, deadline=None)
def test_reflection_is_an_involution(n, r):
    b = build_basis(n, r)
    perm = b.reflection_permutation()
    assert np.array_equal(np.sort(perm), np.arange(b.size))
    assert np.array_equal(perm[perm], np.arange(b.size))
    # reflection maps total momentum K to N - K
    assert np.array_equal(b.total_k[perm], n - b.total_k)


def test_dimension_cap():
    with pytest.raises(DimensionCapError):
        build_basis(5, 20, dimension_cap=1000)
    # the cap is inclusive: C(24, 5) = 42504 states
    assert build_basis(5, 20, dimension_cap=42504).size == 42504
    with pytest.raises(DimensionCapError):
        build_basis(5, 20, dimension_cap=42503)
