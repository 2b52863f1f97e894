import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ringflow import hamiltonian, solver, sweep
from ringflow.basis import build_basis
from ringflow.hamiltonian import (
    FactoredOperator,
    assemble,
    build_hamiltonian,
    cached_basis,
    cached_sector_pieces,
    cached_loss_operator,
    clear_caches,
    loss_operator,
    loss_operators,
)
from ringflow.params import SystemParams, raw_coupling, rescale_interaction
from ringflow.solver import hamiltonian_blocks, lowest_eigenpairs, solve_lowest


def test_single_atom_two_modes_matrix():
    params = SystemParams(n_atoms=1, n_modes=2, barrier=0.05, phase=math.pi)
    op = build_hamiltonian(params, raw_coupling(0.3))  # g irrelevant at N=1
    dense = op.dense()
    expected = np.array([[0.25 + 0.05, 0.05], [0.05, 0.25 + 0.05]])
    assert np.allclose(dense, expected, atol=1e-15)
    vals = np.linalg.eigvalsh(dense)
    assert vals[0] == pytest.approx(0.25, abs=1e-15)
    assert vals[1] - vals[0] == pytest.approx(0.1, abs=1e-15)


def test_free_gas_is_diagonal():
    basis = build_basis(3, 6)
    params = SystemParams(n_atoms=3, n_modes=6, interaction=0.0, barrier=0.0, phase=0.0)
    h = build_hamiltonian(params).dense()
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() == 0.0
    kin = basis.occupations @ (basis.window**2)
    assert np.allclose(np.diag(h), kin)


def test_two_body_diagonal_matrix_elements():
    basis = build_basis(2, 4)
    g = 0.7
    params = SystemParams(n_atoms=2, n_modes=4, interaction=g, barrier=0.0, phase=0.0)
    h = build_hamiltonian(params, raw_coupling(g)).dense()
    double = basis.rank([0, 2, 0, 0])  # both atoms at k=0
    distinct = basis.rank([1, 1, 0, 0])  # atoms at k=-1 and k=0
    assert h[double, double] == pytest.approx(g, rel=1e-14)
    assert h[distinct, distinct] == pytest.approx(1.0 + 2 * g, rel=1e-14)


def test_pair_scattering_amplitude():
    # <1_k 1_-k | H_I | 2_0> = sqrt(2) * g_tilde for the strict projection
    basis = build_basis(2, 6)
    g = 1.3
    params = SystemParams(n_atoms=2, n_modes=6, interaction=g, barrier=0.0, phase=0.0)
    h = build_hamiltonian(params, raw_coupling(g)).dense()
    src = basis.rank([0, 0, 2, 0, 0, 0])
    for k in (1, 2):
        occ = np.zeros(6, dtype=int)
        occ[basis.mode_position(-k)] = 1
        occ[basis.mode_position(k)] = 1
        dst = basis.rank(occ)
        assert h[dst, src] == pytest.approx(math.sqrt(2) * g, rel=1e-14)


def test_hermiticity_exact():
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.7, barrier=0.03, phase=2.1)
    h = build_hamiltonian(params).dense()
    assert np.array_equal(h, h.T)


def test_momentum_block_structure_without_barrier():
    basis = build_basis(3, 6)
    params = SystemParams(n_atoms=3, n_modes=6, interaction=0.9, barrier=0.0, phase=0.4)
    h = build_hamiltonian(params).dense()
    for ka in basis.sector_momenta():
        ia = basis.sector_indices(int(ka))
        for kb in basis.sector_momenta():
            if kb <= ka:
                continue
            block = h[np.ix_(ia, basis.sector_indices(int(kb)))]
            assert np.count_nonzero(block) == 0


def test_galilean_shift_sector_identity():
    basis = build_basis(3, 8)
    free = SystemParams(n_atoms=3, n_modes=8, interaction=0.8, barrier=0.0, phase=0.0)
    h0 = build_hamiltonian(free).dense()
    omega = 1.3
    hw = build_hamiltonian(
        SystemParams(n_atoms=3, n_modes=8, interaction=0.8, barrier=0.0, phase=omega)
    ).dense()
    for k in basis.sector_momenta():
        idx = basis.sector_indices(int(k))
        e0 = np.linalg.eigvalsh(h0[np.ix_(idx, idx)])
        ew = np.linalg.eigvalsh(hw[np.ix_(idx, idx)])
        predicted = e0 - (omega / math.pi) * int(k) + 3 * (omega / (2 * math.pi)) ** 2
        assert np.max(np.abs(ew - predicted)) < 1e-10


def test_reflection_commutes_at_crossing():
    basis = build_basis(3, 6)
    params = SystemParams(n_atoms=3, n_modes=6, interaction=0.9, barrier=0.05, phase=math.pi)
    h = build_hamiltonian(params).dense()
    perm = basis.reflection_permutation()
    assert np.max(np.abs(h[np.ix_(perm, perm)] - h)) < 1e-12


def test_kinetic_phase_dependence():
    basis = build_basis(2, 4)
    params = SystemParams(n_atoms=2, n_modes=4, interaction=0.0, barrier=0.0, phase=0.6)
    kin = build_hamiltonian(params).diagonal
    a = 0.6 / (2 * math.pi)
    expected = (basis.occupations @ ((basis.window - a) ** 2)).astype(float)
    assert np.allclose(kin, expected, atol=1e-13)


def test_operator_at_a_point_builds_its_pieces_once(monkeypatch):
    # the solvers' blocks at the crossing are built once per (N, r); the
    # Fock-basis operator, the one block off the crossing, builds none: its
    # kinetic sums and factors come from the basis and the a_k on each call,
    # bit for bit
    clear_caches()
    built = []
    real = hamiltonian._sector_blocks
    monkeypatch.setattr(
        hamiltonian, "_sector_blocks", lambda n, r: built.append((n, r)) or real(n, r)
    )
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.02, phase=math.pi)
    first = build_hamiltonian(params)
    second = build_hamiltonian(params)
    assert built == []
    coupling = rescale_interaction(1.0, 8)
    for phase in (math.pi, 0.9 * math.pi, math.pi):
        hamiltonian_blocks(replace(params, phase=phase), coupling)
    assert built == [(3, 8)]
    assert np.array_equal(first.dense(), second.dense())


def _whole_space_factors(n_atoms, n_modes):
    """The factors A and P (P only for N >= 2) of `build_hamiltonian`."""
    params = SystemParams(n_atoms=n_atoms, n_modes=n_modes, interaction=1.0, barrier=1.0)
    factors = [factor for _, factor in build_hamiltonian(params, raw_coupling(1.0)).terms]
    return factors if n_atoms >= 2 else factors + [None]


def test_rebuild_is_bit_identical():
    clear_caches()
    w1 = _whole_space_factors(3, 6)
    s1 = cached_sector_pieces(3, 6)
    clear_caches()  # rebuild the bases and loss operators the blocks come from, too
    w2 = _whole_space_factors(3, 6)
    s2 = cached_sector_pieces(3, 6)
    assert s1 is not s2
    for f1, f2 in zip(w1, w2):
        _assert_same_csr(f1.matrix, f2.matrix)
    for b1, b2 in zip(s1, s2, strict=True):
        # the kinetic sums of the orbit representatives, and the orbits
        # themselves through the isometry's columns
        assert np.array_equal(b1.kin_k, b2.kin_k)
        assert np.array_equal(b1.kin_k2, b2.kin_k2)
        _assert_same_csr(b1.isometry, b2.isometry)
        for f1, f2 in ((b1.barrier_factor, b2.barrier_factor),
                       (b1.interaction_factor, b2.interaction_factor)):
            _assert_same_csr(f1.matrix, f2.matrix)
            _assert_same_csr(f1.transpose, f2.transpose)


def _cached_objects():
    """(arrays, sparse matrices, factors) reachable from the cache through
    tuples and instance attributes (dataclass fields and cached properties
    included), each once."""
    arrays, matrices, factors, seen = [], [], [], set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            return
        if sp.issparse(obj):
            matrices.append(obj)
        if isinstance(obj, hamiltonian.Factor):
            factors.append(obj)
        if isinstance(obj, tuple):
            for item in obj:
                walk(item)
        elif hasattr(obj, "__dict__"):
            for item in vars(obj).values():
                walk(item)

    for value in hamiltonian._CACHE.values():
        walk(value)
    return arrays, matrices, factors


def _assert_views_only(factors):
    """Each F^T is a CSC view of F, and no CSR copy of any F^T is cached."""
    _, matrices, _ = _cached_objects()
    for factor in factors:
        transpose = factor.transpose
        assert transpose.format == "csc"
        assert transpose.shape == factor.matrix.shape[::-1]
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(transpose, name), getattr(factor.matrix, name))
        for m in matrices:
            if m.format == "csr" and m.shape == transpose.shape:
                assert (m != transpose).nnz > 0


def test_factor_transposes_are_views_of_the_stored_factors():
    clear_caches()
    cached_sector_pieces(5, 20)
    _, _, factors = _cached_objects()
    assert len(factors) == 4  # A and P of each sector, the only factors kept
    views = [factor.transpose for factor in factors]
    _assert_views_only(factors)
    params = SystemParams(n_atoms=5, n_modes=20, interaction=0.01, barrier=0.008,
                          phase=0.9 * math.pi)
    solve_lowest(params)  # off the crossing: Fock-basis factors built per call, not kept
    assert all(a is b for a, b in zip(_cached_objects()[2], factors, strict=True))
    assert all(factor.transpose is view for factor, view in zip(factors, views))
    _assert_views_only(factors)


def _csr_transpose_matvec(op, x):
    """op @ x with each F^T applied as a CSR copy."""
    y = x * (op.diagonal if x.ndim == 1 else op.diagonal[:, None])
    for coef, factor in op.terms:
        y += coef * (factor.matrix.T.tocsr() @ (factor.matrix @ x))
    return y


@pytest.mark.parametrize("n_atoms, n_modes", [(3, 8), (4, 12)])
def test_matvec_matches_the_explicit_matrix(n_atoms, n_modes):
    # vectors, blocks of columns in either order and complex vectors, on the
    # whole space (the one block off the crossing), both parity sectors and
    # an operator with no Gram term
    params = SystemParams(n_atoms=n_atoms, n_modes=n_modes, interaction=2.0, barrier=0.008,
                          phase=math.pi)
    coupling = rescale_interaction(2.0, n_modes)
    whole = build_hamiltonian(replace(params, phase=0.9 * math.pi), coupling)
    operators = [whole, FactoredOperator(whole.diagonal, ())]
    operators += [op for op, _ in hamiltonian_blocks(params, coupling)]
    rng = np.random.default_rng(5)
    for op in operators:
        for x in (rng.standard_normal(op.dimension),
                  rng.standard_normal((op.dimension, 4)),
                  np.asfortranarray(rng.standard_normal((op.dimension, 3))),
                  rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)):
            y = op @ x
            reference = op.dense() @ x
            assert y.dtype == reference.dtype
            assert np.max(np.abs(y - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("g", [0.01, 100.0])
def test_transpose_views_match_csr_transposes_bit_for_bit(g):
    params = SystemParams(n_atoms=4, n_modes=12, interaction=g, barrier=0.008,
                          phase=math.pi)
    coupling = rescale_interaction(g, 12)
    whole = build_hamiltonian(replace(params, phase=0.9 * math.pi), coupling)
    operators = [whole] + [op for op, _ in hamiltonian_blocks(params, coupling)]
    rng = np.random.default_rng(3)
    for op in operators:
        for x in (rng.standard_normal(op.dimension),
                  rng.standard_normal((op.dimension, 2)),
                  rng.standard_normal((op.dimension, 3))):
            assert np.array_equal(op @ x, _csr_transpose_matvec(op, x))
        explicit = sp.diags(op.diagonal, format="csr")
        for coef, factor in op.terms:
            rows = factor.matrix.T.tocsr()
            norms = np.asarray(rows.multiply(rows).sum(axis=1)).ravel()
            assert np.array_equal(factor.column_norms2, norms)
            explicit = explicit + coef * (rows @ factor.matrix)
        explicit = ((explicit + explicit.T) * 0.5).tocsr()
        explicit.sum_duplicates()
        explicit.sort_indices()
        assert np.array_equal(op.dense(), explicit.toarray())


@pytest.mark.parametrize("n_atoms, n_modes", [(3, 8), (4, 12)])
@pytest.mark.parametrize("g", [0.01, 1.0, 100.0])
def test_dense_form_equals_the_sparse_products(n_atoms, n_modes, g):
    # the dense form against the sparse Gram products it replaced, bit for
    # bit: whole spaces on and off the crossing and both parity sectors,
    # each also on the columns of LOBPCG's window, whose H_WW came from the
    # CSR rows of F[:, W]^T
    params = SystemParams(n_atoms=n_atoms, n_modes=n_modes, interaction=g, barrier=0.008,
                          phase=math.pi)
    coupling = rescale_interaction(g, n_modes)
    operators = [build_hamiltonian(replace(params, phase=phase), coupling)
                 for phase in (math.pi, 0.9 * math.pi)]
    operators += [op for op, _ in hamiltonian_blocks(params, coupling)]
    for op in operators:
        explicit = sp.diags(op.diagonal, format="csr")
        for coef, factor in op.terms:
            explicit = explicit + coef * (factor.matrix.T.tocsr() @ factor.matrix)
        explicit = (explicit + explicit.T) * 0.5
        dense = op.dense()
        assert np.array_equal(dense, dense.T)
        assert np.array_equal(dense, explicit.toarray())
        kin = op.diagonal
        window = np.flatnonzero(kin <= kin.min() + solver.COARSE_WINDOW)
        assert 0 < window.size < op.dimension
        h_ww = np.diag(kin[window])
        for coef, factor in op.terms:
            columns = factor.matrix[:, window].T.tocsr()
            h_ww += coef * (columns @ columns.T).toarray()
        assert np.array_equal(op.dense(window), h_ww)


def test_crossing_sweep_set_up_fits_its_memory_budget():
    # the set-up of `sweep --figure fig2` at N=5, r=20: its bases, both
    # blocks and every a_k of N = 4 and 5; each factor is held once
    clear_caches()
    cached_basis(5, 20)
    cached_sector_pieces(5, 20)
    cached_basis(4, 20)
    for k in cached_basis(5, 20).window:
        cached_loss_operator(5, 20, int(k))
    assert {key[:2] for key in hamiltonian._CACHE} >= {
        ("basis", 3), ("basis", 4), ("basis", 5), ("loss", 4), ("loss", 5)}
    arrays, _, _ = _cached_objects()
    roots = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        roots[id(a)] = a.nbytes
    assert sum(roots.values()) <= 20 * 2**20


def _crossing_set_up_mib():
    """MiB of the distinct base arrays cached by the set-up of
    `sweep --figure fig2` at N=5, r=20 on a cleared cache."""
    clear_caches()
    cached_basis(5, 20)
    cached_sector_pieces(5, 20)
    cached_basis(4, 20)
    for k in cached_basis(5, 20).window:
        cached_loss_operator(5, 20, int(k))
    arrays, _, _ = _cached_objects()
    roots = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        roots[id(a)] = a.nbytes
    return sum(roots.values()) / 2**20


def test_crossing_set_up_keeps_one_factor_set():
    # the parity-sector factors are the only Gram factors kept: no
    # whole-space A or P (19.06 MiB with them)
    assert _crossing_set_up_mib() <= 13.5


def test_crossing_point_makes_no_whole_space_factor(monkeypatch):
    # a fig2 point on a cleared cache, loss metric included, forms its
    # sector factors from the a_k and no factor over all 42,504 states
    clear_caches()
    shapes = []
    real = hamiltonian.Factor.of.__func__

    def spy(cls, matrix):
        shapes.append(matrix.shape)
        return real(cls, matrix)

    monkeypatch.setattr(hamiltonian.Factor, "of", classmethod(spy))
    spec = sweep.fig2_spec(points=12)
    record = sweep._point_record(spec, spec.grid[0])
    assert record.error is None and record.qbar_loss > 0
    # both sectors have 21,252 columns: an odd N leaves no state fixed
    assert [columns for _, columns in shapes] == [21_252] * 4
    assert cached_basis(5, 20).size == 42_504


@pytest.mark.parametrize("n_atoms, n_modes", [(3, 8), (4, 12)])
@pytest.mark.parametrize("omega_over_pi", [0.0, 0.7, 0.9])
@pytest.mark.parametrize("g", [0.3, 50.0])  # LOBPCG's regime, then the Lanczos loop's
def test_off_crossing_block_matches_the_fock_operator(
    monkeypatch, n_atoms, n_modes, omega_over_pi, g
):
    params = SystemParams(n_atoms=n_atoms, n_modes=n_modes, interaction=g, barrier=0.008,
                          phase=omega_over_pi * math.pi)
    coupling = rescale_interaction(g, n_modes)
    weak = 0.5 * coupling.g_tilde <= solver.LOBPCG_MAX_COUPLING
    assert weak == (g < 1)
    fock = build_hamiltonian(params, coupling)
    [(block, q)] = hamiltonian_blocks(params, coupling)
    # the one block is the Fock-basis operator itself, with the identity
    assert (q != sp.identity(fock.dimension)).nnz == 0
    assert np.array_equal(block.dense(), fock.dense())
    rng = np.random.default_rng(11)
    for x in (rng.standard_normal(fock.dimension), rng.standard_normal((fock.dimension, 3))):
        reference = fock @ x
        got = q @ (block @ (q.T @ x))
        assert np.max(np.abs(got - reference)) <= 1e-13 * np.max(np.abs(reference))
    levels = sla.eigh(fock.dense(), eigvals_only=True, subset_by_index=(0, 2))
    monkeypatch.setattr(solver, "DENSE_CUTOFF", block.dimension)
    dense = lowest_eigenpairs(block, 3)
    monkeypatch.setattr(solver, "DENSE_CUTOFF", 0)
    iterative = lowest_eigenpairs(block, 3)
    assert dense.method == "dense"
    assert iterative.method in ("lobpcg" if weak else "lanczos", "arpack")
    for sol in (dense, iterative):
        assert np.all(np.abs(sol.eigenvalues - levels) <= 1e-12 * np.abs(levels))


def test_off_crossing_solve_builds_no_sector():
    # off the crossing the one block is the Fock-basis operator: it reads the
    # bases and the a_k, and no sector block; at the crossing the sector
    # blocks are the one further entry, with no orbit cache beside them
    clear_caches()
    params = SystemParams(n_atoms=4, n_modes=12, interaction=1.0, barrier=0.008,
                          phase=0.9 * math.pi)
    solve_lowest(params)
    assert {key[0] for key in hamiltonian._CACHE} == {"basis", "loss"}
    clear_caches()
    solve_lowest(replace(params, phase=math.pi))
    assert {key[0] for key in hamiltonian._CACHE} == {"basis", "loss", "sectors"}


def _orbit_counts(labels, images):
    """(even, odd) sector sizes of a row space under an involution, from the
    row labels and the labels of their images."""
    fixed = sum(a == b for a, b in zip(labels, images))
    pairs = (len(labels) - fixed) // 2
    return fixed + pairs, pairs


@pytest.mark.parametrize("n_atoms, n_modes", [(1, 2), (2, 6), (3, 8), (4, 8)])
def test_two_sided_sector_factors(n_atoms, n_modes):
    # the sector factors against the projected factors of `build_hamiltonian`
    barrier_factor, interaction_factor = _whole_space_factors(n_atoms, n_modes)
    sector = cached_sector_pieces(n_atoms, n_modes)
    window = [int(k) for k in cached_basis(n_atoms, n_modes).window]
    # A's rows are (N-1)-atom states; the reflection k -> 1-k reverses them
    lower = [tuple(o) for o in build_basis(n_atoms - 1, n_modes).occupations]
    a_rows = _orbit_counts(lower, [o[::-1] for o in lower])
    factors = [(barrier_factor, [b.barrier_factor for b in sector], a_rows)]
    if n_atoms >= 2:
        # P's rows are (K, (N-2)-atom state), K the momentum of the removed pair
        pairs = [tuple(o) for o in build_basis(n_atoms - 2, n_modes).occupations]
        totals = range(2 * window[0], 2 * window[-1] + 1)
        labels = [(k, o) for k in totals for o in pairs]
        p_rows = _orbit_counts(labels, [(2 - k, o[::-1]) for k, o in labels])
        projected = [b.interaction_factor for b in sector]
        factors.append((interaction_factor, projected, p_rows))
    else:
        assert [b.interaction_factor for b in sector] == [None, None]
    for full, projected, rows in factors:
        for which, s in enumerate(b.isometry for b in sector):
            column_only = (full.matrix @ s).toarray()
            factor = projected[which]
            assert factor.matrix.shape == (rows[which], s.shape[1])
            gram = (factor.transpose @ factor.matrix).toarray()
            assert np.max(np.abs(gram - column_only.T @ column_only)) < 1e-13
    if n_atoms == 1:
        assert sector[1].barrier_factor.matrix.shape[0] == 0


def _ladder_string(ops, occ):
    """Apply a product of ladder operators, rightmost first, to an occupation
    list; returns (amplitude, new occupations) or None when it annihilates."""
    occ = list(occ)
    amp = 1.0
    for create, pos in reversed(ops):
        if create:
            occ[pos] += 1
            amp *= math.sqrt(occ[pos])
        elif occ[pos] == 0:
            return None
        else:
            amp *= math.sqrt(occ[pos])
            occ[pos] -= 1
    return amp, occ


def _reference_hamiltonian(basis, params, g_tilde):
    """Dense H term by term from the sums in the hamiltonian module docstring."""
    window = [int(k) for k in basis.window]
    pos = {k: i for i, k in enumerate(window)}
    a = params.phase / (2 * math.pi)
    terms = []  # (coefficient, ladder string)
    for k1 in window:
        for k2 in window:
            terms.append((params.barrier, [(True, pos[k1]), (False, pos[k2])]))
            for q in range(-2 * len(window), 2 * len(window) + 1):
                if k1 - q in pos and k2 + q in pos:
                    ops = [(True, pos[k1]), (True, pos[k2]),
                           (False, pos[k1 - q]), (False, pos[k2 + q])]
                    terms.append((0.5 * g_tilde, ops))
    h = np.zeros((basis.size, basis.size))
    for j, occ in enumerate(basis.occupations):
        h[j, j] += sum(n * (k - a) ** 2 for k, n in zip(window, occ))
        for coef, ops in terms:
            out = _ladder_string(ops, occ)
            if out is not None:
                h[basis.rank(out[1]), j] += coef * out[0]
    return h


@pytest.mark.parametrize("n_atoms, n_modes", [(1, 2), (2, 6), (3, 8)])
@pytest.mark.parametrize(
    "g, b, phase", [(0.7, 0.03, math.pi), (5.0, 0.0, math.pi), (0.0, 0.2, 2.1), (1.3, 0.01, 0.4)]
)
def test_factored_hamiltonian_matches_term_sums(n_atoms, n_modes, g, b, phase):
    basis = build_basis(n_atoms, n_modes)
    params = SystemParams(n_atoms=n_atoms, n_modes=n_modes, interaction=g, barrier=b, phase=phase)
    coupling = rescale_interaction(g, n_modes)
    reference = _reference_hamiltonian(basis, params, coupling.g_tilde)
    op = build_hamiltonian(params, coupling)
    assert np.max(np.abs(op.dense() - reference)) < 1e-13
    x = np.random.default_rng(0).standard_normal(basis.size)
    assert np.max(np.abs(op @ x - reference @ x)) < 1e-13
    if phase != math.pi:
        return
    for which, pieces in enumerate(cached_sector_pieces(n_atoms, n_modes)):
        block, s = assemble(pieces, params, coupling), pieces.isometry
        projected = s.T.toarray() @ reference @ s.toarray()
        y = np.random.default_rng(which).standard_normal(s.shape[1])
        assert np.max(np.abs(block @ y - projected @ y)) < 1e-13
        assert np.max(np.abs(block.dense() - projected)) < 1e-13


def test_loss_operator_ladder_rules():
    b3 = build_basis(3, 4)
    b2 = build_basis(2, 4)
    op0 = loss_operator(0, b3, b2)
    assert op0.shape == (b2.size, b3.size)
    condensate = np.zeros(b3.size)
    condensate[b3.rank([0, 3, 0, 0])] = 1.0
    out = op0 @ condensate
    assert out[b2.rank([0, 2, 0, 0])] == pytest.approx(math.sqrt(3), rel=1e-15)
    assert np.count_nonzero(out) == 1
    # annihilating an empty mode gives zero
    op1 = loss_operator(1, b3, b2)
    assert np.allclose(op1 @ condensate, 0.0)
    with pytest.raises(ValueError):
        loss_operator(5, b3, b2)  # outside the window
    with pytest.raises(ValueError):
        loss_operator(0, b3, build_basis(1, 4))


def _ranked_loss_operator(pos, basis_n, basis_nm1):
    """a_k built state by state, each target found by `FockBasis.rank`."""
    src = [j for j, occ in enumerate(basis_n.occupations) if occ[pos] > 0]
    rows, amps = [], []
    for j in src:
        occ = basis_n.occupations[j].copy()
        amps.append(math.sqrt(occ[pos]))
        occ[pos] -= 1
        rows.append(basis_nm1.rank(occ))
    return sp.coo_matrix(
        (amps, (rows, src)), shape=(basis_nm1.size, basis_n.size)
    ).tocsr()


def _assert_same_csr(m1, m2):
    assert m1.shape == m2.shape
    assert np.array_equal(m1.data, m2.data)
    assert np.array_equal(m1.indices, m2.indices)
    assert np.array_equal(m1.indptr, m2.indptr)


@pytest.mark.parametrize("n_atoms, n_modes", [(1, 2), (1, 6), (2, 4), (3, 6), (4, 8), (5, 6)])
def test_loss_operators_match_per_state_ranking(n_atoms, n_modes, monkeypatch):
    # every mode, the first and last of the window included; N=1 maps onto
    # the one-state vacuum.  The pass ranks no state at all.
    basis_n, basis_nm1 = build_basis(n_atoms, n_modes), build_basis(n_atoms - 1, n_modes)
    with monkeypatch.context() as m:
        m.setattr(type(basis_n), "rank_rows", lambda *_: pytest.fail("the pass ranked"))
        ops = loss_operators(basis_n, basis_nm1)
    assert len(ops) == n_modes
    for pos, op in enumerate(ops):
        _assert_same_csr(op, _ranked_loss_operator(pos, basis_n, basis_nm1))
    for k, op in zip((basis_n.window[0], basis_n.window[-1]), (ops[0], ops[-1])):
        _assert_same_csr(loss_operator(int(k), basis_n, basis_nm1), op)


def _sparse_sum(terms):
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


@pytest.mark.parametrize("n_atoms, n_modes", [(2, 6), (3, 8), (4, 8)])
def test_whole_space_factors_equal_explicit_products(n_atoms, n_modes):
    window = [int(k) for k in cached_basis(n_atoms, n_modes).window]
    upper = {k: cached_loss_operator(n_atoms, n_modes, k) for k in window}
    lower = {k: cached_loss_operator(n_atoms - 1, n_modes, k) for k in window}
    annihilator = _sparse_sum([upper[k] for k in window])
    pair = sp.vstack(
        [
            _sparse_sum([lower[total - k2] @ upper[k2] for k2 in window if total - k2 in lower])
            for total in range(2 * window[0], 2 * window[-1] + 1)
        ],
        format="csr",
    )
    pair.sort_indices()
    barrier_factor, interaction_factor = _whole_space_factors(n_atoms, n_modes)
    _assert_same_csr(barrier_factor.matrix, annihilator)
    _assert_same_csr(interaction_factor.matrix, pair)


def test_one_pass_builds_every_loss_operator_of_a_system(monkeypatch):
    clear_caches()
    built = []
    real = hamiltonian.loss_operators
    monkeypatch.setattr(
        hamiltonian,
        "loss_operators",
        lambda basis_n, basis_nm1: built.append(basis_n.n_atoms) or real(basis_n, basis_nm1),
    )
    ops = [cached_loss_operator(3, 8, k) for k in range(-3, 5)]
    assert built == [3]
    # one int32 index pointer for all a_k of the system
    assert all(op.indptr.dtype == op.indices.dtype == np.int32 for op in ops)
    assert all(np.shares_memory(op.indptr, ops[0].indptr) for op in ops)
    assert [cached_loss_operator(3, 8, k) for k in range(-3, 5)] == ops
    with pytest.raises(ValueError):
        cached_loss_operator(3, 8, 5)  # outside the window
    assert built == [3]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_number_conservation_under_loss(state_seed):
    b3 = cached_basis(3, 6)
    b2 = cached_basis(2, 6)
    rng = np.random.default_rng(state_seed)
    psi = rng.standard_normal(b3.size)
    psi /= np.linalg.norm(psi)
    total = 0.0
    for k in b3.window:
        phi = loss_operator(int(k), b3, b2) @ psi
        total += float(phi @ phi)
    assert total == pytest.approx(3.0, abs=1e-10)
