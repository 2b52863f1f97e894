"""Hamiltonian of N bosons on the ring, kept in factored form.

The many-body Hamiltonian has three pieces with scalar prefactors (canonical
units, L = E0 = hbar = 1):

    kinetic      sum_k (k - Omega/2pi)^2 n_k            (diagonal)
    barrier      b * sum_{k1,k2} a+_{k1} a_{k2}         (all mode pairs)
    interaction  (g_tilde/2) * sum a+_{k1} a+_{k2} a_{k1-q} a_{k2+q}

The interaction keeps every normal-ordered term whose four mode indices lie
inside the window (strict projection of the contact interaction).  Both
coupling terms are Gram products of one annihilator each:

    barrier      b * A^T A             A = sum_k a_k                  (N -> N-1 atoms)
    interaction  (g_tilde/2) * P^T P   P = [P_K]_K, P_K = sum_{k1+k2=K} a_{k1} a_{k2}
                                                                      (N -> N-2 atoms)

where the pair annihilators P_K, summed over ordered mode pairs, are stacked
over the total momentum K of the removed pair.

One `Block` type holds the coupling-independent pieces of H on a set of
columns: the kinetic sums, the factors A and P, and the isometry S from the
block's columns into the N-atom space.  The two reflection-parity (k -> 1-k)
sectors are the only blocks an (N, r) keeps (`cached_sector_pieces`), and
their factors the only Gram factors.  A and P keep parity, so a sector's
factors are projected on both sides, from the sector of the N-atom space
onto the same sector of the target rows; this halves the rows and nonzeros
that a sector matvec touches.  Only the target's representative rows of A
and P are formed, straight from the single-atom loss operators a_k, and
neither is formed whole: every a_k, and so every product a_{k1} a_{k2},
holds one entry per target row, so a row of A = sum_k a_k or of
P_K = sum_{k1+k2=K} a_{k1} a_{k2} is filled straight into CSR.  All a_k of
one (N, r) come from one pass without ranking (`loss_operators`).
`cached_pieces` holds what the blocks are cut from besides the a_k: the
orbits of the reflection and the kinetic sums of their representatives.

A parameter point only sets the prefactors: `assemble` applies a block's H_s
as kin*x + b*A^T(Ax) + (g_tilde/2)*P^T(Px) without forming the products,
each F^T through F's CSC view, which sums every output's terms in the order
of a CSR copy of F^T.  At Omega = pi, H = sum_s S_s H_s S_s^T.  At any
other phase the reflection no longer commutes with the kinetic term, and H
is one block: `build_hamiltonian`, the operator in the Fock basis, on
whole-space factors built from the basis and the a_k on each call and not
kept.  The explicit sparse matrix is built from the factors only for dense
solves.
Matrix elements use the bosonic ladder conventions sqrt(n) / sqrt(n+1);
explicit matrices are exactly symmetric and rebuilding the factors is
bit-identical.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis import FockBasis, build_basis, mode_sum
from .params import RescaledCoupling, SystemParams, rescale_interaction

# rows of a factor formed at once while building the sector factors, which
# bounds the build's temporaries (rows of A or P and their products with S)
ROW_CHUNK = 1 << 16

_CACHE: dict[tuple, object] = {}
# a miss builds under the lock, so library callers that solve from several
# threads never build the same entry twice (builds nest, hence reentrant)
_CACHE_LOCK = threading.RLock()


def _cached(key: tuple, build):
    with _CACHE_LOCK:
        if key not in _CACHE:
            _CACHE[key] = build()
        return _CACHE[key]


def clear_caches() -> None:
    with _CACHE_LOCK:
        _CACHE.clear()


def _symmetrize(matrix: sp.spmatrix) -> sp.csr_matrix:
    out = ((matrix + matrix.T) * 0.5).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


@dataclass(frozen=True)
class Factor:
    """Sparse factor F of a Gram term F^T F, stored once: `transpose` is the
    CSC view of the sorted CSR `matrix`, sharing its three arrays.  A CSR
    copy of F^T is only a temporary, where a sum must run over its rows."""

    matrix: sp.csr_matrix
    transpose: sp.csc_matrix

    @classmethod
    def of(cls, matrix: sp.spmatrix) -> "Factor":
        matrix = matrix.tocsr()
        matrix.sort_indices()
        return cls(matrix, matrix.T)

    @cached_property
    def column_norms2(self) -> np.ndarray:
        """|F e_j|^2 per column j: the term's contribution to diag(F^T F)."""
        rows = self.transpose.tocsr()
        return np.asarray(rows.multiply(rows).sum(axis=1)).ravel()


@dataclass
class FactoredOperator:
    """H = diag(diagonal) + sum_i c_i F_i^T F_i over nonzero prefactors c_i:
    a parity sector at the crossing, the Fock-basis operator elsewhere.

    `H @ x` applies the terms one by one; `matrix` forms the explicit,
    exactly symmetric sparse matrix on first use.
    """

    diagonal: np.ndarray
    terms: tuple[tuple[float, Factor], ...]

    @property
    def dimension(self) -> int:
        return self.diagonal.size

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        y = x * (self.diagonal if x.ndim == 1 else self.diagonal[:, None])
        for coef, factor in self.terms:
            y += coef * (factor.transpose @ (factor.matrix @ x))
        return y

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        out = sp.diags(self.diagonal, format="csr")
        for coef, factor in self.terms:
            out = out + coef * (factor.transpose.tocsr() @ factor.matrix)
        return _symmetrize(out)


def _kinetic(k1: np.ndarray, k2: np.ndarray, n_atoms: int, phase: float) -> np.ndarray:
    """sum_k (k - a)^2 n_k = k2 - 2a*k1 + N*a^2 with a = Omega/2pi."""
    a = phase / (2.0 * math.pi)
    return k2 - 2.0 * a * k1 + n_atoms * a * a


@dataclass(frozen=True)
class Block:
    """Coupling-independent pieces of one block H_s of H = sum_s S_s H_s S_s^T.

    Every field covers the block's columns only: the kinetic sums
    sum_k k*n_k and sum_k k^2*n_k per column, the factors of b*A^T A and
    (g_tilde/2)*P^T P (`interaction_factor` is None for a single atom, which
    has no pairs), and the isometry S_s from the columns into the N-atom space.
    """

    kin_k: np.ndarray
    kin_k2: np.ndarray
    barrier_factor: Factor
    interaction_factor: Factor | None
    isometry: sp.csr_matrix


@dataclass(frozen=True)
class Pieces:
    """What the sector blocks of (N, r) are cut from besides the a_k.

    The orbits of the reflection k -> 1-k: the states it fixes, and the
    lower and upper index of each pair of states it swaps, by lower index.
    And the kinetic sums sum_k k*n_k and sum_k k^2*n_k of each orbit's
    representative, the fixed states and then the lower members: the even
    sector's columns, whose tail past the fixed states is the odd sector's.
    The sector blocks hold these arrays and views of them, not copies.
    """

    fixed: np.ndarray
    pair_lo: np.ndarray
    pair_hi: np.ndarray
    kin_k: np.ndarray
    kin_k2: np.ndarray


def _block_rows(blocks: list, width: int, rows: np.ndarray | None = None) -> sp.csr_matrix:
    """One CSR matrix of `width` columns from equal-height block rows, each a
    list of terms (w, a, b) whose operators hold one entry per row, as every
    a_k does: row i of a block holds the one entry of row i of w * a @ b
    (b None: of w * a) for each of its terms, in list order.  `rows` selects
    the rows (block index) * height + i to form, ascending (default: all)."""
    height = blocks[0][0][1].shape[0]
    widths = np.array([len(terms) for terms in blocks])
    if rows is None:
        bounds = np.arange(len(blocks) + 1) * height
        counts = np.repeat(widths, height)
    else:
        block, within = np.divmod(rows, height)
        bounds = np.searchsorted(block, np.arange(len(blocks) + 1))
        counts = widths[block]
    nnz = int(counts.sum())
    # scipy's index type for the shape and nnz, which every index lies below
    index = np.int32 if max(nnz, counts.size, width) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(counts.size + 1, index)
    np.cumsum(counts, out=indptr[1:], dtype=index)
    indices, data = np.empty(nnz, index), np.empty(nnz)
    # a block's rows are contiguous, and so are their entries; a block whose
    # rows are all selected (most of P's, the blocks of K < 1) reads a whole
    for terms, lo, hi in zip(blocks, bounds[:-1], bounds[1:]):
        source = slice(None) if hi - lo == height else within[lo:hi]
        for j, (weight, a, b) in enumerate(terms):
            entries = slice(indptr[lo] + j, indptr[hi], len(terms))
            column, value = a.indices[source], a.data[source]
            if b is not None:
                column, value = b.indices[column], value * b.data[column]
            indices[entries] = column
            data[entries] = value if weight == 1.0 else weight * value
    return sp.csr_matrix((data, indices, indptr), shape=(counts.size, width))


def _gram_blocks(n_atoms: int, n_modes: int) -> tuple[list, list | None]:
    """The block rows (`_block_rows`) of A and of P, from the cached a_k; P's
    are None for a single atom, which has no pairs.

    A = sum_k a_k in one block: the a_k have disjoint supports, so the sum is
    exact.  Block row K = 2*k_min + t of P is P_K = sum_{k1+k2=K} a_{k1} a_{k2}
    over ordered pairs, where each a_{k1} a_{k2} (N-1 and N-atom operators)
    holds one entry per row, and (k1, k2) and (k2, k1) give the same entry,
    the same two square roots in the other order: one term
    2 a_{k1} a_{k2} per unordered pair k2 < k1 (a_{k2}^2 once for k1 = k2),
    with k2 = k_min + c and k1 = k_min + t - c.
    """
    window = cached_basis(n_atoms, n_modes).window
    singles = [cached_loss_operator(n_atoms, n_modes, int(k)) for k in window]
    annihilator = [[(1.0, a, None) for a in singles]]
    if n_atoms < 2:
        return annihilator, None
    lower = [cached_loss_operator(n_atoms - 1, n_modes, int(k)) for k in window]
    r = n_modes
    pair = [
        [(1.0 if 2 * c == t else 2.0, lower[t - c], singles[c])
         for c in range(max(0, t - r + 1), t // 2 + 1)]
        for t in range(2 * r - 1)
    ]
    return annihilator, pair


def _kinetic_sums(basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """sum_k k*n_k and sum_k k^2*n_k of every state, as floats."""
    return basis.total_k.astype(float), mode_sum(basis.occupations, basis.window**2).astype(float)


def build_pieces(basis: FockBasis) -> Pieces:
    """The reflection orbits of the basis, and the kinetic sums of their
    representatives."""
    perm = basis.reflection_permutation()
    fixed, pair_lo = _parity_orbits(perm)
    reps = np.concatenate([fixed, pair_lo])
    kin_k, kin_k2 = _kinetic_sums(basis)
    return Pieces(fixed, pair_lo, perm[pair_lo], kin_k[reps], kin_k2[reps])


def cached_basis(n_atoms: int, n_modes: int) -> FockBasis:
    return _cached(("basis", n_atoms, n_modes), lambda: build_basis(n_atoms, n_modes))


def cached_pieces(n_atoms: int, n_modes: int) -> Pieces:
    """`build_pieces` for (N, r), memoized in-process."""
    return _cached(
        ("pieces", n_atoms, n_modes), lambda: build_pieces(cached_basis(n_atoms, n_modes))
    )


def assemble(block: Block, params: SystemParams, coupling: RescaledCoupling) -> FactoredOperator:
    """H_s = kinetic(Omega) + b*A_s^T A_s + (g_tilde/2)*P_s^T P_s on one block.

    A parity-sector block is a block of H only at Omega = pi exactly.
    """
    kin = _kinetic(block.kin_k, block.kin_k2, params.n_atoms, params.phase)
    terms = (
        (params.barrier, block.barrier_factor),
        (0.5 * coupling.g_tilde, block.interaction_factor),
    )
    return FactoredOperator(
        kin, tuple((c, f) for c, f in terms if c != 0.0 and f is not None)
    )


def build_hamiltonian(
    params: SystemParams, coupling: RescaledCoupling | None = None
) -> FactoredOperator:
    """The operator in the Fock basis at one parameter point, on whole-space
    kinetic sums and factors built from the basis and the cached a_k on each
    call and not kept: the one block of H off the crossing, and at the
    crossing a reference that shares nothing with the sector blocks.

    `coupling` defaults to the rescaling of params.interaction;
    pass `raw_coupling(params.interaction)` to disable the rescaling.
    """
    if coupling is None:
        coupling = rescale_interaction(params.interaction, params.n_modes)
    basis = cached_basis(params.n_atoms, params.n_modes)
    annihilator, pair = _gram_blocks(params.n_atoms, params.n_modes)
    whole = Block(
        *_kinetic_sums(basis),
        Factor.of(_block_rows(annihilator, basis.size)),
        None if pair is None else Factor.of(_block_rows(pair, basis.size)),
        sp.identity(basis.size, format="csr"),
    )
    return assemble(whole, params, coupling)


def loss_operators(basis_n: FockBasis, basis_nm1: FockBasis) -> tuple[sp.csr_matrix, ...]:
    """Every a_k of the window, in window order, mapping N-atom to (N-1)-atom
    coefficients.  Removing an atom from mode k maps the states with n_k > 0
    one to one onto the (N-1)-atom states, in the same lexicographic order
    both bases are enumerated in: source i goes to row i, with no ranking.
    The operators share one int32 index pointer."""
    if basis_nm1.n_atoms != basis_n.n_atoms - 1:
        raise ValueError("target basis must hold one atom fewer")
    if basis_nm1.n_modes != basis_n.n_modes:
        raise ValueError("bases must share the momentum window")
    indptr = np.arange(basis_nm1.size + 1, dtype=np.int32)
    ops = []
    for column in basis_n.occupations.T:
        src = np.flatnonzero(column).astype(np.int32)
        amp = np.sqrt(column[src].astype(float))
        ops.append(sp.csr_matrix((amp, src, indptr), shape=(basis_nm1.size, basis_n.size)))
    return tuple(ops)


def loss_operator(k: int, basis_n: FockBasis, basis_nm1: FockBasis) -> sp.csr_matrix:
    """The a_k entry of `loss_operators`; raises for k outside the window."""
    return loss_operators(basis_n, basis_nm1)[basis_n.mode_position(k)]


def cached_loss_operator(n_atoms: int, n_modes: int, k: int) -> sp.csr_matrix:
    """a_k for (N, r); a miss builds and caches every a_k of (N, r) at once."""
    basis_n = cached_basis(n_atoms, n_modes)
    ops = _cached(
        ("loss", n_atoms, n_modes),
        lambda: loss_operators(basis_n, cached_basis(n_atoms - 1, n_modes)),
    )
    return ops[basis_n.mode_position(k)]


def cached_sector_pieces(n_atoms: int, n_modes: int) -> tuple[Block, Block]:
    """The (even, odd) reflection-parity (k -> 1-k) blocks of (N, r), whose
    factors are the only Gram factors it keeps: the blocks of H at
    Omega = pi.  Off the crossing H is the Fock-basis operator of
    `build_hamiltonian`, which reads none of them.

    The reflection commutes with A^T A and P^T P, so with S the isometry
    onto a sector, the sector block of b*A^T A + (g_tilde/2)*P^T P is
    b*(AS)^T(AS) + (g_tilde/2)*(PS)^T(PS).  The reflection also maps A's
    target space onto itself and P's stacked rows (K, i) onto
    (2-K, reflected i), so A and P keep parity: AS = S'(S'^T A S) with S'
    the same-parity isometry of A's target, and likewise for P.  Each
    sector keeps the two-sided factors S'^T A S and S''^T P S, whose Gram
    products equal (AS)^T(AS) and (PS)^T(PS) and whose rows are the target's
    parity orbits only: half the rows and half the nonzeros of AS and PS
    (N=5, r=20: 88,550 and 161,700 nonzeros per sector).  They are built
    straight from the a_k, one representative row of each target orbit
    (`_gram_blocks`), with no whole-space A or P.  The kinetic sums are
    those of each column's orbit representative, held by `cached_pieces`;
    at Omega = pi the kinetic term is reflection-invariant.
    """
    return _cached(("sectors", n_atoms, n_modes), lambda: _sector_blocks(n_atoms, n_modes))


def _sector_blocks(n_atoms: int, n_modes: int) -> tuple[Block, Block]:
    pieces = cached_pieces(n_atoms, n_modes)
    isometries = _parity_isometries(pieces)
    annihilator, pair = _gram_blocks(n_atoms, n_modes)
    barrier = _two_sided(
        annihilator, cached_basis(n_atoms - 1, n_modes).reflection_permutation(), isometries
    )
    interaction = (
        (None, None) if pair is None
        else _two_sided(pair, _pair_row_reflection(n_atoms, n_modes), isometries)
    )
    # the odd columns are the even ones past the fixed states
    columns = (slice(None), slice(pieces.fixed.size, None))
    return tuple(
        Block(pieces.kin_k[c], pieces.kin_k2[c], a, f, s)
        for c, a, f, s in zip(columns, barrier, interaction, isometries)
    )


def _parity_orbits(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed points, and the lower index i < perm[i] of each pair, of an
    involutive index permutation."""
    idx = np.arange(perm.size)
    return np.flatnonzero(perm == idx), np.flatnonzero(perm > idx)


def _parity_isometries(pieces: Pieces) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Isometries onto the even/odd eigenspaces of the reflection.

    Fixed points span the even sector alone; each pair (lo, hi) gives one
    even column (e_lo + e_hi)/sqrt(2) and one odd column
    (e_lo - e_hi)/sqrt(2).  Columns follow the orbits: fixed points first,
    then pairs by their lower index.
    """
    fixed, pair_lo, pair_hi = pieces.fixed, pieces.pair_lo, pieces.pair_hi
    size = fixed.size + 2 * pair_lo.size
    inv = 1.0 / math.sqrt(2.0)

    n_even = fixed.size + pair_lo.size
    rows = np.concatenate([fixed, pair_lo, pair_hi])
    cols = np.concatenate(
        [np.arange(fixed.size), np.arange(pair_lo.size) + fixed.size,
         np.arange(pair_lo.size) + fixed.size]
    )
    vals = np.concatenate(
        [np.ones(fixed.size), np.full(pair_lo.size, inv), np.full(pair_lo.size, inv)]
    )
    s_even = sp.coo_matrix((vals, (rows, cols)), shape=(size, n_even)).tocsr()

    rows = np.concatenate([pair_lo, pair_hi])
    cols = np.concatenate([np.arange(pair_lo.size), np.arange(pair_lo.size)])
    vals = np.concatenate([np.full(pair_lo.size, inv), np.full(pair_lo.size, -inv)])
    s_odd = sp.coo_matrix((vals, (rows, cols)), shape=(size, pair_lo.size)).tocsr()
    return s_even, s_odd


def _pair_row_reflection(n_atoms: int, n_modes: int) -> np.ndarray:
    """Reflection of P's stacked rows: (K, i) -> (2-K, R(i)), i an
    (N-2)-atom state.  `_gram_blocks` stacks the blocks over
    K = 2*k_min..2*k_max, a range that K -> 2-K reverses."""
    perm = cached_basis(n_atoms - 2, n_modes).reflection_permutation()
    n_totals = 2 * n_modes - 1
    blocks = np.arange(n_totals)[::-1, None] * perm.size
    return (blocks + perm[None, :]).ravel()


def _two_sided(
    blocks: list, target_perm: np.ndarray, columns: tuple[sp.csr_matrix, ...]
) -> tuple[Factor, ...]:
    """Factors S'_s^T F S_s for s = even, odd, with S'_s the isometries of
    the target permutation (as `_parity_isometries` builds them) and F given
    by its block rows (`_block_rows`).

    F S_s has parity s, so the rows of a pair (i, perm[i]) are equal up to
    sign and S'_s^T F S_s is row i of F S_s, times sqrt(2) for a pair: only
    the representative rows of F are formed, the fixed rows and then the
    lower row of each pair, `ROW_CHUNK` at a time, and S'_s is never built.
    """
    fixed, pair_lo = _parity_orbits(target_perm)
    root2 = math.sqrt(2.0)
    sectors = (((fixed, 1.0), (pair_lo, root2)), ((pair_lo, root2),))
    return tuple(
        Factor.of(sp.vstack([
            sp.diags(np.full(chunk.size, scale)) @ (_block_rows(blocks, s.shape[0], chunk) @ s)
            for rows, scale in runs
            for chunk in np.split(rows, range(ROW_CHUNK, rows.size, ROW_CHUNK))
        ], "csr"))
        for runs, s in zip(sectors, columns)
    )
