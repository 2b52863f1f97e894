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
block's columns into the N-atom space.  The whole space is one block with
S the identity; at Omega = pi the two reflection-parity sectors are two
blocks, with H = sum_s S_s H_s S_s^T.  A and P keep parity, so a sector's
factors are projected on both sides, from the sector of the N-atom space
onto the same sector of the target rows; this halves the rows and nonzeros
that a sector matvec touches.  Blocks are built once per (N, r) from the
single-atom loss operators a_k, all of one (N, r) in one pass without
ranking (`loss_operators`); A, the stacked a_k and the matrix M with
P = M @ [a_k]_k are each filled straight into CSR (every a_k holds one entry
per target row).  A parameter point only sets the prefactors: `assemble`
applies a block's H_s as kin*x + b*A^T(Ax) + (g_tilde/2)*P^T(Px) without
forming the products, each F^T through F's CSC view, which sums every
output's terms in the order of a CSR copy of F^T.
`build_hamiltonian` is the whole operator at a point, assembled on the
cached whole-space block; `solver.hamiltonian_blocks` gives the same point
as its block list.  The explicit sparse matrix is built from the factors
only for dense solves.  Matrix elements use the bosonic ladder conventions
sqrt(n) / sqrt(n+1); explicit matrices are exactly symmetric and rebuilding
the factors is bit-identical.
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
    """H = diag(diagonal) + sum_i c_i F_i^T F_i over nonzero prefactors c_i.

    `H @ x` applies the terms factor by factor; `matrix` forms the explicit,
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


def _block_rows(blocks: list, shape: tuple[int, int]) -> sp.csr_matrix:
    """One CSR matrix from equal-height block rows, each a list of
    (a, column offset) whose a hold one entry per row, as every a_k does:
    row i of a block holds entry i of each a, shifted by its offset, in list
    order."""
    height = blocks[0][0][0].shape[0]
    widths = [len(parts) for parts in blocks]
    nnz = height * sum(widths)
    # scipy's index type for the shape and nnz, which every index lies below
    index = np.int32 if max(nnz, *shape) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(len(blocks) * height + 1, index)
    np.cumsum(np.repeat(widths, height), out=indptr[1:], dtype=index)
    indices, data = np.empty(nnz, index), np.empty(nnz)
    for parts, start in zip(blocks, indptr[::height]):
        for j, (a, offset) in enumerate(parts):
            entries = slice(start + j, start + height * len(parts), len(parts))
            np.add(a.indices, offset, out=indices[entries], dtype=index)
            data[entries] = a.data
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def build_pieces(basis: FockBasis) -> Block:
    """The whole space as one block (S = identity): the kinetic sums and the
    factors A and P, from the cached a_k matrices."""
    n, r = basis.n_atoms, basis.n_modes
    singles = [cached_loss_operator(n, r, int(k)) for k in basis.window]
    rows = singles[0].shape[0]
    # the a_k have disjoint supports, so their sum is exact
    annihilator = _block_rows([[(a, 0) for a in singles]], (rows, basis.size))
    pair = None
    if n >= 2:
        # P = M @ [a_k2]_k2 with block (K, k2) of M equal to the (N-1)-atom
        # a_{K-k2}, so block row K of P is sum_{k1+k2=K} a_{k1} a_{k2}; for
        # K = 2*k_min + t and k2 = k_min + c, K - k2 is window position t - c
        lower = [cached_loss_operator(n - 1, r, int(k)) for k in basis.window]
        mixer = [[(lower[t - c], c * rows) for c in range(r) if 0 <= t - c < r]
                 for t in range(2 * r - 1)]
        stacked = [[(a, 0)] for a in singles]
        # M and V are temporaries of the product (peak memory)
        pair = _block_rows(mixer, ((2 * r - 1) * lower[0].shape[0], r * rows)) @ _block_rows(
            stacked, (r * rows, basis.size)
        )
    return Block(
        kin_k=basis.total_k.astype(float),
        kin_k2=mode_sum(basis.occupations, basis.window**2).astype(float),
        barrier_factor=Factor.of(annihilator),
        interaction_factor=None if pair is None else Factor.of(pair),
        isometry=sp.identity(basis.size, format="csr"),
    )


def cached_basis(n_atoms: int, n_modes: int) -> FockBasis:
    return _cached(("basis", n_atoms, n_modes), lambda: build_basis(n_atoms, n_modes))


def cached_pieces(n_atoms: int, n_modes: int) -> Block:
    """The whole-space block for (N, r), memoized in-process."""
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
    """The whole operator at one parameter point, on the cached whole-space block.

    `coupling` defaults to the rescaling of params.interaction;
    pass `raw_coupling(params.interaction)` to disable the rescaling.
    """
    if coupling is None:
        coupling = rescale_interaction(params.interaction, params.n_modes)
    return assemble(cached_pieces(params.n_atoms, params.n_modes), params, coupling)


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
    """The (even, odd) reflection-parity (k -> 1-k) blocks, valid at Omega = pi.

    At the crossing point the reflection commutes with every Hamiltonian
    piece, so with S the isometry onto a sector, the sector block of
    b*A^T A + (g_tilde/2)*P^T P is b*(AS)^T(AS) + (g_tilde/2)*(PS)^T(PS).
    The reflection also maps A's target space onto itself and P's stacked
    rows (K, i) onto (2-K, reflected i), so A and P keep parity:
    AS = S'(S'^T A S) with S' the same-parity isometry of A's target, and
    likewise for P.  Each sector keeps the two-sided factors S'^T A S and
    S''^T P S, whose Gram products equal (AS)^T(AS) and (PS)^T(PS) and
    whose rows are the target's parity orbits only: half the rows and half
    the nonzeros of AS and PS (N=5, r=20: 88,550 and 161,700 nonzeros per
    sector).  The kinetic sums are those of each column's orbit
    representative; at Omega = pi the kinetic term is reflection-invariant.
    """
    return _cached(("sectors", n_atoms, n_modes), lambda: _sector_blocks(n_atoms, n_modes))


def _sector_blocks(n_atoms: int, n_modes: int) -> tuple[Block, Block]:
    whole = cached_pieces(n_atoms, n_modes)
    isometries, reps = _parity_isometries(
        cached_basis(n_atoms, n_modes).reflection_permutation()
    )
    barrier = _two_sided(
        whole.barrier_factor.matrix,
        cached_basis(n_atoms - 1, n_modes).reflection_permutation(),
        isometries,
    )
    p = whole.interaction_factor
    interaction = (
        (None, None) if p is None
        else _two_sided(p.matrix, _pair_row_reflection(n_atoms, n_modes), isometries)
    )
    return tuple(
        Block(whole.kin_k[r], whole.kin_k2[r], a, f, s)
        for r, a, f, s in zip(reps, barrier, interaction, isometries)
    )


def _parity_orbits(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed points, and the lower index i < perm[i] of each pair, of an
    involutive index permutation."""
    idx = np.arange(perm.size)
    return np.flatnonzero(perm == idx), np.flatnonzero(perm > idx)


def _parity_isometries(
    perm: np.ndarray,
) -> tuple[tuple[sp.csr_matrix, sp.csr_matrix], tuple[np.ndarray, np.ndarray]]:
    """Isometries onto the even/odd eigenspaces of an involutive index
    permutation, and the orbit representative of each sector column.

    Fixed points span the even sector alone; each pair (i, perm[i]) gives one
    even column (e_i + e_perm[i])/sqrt(2) and one odd column
    (e_i - e_perm[i])/sqrt(2).  Columns follow the orbits: fixed points
    first, then pairs by their lower index.
    """
    size = perm.size
    fixed, pair_lo = _parity_orbits(perm)
    pair_hi = perm[pair_lo]
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
    reps_even = np.concatenate([fixed, pair_lo])

    rows = np.concatenate([pair_lo, pair_hi])
    cols = np.concatenate([np.arange(pair_lo.size), np.arange(pair_lo.size)])
    vals = np.concatenate([np.full(pair_lo.size, inv), np.full(pair_lo.size, -inv)])
    s_odd = sp.coo_matrix((vals, (rows, cols)), shape=(size, pair_lo.size)).tocsr()
    return (s_even, s_odd), (reps_even, pair_lo)


def _pair_row_reflection(n_atoms: int, n_modes: int) -> np.ndarray:
    """Reflection of P's stacked rows: (K, i) -> (2-K, R(i)), i an
    (N-2)-atom state.  `build_pieces` stacks the blocks over
    K = 2*k_min..2*k_max, a range that K -> 2-K reverses."""
    perm = cached_basis(n_atoms - 2, n_modes).reflection_permutation()
    n_totals = 2 * n_modes - 1
    blocks = np.arange(n_totals)[::-1, None] * perm.size
    return (blocks + perm[None, :]).ravel()


def _two_sided(
    matrix: sp.csr_matrix, target_perm: np.ndarray, columns: tuple[sp.csr_matrix, ...]
) -> tuple[Factor, ...]:
    """Factors S'_s^T F S_s for s = even, odd, with S'_s the isometries of
    the target permutation (`_parity_isometries`).

    F S_s has parity s, so the rows of a pair (i, perm[i]) are equal up to
    sign and S'_s^T F S_s is row i of F S_s, times sqrt(2) for a pair: only
    the representative rows are formed, and S'_s is never built.
    """
    fixed, pair_lo = _parity_orbits(target_perm)
    root2 = np.full(pair_lo.size, math.sqrt(2.0))
    sectors = (
        (np.concatenate([fixed, pair_lo]), np.concatenate([np.ones(fixed.size), root2])),
        (pair_lo, root2),
    )
    return tuple(
        Factor.of(sp.diags(scale) @ (matrix[rows] @ s))
        for (rows, scale), s in zip(sectors, columns)
    )
