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
over the total momentum K of the removed pair.  A and P are built once per
(N, r) from the single-atom loss operators a_k and cached, together with
their reflection-parity blocks at Omega = pi.  A and P keep parity, so each
block is projected on both sides, from a sector of the N-atom space onto the
same sector of the target rows; this halves the rows and nonzeros that a
sector matvec touches.  A parameter point only sets the prefactors: the
Hamiltonian is applied as kin*x + b*A^T(Ax) + (g_tilde/2)*P^T(Px) without
forming the products.  The explicit sparse matrix is built from the factors
only where its entries are needed (dense solves and propagation).  Matrix
elements use the bosonic ladder conventions sqrt(n) / sqrt(n+1); explicit
matrices are exactly symmetric and rebuilding the factors is bit-identical.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .basis import FockBasis, build_basis
from .params import RescaledCoupling, SystemParams, rescale_interaction

_BASIS_CACHE: dict[tuple[int, int], FockBasis] = {}
_PIECES_CACHE: dict[tuple[int, int], "OperatorPieces"] = {}
_SECTOR_CACHE: dict[tuple[int, int], "SectorPieces"] = {}
_LOSS_CACHE: dict[tuple[int, int, int], sp.csr_matrix] = {}
# one lock for every cache: a miss builds under it, so library callers that
# solve from several threads never build the same entry twice (builds nest,
# hence reentrant)
_CACHE_LOCK = threading.RLock()


def _symmetrize(matrix: sp.spmatrix) -> sp.csr_matrix:
    out = ((matrix + matrix.T) * 0.5).tocsr()
    out.sum_duplicates()
    out.sort_indices()
    return out


@dataclass(frozen=True)
class Factor:
    """Sparse factor F of a Gram term F^T F, with F^T kept as CSR for matvecs."""

    matrix: sp.csr_matrix
    transpose: sp.csr_matrix

    @classmethod
    def of(cls, matrix: sp.spmatrix) -> "Factor":
        matrix = matrix.tocsr()
        matrix.sort_indices()
        return cls(matrix, matrix.T.tocsr())


@dataclass
class FactoredOperator:
    """H = diag(diagonal) + sum_i c_i F_i^T F_i over nonzero prefactors c_i.

    `H @ x` applies the terms factor by factor; `matrix` forms the explicit,
    exactly symmetric sparse matrix on first use.
    """

    diagonal: np.ndarray
    terms: tuple[tuple[float, Factor], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.diagonal.size, self.diagonal.size)

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
            out = out + coef * (factor.transpose @ factor.matrix)
        return _symmetrize(out)


def _hamiltonian(
    kin: np.ndarray,
    barrier: Factor,
    interaction: Factor | None,
    params: SystemParams,
    coupling: RescaledCoupling,
) -> FactoredOperator:
    terms = ((params.barrier, barrier), (0.5 * coupling.g_tilde, interaction))
    return FactoredOperator(
        kin, tuple((c, f) for c, f in terms if c != 0.0 and f is not None)
    )


def kinetic_diagonals(basis: FockBasis) -> tuple[np.ndarray, np.ndarray]:
    """Per-state sums (sum_k k*n_k, sum_k k^2*n_k) as float arrays."""
    k1 = (basis.occupations @ basis.window).astype(float)
    k2 = (basis.occupations @ (basis.window**2)).astype(float)
    return k1, k2


def _kinetic(k1: np.ndarray, k2: np.ndarray, n_atoms: int, phase: float) -> np.ndarray:
    """sum_k (k - a)^2 n_k = k2 - 2a*k1 + N*a^2 with a = Omega/2pi."""
    a = phase / (2.0 * math.pi)
    return k2 - 2.0 * a * k1 + n_atoms * a * a


def kinetic_diagonal(basis: FockBasis, phase: float) -> np.ndarray:
    """Diagonal of sum_k (k - Omega/2pi)^2 n_k."""
    return _kinetic(*kinetic_diagonals(basis), basis.n_atoms, phase)


@dataclass
class OperatorPieces:
    """Coupling-independent building blocks for one (N, r).

    `interaction_factor` is None for a single atom, which has no pairs.
    """

    basis: FockBasis
    kin_k: np.ndarray
    kin_k2: np.ndarray
    barrier_factor: Factor
    interaction_factor: Factor | None


def build_pieces(basis: FockBasis) -> OperatorPieces:
    """Kinetic sums and the factors A and P, from the cached a_k matrices."""
    n, r = basis.n_atoms, basis.n_modes
    window = [int(k) for k in basis.window]
    singles = [cached_loss_operator(n, r, k) for k in window]
    # the a_k have disjoint supports, so their sum is exact
    annihilator = sum(singles[1:], singles[0])
    pair = None
    if n >= 2:
        # P = M @ [a_k2]_k2 with block (K, k2) of M equal to the (N-1)-atom
        # a_{K-k2}, so block row K of P is sum_{k1+k2=K} a_{k1} a_{k2}
        lower = {k: cached_loss_operator(n - 1, r, k) for k in window}
        totals = range(2 * window[0], 2 * window[-1] + 1)
        blocks = [[lower.get(total - k2) for k2 in window] for total in totals]
        pair = sp.bmat(blocks, format="csr") @ sp.vstack(singles, format="csr")
    k1, k2 = kinetic_diagonals(basis)
    return OperatorPieces(
        basis=basis,
        kin_k=k1,
        kin_k2=k2,
        barrier_factor=Factor.of(annihilator),
        interaction_factor=None if pair is None else Factor.of(pair),
    )


def cached_basis(n_atoms: int, n_modes: int) -> FockBasis:
    key = (n_atoms, n_modes)
    with _CACHE_LOCK:
        if key not in _BASIS_CACHE:
            _BASIS_CACHE[key] = build_basis(n_atoms, n_modes)
        return _BASIS_CACHE[key]


def cached_pieces(n_atoms: int, n_modes: int) -> OperatorPieces:
    """Operator pieces for (N, r), memoized in-process."""
    key = (n_atoms, n_modes)
    with _CACHE_LOCK:
        if key not in _PIECES_CACHE:
            _PIECES_CACHE[key] = build_pieces(cached_basis(n_atoms, n_modes))
        return _PIECES_CACHE[key]


def assemble(
    pieces: OperatorPieces, params: SystemParams, coupling: RescaledCoupling
) -> FactoredOperator:
    """H = kinetic(Omega) + b*A^T A + (g_tilde/2)*P^T P from cached pieces."""
    kin = _kinetic(pieces.kin_k, pieces.kin_k2, params.n_atoms, params.phase)
    return _hamiltonian(
        kin, pieces.barrier_factor, pieces.interaction_factor, params, coupling
    )


def build_hamiltonian(
    basis: FockBasis, params: SystemParams, coupling: RescaledCoupling | None = None
) -> FactoredOperator:
    """Assemble the full Hamiltonian for one parameter point.

    `coupling` defaults to the leading-order rescaling of params.interaction;
    pass `raw_coupling(params.interaction)` to disable the rescaling.
    """
    if basis.n_atoms != params.n_atoms or basis.n_modes != params.n_modes:
        raise ValueError(
            f"basis (N={basis.n_atoms}, r={basis.n_modes}) does not match "
            f"params (N={params.n_atoms}, r={params.n_modes})"
        )
    if coupling is None:
        coupling = rescale_interaction(params.interaction, params.n_modes)
    return assemble(build_pieces(basis), params, coupling)


def loss_operator(k: int, basis_n: FockBasis, basis_nm1: FockBasis) -> sp.csr_matrix:
    """Annihilation operator a_k mapping N-atom to (N-1)-atom coefficients."""
    if basis_nm1.n_atoms != basis_n.n_atoms - 1:
        raise ValueError("target basis must hold one atom fewer")
    if basis_nm1.n_modes != basis_n.n_modes:
        raise ValueError("bases must share the momentum window")
    pos = basis_n.mode_position(k)  # raises for k outside the window
    occ = basis_n.occupations
    src = np.flatnonzero(occ[:, pos] > 0)
    amp = np.sqrt(occ[src, pos].astype(float))
    new = occ[src].copy()
    new[:, pos] -= 1
    rows = basis_nm1.rank_rows(new)
    matrix = sp.coo_matrix(
        (amp, (rows, src)), shape=(basis_nm1.size, basis_n.size)
    ).tocsr()
    matrix.sort_indices()
    return matrix


def cached_loss_operator(n_atoms: int, n_modes: int, k: int) -> sp.csr_matrix:
    key = (n_atoms, n_modes, k)
    with _CACHE_LOCK:
        if key not in _LOSS_CACHE:
            _LOSS_CACHE[key] = loss_operator(
                k, cached_basis(n_atoms, n_modes), cached_basis(n_atoms - 1, n_modes)
            )
        return _LOSS_CACHE[key]


@dataclass
class SectorPieces:
    """Reflection-parity (k -> 1-k) blocks of the pieces, valid at Omega = pi.

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
    sector).
    """

    basis: FockBasis
    isometries: tuple[sp.csr_matrix, sp.csr_matrix]
    kin_pi: tuple[np.ndarray, np.ndarray]
    barrier_factor: tuple[Factor, Factor]
    interaction_factor: tuple[Factor | None, Factor | None]


def _parity_orbits(perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed points, and the lower index i < perm[i] of each pair, of an
    involutive index permutation."""
    idx = np.arange(perm.size)
    return np.flatnonzero(perm == idx), np.flatnonzero(perm > idx)


def _parity_isometries(
    perm: np.ndarray,
) -> tuple[sp.csr_matrix, sp.csr_matrix, np.ndarray, np.ndarray]:
    """Isometries onto the even/odd eigenspaces of an involutive index
    permutation, plus the orbit representative of each sector column.

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
    return s_even, s_odd, reps_even, pair_lo


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


def cached_sector_pieces(n_atoms: int, n_modes: int) -> SectorPieces:
    key = (n_atoms, n_modes)
    with _CACHE_LOCK:
        if key not in _SECTOR_CACHE:
            _SECTOR_CACHE[key] = _project_pieces(cached_pieces(n_atoms, n_modes))
        return _SECTOR_CACHE[key]


def _project_pieces(pieces: OperatorPieces) -> SectorPieces:
    basis = pieces.basis
    n, r = basis.n_atoms, basis.n_modes
    s_even, s_odd, reps_even, reps_odd = _parity_isometries(
        basis.reflection_permutation()
    )
    # a = 1/2 exactly at Omega = pi
    kin_full = _kinetic(pieces.kin_k, pieces.kin_k2, n, math.pi)
    a, p = pieces.barrier_factor.matrix, pieces.interaction_factor
    return SectorPieces(
        basis=basis,
        isometries=(s_even, s_odd),
        # the orbit representative carries the (reflection-invariant) diagonal
        kin_pi=(kin_full[reps_even], kin_full[reps_odd]),
        barrier_factor=_two_sided(
            a, cached_basis(n - 1, r).reflection_permutation(), (s_even, s_odd)
        ),
        interaction_factor=(
            (None, None) if p is None
            else _two_sided(p.matrix, _pair_row_reflection(n, r), (s_even, s_odd))
        ),
    )


def assemble_sector(
    sector: SectorPieces, params: SystemParams, coupling: RescaledCoupling, which: int
) -> FactoredOperator:
    """Parity block (0 = even, 1 = odd) of the Hamiltonian at Omega = pi."""
    return _hamiltonian(
        sector.kin_pi[which],
        sector.barrier_factor[which],
        sector.interaction_factor[which],
        params,
        coupling,
    )


def clear_caches() -> None:
    with _CACHE_LOCK:
        _BASIS_CACHE.clear()
        _PIECES_CACHE.clear()
        _SECTOR_CACHE.clear()
        _LOSS_CACHE.clear()
