"""Occupation-number basis over a truncated ring-momentum window.

States are weak compositions (n_k) of N atoms over the integer momenta
k in {-r/2+1, ..., r/2}, enumerated in ascending lexicographic order of the
occupation tuple read from the most negative momentum, into a read-only table
of the smallest signed integer type that holds N (int8 up to N = 127), which
is read one mode column at a time and never cast as a whole.  A state's index
is its closed-form combinatorial rank, computed from a small binomial table and
vectorized over many states by `rank_rows`; no per-state lookup is stored.
`hamiltonian.loss_operators` relies on rank order being enumeration order
(guarded by `tests/test_basis.py::test_rank_unrank_bijection`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import DimensionCapError

DEFAULT_DIMENSION_CAP = 5_000_000


def momentum_window(n_modes: int) -> np.ndarray:
    if n_modes < 2 or n_modes % 2:
        raise ValueError(f"n_modes must be even and >= 2, got {n_modes}")
    half = n_modes // 2
    return np.arange(-half + 1, half + 1, dtype=np.int64)


def basis_size(n_atoms: int, n_modes: int) -> int:
    return comb(n_atoms + n_modes - 1, n_atoms)


def mode_sum(occupations: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k weights[k] * n_k per state, exact in int64, one mode column at a time."""
    out = np.zeros(occupations.shape[0], dtype=np.int64)
    for column, weight in zip(occupations.T, weights):
        out += np.multiply(column, weight, dtype=np.int64)
    return out


@dataclass
class FockBasis:
    """Immutable enumeration of the N-atom basis with closed-form ranking."""

    n_atoms: int
    window: np.ndarray
    occupations: np.ndarray
    _binom: np.ndarray = field(repr=False)
    total_k: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    @property
    def n_modes(self) -> int:
        return self.window.size

    def mode_position(self, k: int) -> int:
        pos = int(k) - int(self.window[0])
        if pos < 0 or pos >= self.n_modes:
            raise ValueError(f"momentum {k} outside window [{self.window[0]}, {self.window[-1]}]")
        return pos

    def rank(self, occupations) -> int:
        occ = np.asarray(occupations, dtype=np.int64)
        # rank_rows assumes a valid state and would misrank any other row
        if occ.shape != (self.n_modes,) or occ.min() < 0 or occ.sum() != self.n_atoms:
            raise KeyError(f"occupation {occ.tolist()} not in basis")
        return int(self.rank_rows(occ[None, :])[0])

    def rank_rows(self, occ2d: np.ndarray) -> np.ndarray:
        """Closed-form lexicographic ranks of many occupation rows, column by column."""
        occ = np.asarray(occ2d)
        r = self.n_modes
        # atoms left to place at position j (before placing n_j), per row
        remaining = np.full(occ.shape[0], self.n_atoms, dtype=np.int64)
        ranks = np.zeros(occ.shape[0], dtype=np.int64)
        for j in range(r - 1):
            p = r - 1 - j
            after = remaining - occ[:, j]
            ranks += self._binom[remaining + p, p] - self._binom[after + p, p]
            remaining = after
        return ranks

    def sector_indices(self, total_k: int) -> np.ndarray:
        """Dense indices of all states with the given total angular momentum."""
        return np.flatnonzero(self.total_k == total_k)

    def sector_momenta(self) -> np.ndarray:
        """Sorted distinct total-K values present in the basis."""
        return np.unique(self.total_k)

    def reflection_permutation(self) -> np.ndarray:
        """Basis permutation induced by the momentum reflection k -> 1-k.

        The symmetric window maps onto itself under k -> 1-k, which is a plain
        reversal of the occupation array; the induced permutation is an
        involution.
        """
        return self.rank_rows(self.occupations[:, ::-1])


def build_basis(
    n_atoms: int, n_modes: int, dimension_cap: int = DEFAULT_DIMENSION_CAP
) -> FockBasis:
    """Enumerate the full N-atom basis in ascending lexicographic order.

    Built from the last mode backwards, holding two widths at a time: the
    a-atom states of the last w modes are, for n = 0..a, n atoms in the first
    of them followed by the (a-n)-atom states of the other w-1.  N = 0 gives
    the one-state vacuum, the target of the two-atom pair annihilator.
    """
    if n_atoms < 0:
        raise ValueError(f"n_atoms must be >= 0, got {n_atoms}")
    window = momentum_window(n_modes)
    size = basis_size(n_atoms, n_modes)
    if size > dimension_cap:
        raise DimensionCapError(
            f"basis size C({n_atoms + n_modes - 1},{n_atoms}) = {size} "
            f"exceeds the dimension cap {dimension_cap}"
        )
    dtype = np.min_scalar_type(-n_atoms - 1)  # signed, and its maximum is at least N
    tables = [np.full((1, 1), a, dtype=dtype) for a in range(n_atoms + 1)]
    for width in range(2, n_modes + 1):
        wider = []  # the full width needs the N-atom table alone
        for a in range(n_atoms if width == n_modes else 0, n_atoms + 1):
            tails = tables[a::-1]  # after n = 0..a atoms in the new first mode
            lengths = [len(t) for t in tails]
            table = np.empty((sum(lengths), width), dtype=dtype)
            table[:, 0] = np.repeat(np.arange(a + 1, dtype=dtype), lengths)
            np.concatenate(tails, out=table[:, 1:])
            wider.append(table)
        tables = wider
    occupations = tables[-1]
    occupations.setflags(write=False)

    a_max = n_atoms + n_modes
    binom = np.zeros((a_max + 1, n_modes + 1), dtype=np.int64)
    for a in range(a_max + 1):
        for b in range(min(a, n_modes) + 1):
            binom[a, b] = comb(a, b)
    return FockBasis(
        n_atoms=n_atoms,
        window=window,
        occupations=occupations,
        _binom=binom,
        total_k=mode_sum(occupations, window),
    )
