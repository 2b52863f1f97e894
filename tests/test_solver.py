import math

import numpy as np
import pytest
import scipy.sparse as sp

from ringflow.basis import build_basis
from ringflow.errors import ConvergenceError
from ringflow.hamiltonian import build_hamiltonian, cached_pieces
from ringflow.params import SystemParams, raw_coupling, rescale_interaction
from ringflow.solver import (
    DENSE_CUTOFF,
    dominant_frequency,
    level_splitting,
    lowest_eigenpairs,
    propagate,
    solve_lowest,
)


def test_dense_path_on_diagonal_matrix():
    sol = lowest_eigenpairs(sp.diags([3.0, 1.0, 2.0]).tocsr(), 2)
    assert np.allclose(sol.eigenvalues, [1.0, 2.0])
    assert sol.method == "dense"
    assert np.max(sol.residual_norms) < 1e-12


def test_single_atom_splitting_is_2b():
    params = SystemParams(n_atoms=1, n_modes=2, barrier=0.004, phase=math.pi)
    result = level_splitting(params)
    assert result.delta_e == pytest.approx(0.008, rel=1e-12)
    plain = level_splitting(params, use_parity=False)
    assert plain.delta_e == pytest.approx(result.delta_e, abs=1e-13)


def test_iterative_matches_dense():
    pieces = cached_pieces(4, 12)  # dimension 1365
    params = SystemParams(n_atoms=4, n_modes=12, interaction=0.7, barrier=0.01, phase=math.pi)
    coupling = rescale_interaction(0.7, 12)
    op = __build(pieces, params, coupling)
    dense = lowest_eigenpairs(op, 3)
    krylov = lowest_eigenpairs(op, 3, dense_cutoff=0, tol=1e-12)
    assert krylov.method == "lanczos"
    assert np.max(np.abs(dense.eigenvalues - krylov.eigenvalues)) < 1e-8
    assert krylov.iterations > 0
    # orthogonality and residuals
    overlaps = krylov.eigenvectors.T @ krylov.eigenvectors
    assert np.max(np.abs(overlaps - np.eye(3))) < 1e-10
    assert np.max(krylov.residual_norms) < 1e-8


def __build(pieces, params, coupling):
    from ringflow.hamiltonian import assemble

    return assemble(pieces, params, coupling)


def test_parity_path_matches_plain():
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=math.pi)
    parity = solve_lowest(params, m=2, use_parity=True)
    plain = solve_lowest(params, m=2, use_parity=False)
    assert parity.method == "lanczos-parity"
    assert np.max(np.abs(parity.eigenvalues - plain.eigenvalues)) < 1e-10


def test_degeneracy_flag_at_zero_barrier():
    # dense sector blocks at N=2; at N=4 the Krylov path, with no barrier term
    for n_atoms, n_modes, dense_cutoff in ((2, 6, DENSE_CUTOFF), (4, 12, 0)):
        params = SystemParams(
            n_atoms=n_atoms, n_modes=n_modes, interaction=0.5, barrier=0.0, phase=math.pi
        )
        sol = solve_lowest(params, m=2, dense_cutoff=dense_cutoff)
        assert sol.degenerate
        assert sol.eigenvalues[1] - sol.eigenvalues[0] < 1e-10
        assert (sol.iterations > 0) == (dense_cutoff == 0)


def test_variational_monotonicity_in_window_size():
    # fixed coupling in the matrix (rescaling disabled): larger windows only
    # enlarge the variational space
    energies = []
    for r in (4, 6, 8, 10):
        params = SystemParams(n_atoms=3, n_modes=r, interaction=0.5, barrier=0.02, phase=math.pi)
        sol = solve_lowest(params, m=1, coupling=raw_coupling(0.5))
        energies.append(sol.eigenvalues[0])
    assert all(e2 <= e1 + 1e-12 for e1, e2 in zip(energies, energies[1:]))


def test_splitting_symmetric_about_crossing():
    def gap(phase):
        params = SystemParams(n_atoms=2, n_modes=6, interaction=0.5, barrier=0.01, phase=phase)
        return level_splitting(params).delta_e

    center = gap(math.pi)
    for delta in (0.05, 0.1, 0.2):
        lo = gap(math.pi - delta)
        hi = gap(math.pi + delta)
        assert lo == pytest.approx(hi, abs=1e-9)
        assert lo > center


def test_convergence_error_reports_residual():
    pieces = cached_pieces(4, 12)
    params = SystemParams(n_atoms=4, n_modes=12, interaction=0.7, barrier=0.01, phase=math.pi)
    op = __build(pieces, params, rescale_interaction(0.7, 12))
    with pytest.raises(ConvergenceError) as info:
        lowest_eigenpairs(op, 2, dense_cutoff=0, tol=1e-14, max_iterations=1, ncv=6)
    # ARPACK returned no converged pair, so there is no residual to report
    assert info.value.residual is None
    assert "no eigenpair converged in" in str(info.value)
    assert "matvecs" in str(info.value)


def test_crossing_phase_snap():
    def solve(phase):
        params = SystemParams(
            n_atoms=4, n_modes=12, interaction=0.7, barrier=0.01, phase=phase
        )
        return solve_lowest(params)

    inside = solve(math.pi + 5e-13)
    outside = solve(math.pi + 2e-12)
    assert inside.method == "lanczos-parity"
    assert outside.method == "dense"  # plain path, below the dense cutoff
    gap = lambda sol: sol.eigenvalues[1] - sol.eigenvalues[0]
    assert gap(inside) == pytest.approx(gap(outside), abs=1e-12)


# ----------------------------------------------------------------- dynamics


def _two_level():
    h = sp.csr_matrix(np.array([[0.0, 0.3], [0.3, 0.5]]))
    vals, vecs = np.linalg.eigh(h.toarray())
    return h, vals, vecs


def test_propagate_eigenstate_is_stationary():
    h, vals, vecs = _two_level()
    psi0 = vecs[:, 0].astype(complex)
    times = np.linspace(0.0, 50.0, 101)
    pop = lambda psi: float(abs(psi[0]) ** 2)
    out = propagate(h, psi0, times, observables={"p": pop})
    assert np.max(np.abs(out.traces["p"] - out.traces["p"][0])) < 1e-10
    assert np.max(np.abs(out.norms - 1.0)) < 1e-12


def test_propagate_two_level_frequency():
    h, vals, vecs = _two_level()
    psi0 = (vecs[:, 0] + vecs[:, 1]) / math.sqrt(2)
    gap = vals[1] - vals[0]
    period = 2 * math.pi / gap
    times = np.linspace(0.0, 24 * period, 24 * 64 + 1)
    out = propagate(h, psi0.astype(complex), times, observables={"p": lambda s: float(abs(s[0]) ** 2)})
    peak = dominant_frequency(out.times, out.traces["p"])
    assert peak == pytest.approx(gap, rel=1e-3)


def test_propagate_conserves_energy_and_norm():
    basis = build_basis(3, 6)
    params = SystemParams(n_atoms=3, n_modes=6, interaction=1.0, barrier=0.05, phase=math.pi)
    h = build_hamiltonian(basis, params).matrix
    rng = np.random.default_rng(3)
    psi0 = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 30.0, 61)
    energy = lambda s: float(np.real(np.vdot(s, h @ s)))
    out = propagate(h, psi0, times, observables={"E": energy})
    e = out.traces["E"]
    assert np.max(np.abs(e - e[0])) / max(abs(e[0]), 1.0) < 1e-10
    assert np.max(np.abs(out.norms - 1.0)) < 1e-10
    assert out.steps_taken >= len(times) - 1


def test_propagate_rejects_bad_input():
    h, _, _ = _two_level()
    with pytest.raises(ValueError):
        propagate(h, np.array([2.0, 0.0]), np.linspace(0, 1, 5))
    with pytest.raises(ValueError):
        propagate(h, np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0]))
