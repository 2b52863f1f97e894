import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from ringflow import solver
from ringflow.basis import build_basis
from ringflow.errors import ConvergenceError
from ringflow.hamiltonian import FactoredOperator, build_hamiltonian
from ringflow.noon import fig4_interaction
from ringflow.params import SystemParams, raw_coupling, rescale_interaction
from ringflow.solver import (
    DENSE_CUTOFF,
    block_trace,
    dominant_frequency,
    hamiltonian_blocks,
    lowest_eigenpairs,
    propagate,
    solve_lowest,
)


def _gap(sol):
    return sol.eigenvalues[1] - sol.eigenvalues[0]


def test_dense_path_on_diagonal_matrix():
    sol = lowest_eigenpairs(FactoredOperator(np.array([3.0, 1.0, 2.0]), ()), 2)
    assert np.allclose(sol.eigenvalues, [1.0, 2.0])
    assert sol.method == "dense"
    assert np.max(sol.residual_norms) < 1e-12


def test_single_atom_splitting_is_2b():
    params = SystemParams(n_atoms=1, n_modes=2, barrier=0.004, phase=math.pi)
    result = solve_lowest(params)
    assert _gap(result) == pytest.approx(0.008, rel=1e-12)
    plain = lowest_eigenpairs(build_hamiltonian(params), 2)
    assert _gap(plain) == pytest.approx(_gap(result), abs=1e-13)


def test_iterative_matches_dense():
    params = SystemParams(n_atoms=4, n_modes=12, interaction=0.7, barrier=0.01, phase=math.pi)
    op = build_hamiltonian(params, rescale_interaction(0.7, 12))  # dimension 1365
    dense = lowest_eigenpairs(op, 3, dense_cutoff=op.dimension)
    krylov = lowest_eigenpairs(op, 3, dense_cutoff=0, tol=1e-12)
    assert krylov.method == "lobpcg"
    assert np.max(np.abs(dense.eigenvalues - krylov.eigenvalues)) < 1e-8
    assert krylov.iterations > 0
    # orthogonality and residuals
    overlaps = krylov.eigenvectors.T @ krylov.eigenvectors
    assert np.max(np.abs(overlaps - np.eye(3))) < 1e-10
    assert np.max(krylov.residual_norms) < 1e-8


@pytest.mark.parametrize("phase", [math.pi, 0.9 * math.pi])
def test_more_levels_than_the_dimension_raise(phase):
    # N=1, r=2 has two states; at the crossing each parity sector holds one,
    # which must not clip the request to the two levels there are
    params = SystemParams(n_atoms=1, n_modes=2, barrier=0.004, phase=phase)
    with pytest.raises(ValueError, match="requested 3 levels of a dimension-2 system"):
        solve_lowest(params, m=3)
    with pytest.raises(ValueError, match="requested 0 levels"):
        solve_lowest(params, m=0)
    assert solve_lowest(params, m=2).eigenvalues.size == 2


def test_hamiltonian_blocks_sum_to_the_operator():
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=math.pi)
    coupling = rescale_interaction(params.interaction, params.n_modes)
    whole = build_hamiltonian(params, coupling)
    blocks = hamiltonian_blocks(params, coupling)
    assert [h.dimension for h, _ in blocks] == [60, 60]
    total = sum(s @ h.matrix @ s.T for h, s in blocks)
    assert abs(total - whole.matrix).max() < 1e-12
    off = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=0.9 * math.pi)
    # off the crossing: one block, the Fock-basis operator with Q the identity
    [(block, q)] = hamiltonian_blocks(off, coupling)
    assert block.dimension == 120
    assert abs(q.T @ q - sp.identity(block.dimension)).max() < 1e-15
    assert abs(q @ q.T - sp.identity(block.dimension)).max() < 1e-15
    assert abs(q @ block.matrix @ q.T - build_hamiltonian(off, coupling).matrix).max() < 1e-12


def test_parity_path_matches_plain():
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.008, phase=math.pi)
    parity = solve_lowest(params, m=2)
    plain = lowest_eigenpairs(build_hamiltonian(params), 2)
    assert parity.method == "dense-parity"
    assert np.max(np.abs(parity.eigenvalues - plain.eigenvalues)) < 1e-10


@pytest.mark.parametrize("g", [1e-3, 1.0, 100.0])
def test_parity_path_matches_plain_on_arpack(g):
    # N=5, r=12: dimension 4,368 and parity sectors of about 2,200, so both
    # paths run the iterative solvers on the factored operators: LOBPCG in
    # the weak-coupling regime, the Lanczos loop above it (g = 100)
    params = SystemParams(n_atoms=5, n_modes=12, interaction=g, barrier=0.008, phase=math.pi)
    parity = solve_lowest(params, m=2)
    plain = lowest_eigenpairs(build_hamiltonian(params), 2)
    weak = 0.5 * rescale_interaction(g, 12).g_tilde <= solver.LOBPCG_MAX_COUPLING
    method = "lobpcg" if weak else "lanczos"
    assert (parity.method, plain.method) == (f"{method}-parity", method)
    gaps = [np.diff(sol.eigenvalues)[0] for sol in (parity, plain)]
    assert abs(gaps[0] - gaps[1]) <= 1e-11 * parity.eigenvalues[0]


def _sector_blocks(g):
    # N=5, r=12: parity sectors of about 2,200 > DENSE_CUTOFF
    params = SystemParams(n_atoms=5, n_modes=12, interaction=g, barrier=0.008, phase=math.pi)
    blocks = [block for block, _ in hamiltonian_blocks(params, rescale_interaction(g, 12))]
    assert min(block.dimension for block in blocks) > DENSE_CUTOFF
    return blocks


@pytest.mark.parametrize("g", [1e-4, 1e-3, 0.1])
def test_lobpcg_levels_match_arpack_on_the_sector_blocks(g):
    for block in _sector_blocks(g):
        weak = lowest_eigenpairs(block, 2)
        assert weak.method == "lobpcg"
        assert 0 < weak.iterations
        assert np.max(weak.residual_norms) <= solver.DEFAULT_TOL
        start = solver._start_vector(block.dimension, solver.DEFAULT_SEED)
        arpack = solver._arpack(block, 2, solver.DEFAULT_TOL, start, None)
        assert arpack.method == "arpack"
        assert np.max(np.abs(weak.eigenvalues - arpack.eigenvalues)) <= 1e-11


@pytest.mark.parametrize(
    "g, b",
    [(1e-4, 0.008), (1e-3, 0.008), (0.1, 0.008), (fig4_interaction(5, 2.5e-4), 2.5e-4)],
    ids=["1e-4", "1e-3", "0.1", "fig4-b2.5e-4"],
)
def test_lobpcg_block_of_the_returned_levels_finds_the_lowest(g, b):
    # LOBPCG iterates one column per returned level, with no guard column
    # above them; the levels must still be the block's lowest, not a pair
    # from further up the cluster of nearly degenerate kinetic levels
    params = SystemParams(n_atoms=5, n_modes=12, interaction=g, barrier=b, phase=math.pi)
    for block, _ in hamiltonian_blocks(params, rescale_interaction(g, 12)):
        assert block.dimension > DENSE_CUTOFF
        exact = sla.eigh(block.matrix.toarray(), subset_by_index=(0, 2), eigvals_only=True)
        for m in (1, 2):
            sol = lowest_eigenpairs(block, m)
            assert sol.method == "lobpcg"
            assert np.max(np.abs(sol.eigenvalues - exact[:m])) <= 1e-11


def test_lobpcg_miss_falls_back_to_arpack_from_its_best_vector(monkeypatch):
    [block, _] = _sector_blocks(1e-3)
    converged = lowest_eigenpairs(block, 2)
    monkeypatch.setattr(solver, "LOBPCG_MAXITER", 1)
    missed = solver._lobpcg(block, 2, solver.DEFAULT_TOL, None)
    assert np.max(missed.residual_norms) > solver.DEFAULT_TOL
    fallback = lowest_eigenpairs(block, 2)
    assert fallback.method == "arpack"
    assert np.max(np.abs(fallback.eigenvalues - converged.eigenvalues)) <= 1e-11
    # `iterations` counts the matvecs of both solvers
    arpack = solver._arpack(block, 2, solver.DEFAULT_TOL, missed.eigenvectors[:, 0], None)
    assert fallback.iterations == missed.iterations + arpack.iterations
    assert np.array_equal(fallback.eigenvalues, arpack.eigenvalues)


@pytest.mark.parametrize("g", [10.0, 1000.0])
def test_lanczos_levels_match_dense_on_the_sector_blocks(g):
    # above LOBPCG's regime, so the Lanczos loop runs first
    assert 0.5 * rescale_interaction(g, 12).g_tilde > solver.LOBPCG_MAX_COUPLING
    tol = solver.DEFAULT_TOL
    for block in _sector_blocks(g):
        exact = sla.eigh(block.matrix.toarray(), subset_by_index=(0, 1), eigvals_only=True)
        for m in (1, 2):
            sol = lowest_eigenpairs(block, m)
            # one level has no copy to miss on; two may meet one, and then
            # ARPACK takes over (see the copy test below)
            assert sol.method in (("lanczos",) if m == 1 else ("lanczos", "arpack"))
            assert np.max(np.abs(sol.eigenvalues - exact[:m])) <= 1e-11
            assert np.all(sol.residual_norms <= tol * np.abs(sol.eigenvalues))


def test_lanczos_step_cap_falls_back_to_arpack_from_its_best_vector(monkeypatch):
    block = _sector_blocks(10.0)[1]
    converged = lowest_eigenpairs(block, 2)
    assert converged.method == "lanczos"
    monkeypatch.setattr(solver, "LANCZOS_MAX_STEPS", 30)
    start = solver._start_vector(block.dimension, solver.DEFAULT_SEED)
    missed, best, steps = solver._lanczos(block, 2, solver.DEFAULT_TOL, start)
    assert missed is None and steps == 30
    fallback = lowest_eigenpairs(block, 2)
    assert fallback.method == "arpack"
    assert np.max(np.abs(fallback.eigenvalues - converged.eigenvalues)) <= 1e-11
    # `iterations` counts the matvecs of both solvers
    arpack = solver._arpack(block, 2, solver.DEFAULT_TOL, best, None)
    assert fallback.iterations == steps + arpack.iterations
    assert np.array_equal(fallback.eigenvalues, arpack.eigenvalues)


def test_lanczos_breakdown_falls_back_to_arpack(monkeypatch):
    # a start vector that is an eigenvector spans an invariant subspace at
    # the first step, which cannot hold two levels
    monkeypatch.setattr(solver, "LOBPCG_MAX_COUPLING", -1.0)
    block = FactoredOperator(np.arange(1.0, 101.0), ())
    start = np.zeros(100)
    start[0] = 1.0
    missed, best, steps = solver._lanczos(block, 2, solver.DEFAULT_TOL, start)
    assert missed is None and steps == 1
    sol = lowest_eigenpairs(block, 2, v0=start, dense_cutoff=0)
    assert sol.method == "arpack"
    assert np.allclose(sol.eigenvalues, [1.0, 2.0], rtol=0, atol=1e-12)
    arpack = solver._arpack(block, 2, solver.DEFAULT_TOL, best, None)
    assert sol.iterations == steps + arpack.iterations


def test_lanczos_drops_a_forming_ghost(monkeypatch):
    # even sector at g = 10, two levels: when the second level converges, a
    # ghost of the first, not yet converged, lies between the two; it has no
    # weight on the start vector and is not taken for a level
    block = _sector_blocks(10.0)[0]
    seen = []
    ritz_levels = solver._ritz_levels

    def spy(alpha, beta, m, tol):
        seen.append(sla.eigh_tridiagonal(alpha, beta[:-1], eigvals_only=True, select="i",
                                         select_range=(0, 2)))
        return ritz_levels(alpha, beta, m, tol)

    monkeypatch.setattr(solver, "_ritz_levels", spy)
    sol = lowest_eigenpairs(block, 2)
    assert sol.method == "lanczos"
    raw = seen[-1]
    assert sol.eigenvalues[0] < raw[1] < sol.eigenvalues[1]
    assert raw[2] == pytest.approx(sol.eigenvalues[1], abs=1e-11)
    exact = sla.eigh(block.matrix.toarray(), subset_by_index=(0, 1), eigvals_only=True)
    assert np.max(np.abs(sol.eigenvalues - exact)) <= 1e-11


def test_lanczos_holds_the_levels_below_the_last_to_tol():
    # even sector at g = 10 from seed 11: when the second level converges, a
    # forming ghost of the ground has eroded the ground's vector to a residual
    # of 1.9e-10, within tol * |theta| but above tol; the loop keeps going,
    # meets the ghost's copy, and ARPACK takes over
    block = _sector_blocks(10.0)[0]
    sol = lowest_eigenpairs(block, 2, seed=11)
    assert sol.method == "arpack"
    assert sol.residual_norms[0] <= solver.DEFAULT_TOL


def test_lanczos_copy_of_a_converged_level_falls_back_to_arpack(monkeypatch):
    # even sector at g = 10, four levels: a ghost of a converged level
    # converges before the fourth level does, well before the step cap
    block = _sector_blocks(10.0)[0]
    seen = []
    ritz_levels = solver._ritz_levels

    def spy(*args):
        levels = ritz_levels(*args)
        seen.append(levels)
        return levels

    monkeypatch.setattr(solver, "_ritz_levels", spy)
    start = solver._start_vector(block.dimension, solver.DEFAULT_SEED)
    missed, _, steps = solver._lanczos(block, 4, solver.DEFAULT_TOL, start)
    assert missed is None and steps < solver.LANCZOS_MAX_STEPS
    # the last test saw one converged level twice
    _, _, _, converged, copy = seen[-1]
    assert copy and converged.all()
    sol = lowest_eigenpairs(block, 4)
    assert sol.method == "arpack"
    assert sol.iterations > steps
    exact = sla.eigh(block.matrix.toarray(), subset_by_index=(0, 3), eigvals_only=True)
    assert np.max(np.abs(sol.eigenvalues - exact)) <= 1e-11
    assert np.min(np.diff(exact)) > 0.1


def test_wrong_first_sector_is_caught_by_the_certificate(monkeypatch):
    # N = 4: the ground lies in the even sector.  Levels above it: odd 0.0047,
    # even 1.126, odd 1.147, even 1.502.  Starting from the odd sector, m = 2
    # leaves the even sector one level short and must re-solve it; at m = 3
    # the even sector's two levels already reach the third merged level.
    params = SystemParams(n_atoms=4, n_modes=12, interaction=0.7, barrier=0.01, phase=math.pi)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return lowest_eigenpairs(*args, **kwargs)

    monkeypatch.setattr(solver, "lowest_eigenpairs", counting)
    whole = build_hamiltonian(params)
    for m in (2, 3):
        plain = lowest_eigenpairs(whole, m, dense_cutoff=whole.dimension)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "DENSE_CUTOFF", 0)
            calls.clear()
            right = solve_lowest(params, m=m)
            assert calls == [m, m - 1]
            patch.setattr(solver, "_first_sector", lambda n_atoms: 1 - n_atoms % 2)
            calls.clear()
            wrong = solve_lowest(params, m=m)
        if m == 2:
            assert calls == [2, 1, 2]  # the retry ran
            assert wrong.iterations > right.iterations
        else:
            assert calls == [3, 2]
        assert np.max(np.abs(wrong.eigenvalues - plain.eigenvalues)) <= 1e-10
        assert np.max(np.abs(wrong.eigenvalues - right.eigenvalues)) <= 1e-10


def test_parity_residuals_within_tol_at_large_coupling(monkeypatch):
    # |theta| ~ 6: a plain relative stopping test at tol leaves the odd
    # sector's one-level solve with a residual of about 1.9e-10
    monkeypatch.setattr(solver, "DENSE_CUTOFF", 0)
    params = SystemParams(n_atoms=4, n_modes=12, interaction=100.0, barrier=0.008, phase=math.pi)
    tol = 1e-10
    sol = solve_lowest(params, m=2, tol=tol)
    assert sol.eigenvalues[0] > 5.0
    assert sol.iterations > 0
    assert np.max(sol.residual_norms) <= tol


def test_one_level_krylov_residual_within_tol(monkeypatch):
    # E0 ~ 11: the relative test |r| <= tol*|theta| (ARPACK's, which the
    # Lanczos loop applies to its highest requested level) at tol alone
    # leaves 5.3e-10 at the crossing (sector N mod 2) and 1.1e-10 at 0.9 pi
    # (plain path); the re-solve at tol / |theta| brings both within tol
    monkeypatch.setattr(solver, "DENSE_CUTOFF", 0)
    tol = 1e-10
    for phase, method in ((math.pi, "lanczos-parity"), (0.9 * math.pi, "lanczos")):
        params = SystemParams(n_atoms=5, n_modes=12, interaction=100.0, barrier=0.008, phase=phase)
        sol = solve_lowest(params, m=1, tol=tol)
        assert sol.method == method
        assert sol.eigenvalues[0] > 10.0
        assert np.max(sol.residual_norms) <= tol


def test_degeneracy_flag_at_zero_barrier(monkeypatch):
    # dense sector blocks at N=2; at N=4 the Krylov path, with no barrier term
    for n_atoms, n_modes, dense_cutoff in ((2, 6, DENSE_CUTOFF), (4, 12, 0)):
        params = SystemParams(
            n_atoms=n_atoms, n_modes=n_modes, interaction=0.5, barrier=0.0, phase=math.pi
        )
        monkeypatch.setattr(solver, "DENSE_CUTOFF", dense_cutoff)
        sol = solve_lowest(params, m=2)
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
        return _gap(solve_lowest(params))

    center = gap(math.pi)
    for delta in (0.05, 0.1, 0.2):
        lo = gap(math.pi - delta)
        hi = gap(math.pi + delta)
        assert lo == pytest.approx(hi, abs=1e-9)
        assert lo > center


def test_convergence_error_reports_residual():
    params = SystemParams(n_atoms=4, n_modes=12, interaction=0.7, barrier=0.01, phase=math.pi)
    op = build_hamiltonian(params, rescale_interaction(0.7, 12))
    with pytest.raises(ConvergenceError) as info:
        lowest_eigenpairs(op, 2, dense_cutoff=0, tol=1e-14, max_iterations=1)
    # ARPACK returned no converged pair, so there is no residual to report
    assert info.value.residual is None
    assert "no eigenpair converged in" in str(info.value)
    assert "matvecs" in str(info.value)


def test_crossing_phase_snap(monkeypatch):
    # the whole space (1,365) and its parity blocks solved densely
    monkeypatch.setattr(solver, "DENSE_CUTOFF", 1365)

    def solve(phase):
        params = SystemParams(
            n_atoms=4, n_modes=12, interaction=0.7, barrier=0.01, phase=phase
        )
        return solve_lowest(params)

    inside = solve(math.pi + 5e-13)
    outside = solve(math.pi + 2e-12)
    assert inside.method == "dense-parity"
    assert outside.method == "dense"  # plain path
    assert _gap(inside) == pytest.approx(_gap(outside), abs=1e-12)
    # inside the snap the sector blocks are assembled at pi itself
    assert np.array_equal(inside.eigenvalues, solve(math.pi).eigenvalues)


# ----------------------------------------------------------------- dynamics


def _spectrum(h):
    """The one block (E, V, S) of a whole operator, sparse or dense."""
    dense = h.toarray() if sp.issparse(h) else np.asarray(h)
    return [(*sla.eigh(dense), sp.identity(dense.shape[0], format="csr"))]


def _states(blocks, out):
    """The sample states sum_s S_s V_s a_s(t), one per row, rebuilt from the
    amplitudes of `out`."""
    states, start = 0, 0
    for _, vectors, isometry in blocks:
        part = out.amplitudes[:, start : start + vectors.shape[1]]
        states = states + (isometry @ (vectors @ part.T)).T
        start += vectors.shape[1]
    return states


def _two_level():
    h = sp.csr_matrix(np.array([[0.0, 0.3], [0.3, 0.5]]))
    vals, vecs = np.linalg.eigh(h.toarray())
    return h, vals, vecs


def test_propagate_eigenstate_is_stationary():
    h, vals, vecs = _two_level()
    psi0 = vecs[:, 0].astype(complex)
    times = np.linspace(0.0, 50.0, 101)
    blocks = _spectrum(h)
    out = propagate(blocks, psi0, times)
    assert out.method == "spectral"
    pop = np.abs(out.amplitudes @ blocks[0][1][0]) ** 2  # |psi_0|^2
    assert np.max(np.abs(pop - pop[0])) < 1e-10
    assert np.max(np.abs(out.norms - 1.0)) < 1e-12


def test_propagate_two_level_frequency():
    h, vals, vecs = _two_level()
    psi0 = (vecs[:, 0] + vecs[:, 1]) / math.sqrt(2)
    gap = vals[1] - vals[0]
    period = 2 * math.pi / gap
    times = np.linspace(0.0, 24 * period, 24 * 64 + 1)
    blocks = _spectrum(h)
    out = propagate(blocks, psi0.astype(complex), times)
    assert out.method == "spectral"
    peak = dominant_frequency(out.times, np.abs(out.amplitudes @ blocks[0][1][0]) ** 2)
    assert peak == pytest.approx(gap, rel=1e-3)


def _random_state_on_ring():
    basis = build_basis(3, 6)
    params = SystemParams(n_atoms=3, n_modes=6, interaction=1.0, barrier=0.05, phase=math.pi)
    h = build_hamiltonian(params).matrix
    rng = np.random.default_rng(3)
    psi0 = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return h, psi0 / np.linalg.norm(psi0)


def test_propagate_conserves_energy_and_norm():
    h, psi0 = _random_state_on_ring()
    times = np.linspace(0.0, 30.0, 61)
    blocks = _spectrum(h)
    out = propagate(blocks, psi0, times)
    assert out.method == "spectral"
    vecs = blocks[0][1]
    e = block_trace(out.amplitudes, [vecs.T @ (h @ vecs)])
    assert np.max(np.abs(e - e[0])) / max(abs(e[0]), 1.0) < 1e-10
    assert np.max(np.abs(out.norms - 1.0)) < 1e-10


def test_propagate_offset_grid_uses_elapsed_time():
    # a grid starting at t0 > 0 holds psi0 at t0: the spectral phases use
    # t - t0, as exp(-i(t - t0)H) psi0 does
    h, psi0 = _random_state_on_ring()
    times = np.linspace(7.5, 12.5, 21)
    exact = np.array([sla.expm(-1j * (t - times[0]) * h.toarray()) @ psi0 for t in times])
    blocks = _spectrum(h)
    out = propagate(blocks, psi0, times)
    states = _states(blocks, out)
    assert states[0, 0].real == pytest.approx(psi0[0].real, abs=1e-12)
    assert states[0, 0].imag == pytest.approx(psi0[0].imag, abs=1e-12)
    assert np.max(np.abs(states[:, 0].real - exact[:, 0].real)) < 1e-10
    assert np.max(np.abs(states[:, 0].imag - exact[:, 0].imag)) < 1e-10
    assert np.max(np.abs(out.norms - np.linalg.norm(exact, axis=1))) < 1e-10


def test_propagate_rejects_bad_input():
    h, _, _ = _two_level()
    with pytest.raises(ValueError):
        propagate(_spectrum(h), np.array([2.0, 0.0]), np.linspace(0, 1, 5))
    with pytest.raises(ValueError):
        propagate(_spectrum(h), np.array([1.0, 0.0]), np.array([0.0, 0.0, 1.0]))


def test_propagate_complex_hermitian():
    # c = V^H psi0: a complex Hermitian operator propagates exactly
    rng = np.random.default_rng(5)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = (a + a.conj().T) / 2
    psi0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 3.0, 13)
    exact = np.array([sla.expm(-1j * t * h) @ psi0 for t in times])
    blocks = _spectrum(h)
    out = propagate(blocks, psi0, times)
    assert out.method == "spectral"
    states = _states(blocks, out)
    for i in range(8):
        assert np.max(np.abs(states[:, i].real - exact[:, i].real)) < 1e-10
        assert np.max(np.abs(states[:, i].imag - exact[:, i].imag)) < 1e-10
    assert np.max(np.abs(out.norms - 1.0)) < 1e-12  # the complex form V^H V


def test_propagate_given_levels_carry_the_projection():
    # ten of 56 levels: the trace is the exact propagation of the projection
    # of psi0 onto them, whose weight outside is `truncated_weight`
    h, psi0 = _random_state_on_ring()
    (vals, vecs, identity), = _spectrum(h)
    times = np.linspace(0.0, 5.0, 11)
    blocks = [(vals[:10], vecs[:, :10], identity)]
    kept = propagate(blocks, psi0, times)
    projected = vecs[:, :10] @ (vecs[:, :10].T @ psi0)
    w = 1.0 - np.linalg.norm(projected) ** 2
    assert kept.truncated_weight == pytest.approx(w, abs=1e-12) and w > 0.5
    exact = np.array([sla.expm(-1j * t * h.toarray()) @ projected for t in times])
    states = _states(blocks, kept)
    for i in (0, 5):
        assert np.max(np.abs(states[:, i].real - exact[:, i].real)) < 1e-10
        assert np.max(np.abs(states[:, i].imag - exact[:, i].imag)) < 1e-10
    assert np.max(np.abs(kept.norms - math.sqrt(1.0 - w))) < 1e-12
    # every level given: nothing is left out
    assert propagate(_spectrum(h), psi0, times).truncated_weight == 0.0


def test_propagate_long_grid():
    # a long grid matches stepping the exact one-step propagator
    h, psi0 = _random_state_on_ring()
    times = np.linspace(0.0, 40.0, 515)
    step = sla.expm(-1j * (times[1] - times[0]) * h.toarray())
    exact = [psi0]
    for _ in times[1:]:
        exact.append(step @ exact[-1])
    exact = np.array(exact)
    blocks = _spectrum(h)
    out = propagate(blocks, psi0, times)
    assert out.method == "spectral"
    states = _states(blocks, out)
    for i in (0, 17):
        assert np.max(np.abs(states[:, i].real - exact[:, i].real)) < 1e-10
        assert np.max(np.abs(states[:, i].imag - exact[:, i].imag)) < 1e-10
    assert np.max(np.abs(out.norms - 1.0)) < 1e-12
