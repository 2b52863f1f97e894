"""Self-contained oracle suite: cross-checks the diagonalization core against
independent exact references and symmetry identities."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hamiltonian import build_hamiltonian, cached_basis
from .observables import angular_momentum_distribution, total_variation
from .oracles import bethe_ground_energy, binomial_pk, truncation_validation, two_particle_exact
from .params import SystemParams, raw_coupling
from .single_particle import weak_barrier_audit
from .solver import DEFAULT_SEED, DEFAULT_TOL, lowest_eigenpairs, solve_lowest


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_two_particle(results: list[CheckResult]) -> None:
    for g in (0.01, 0.1, 1.0, 10.0):
        report = truncation_validation(g, 20)
        ok = report.rescaled_error <= 1e-3 and report.unscaled_error >= 5 * report.rescaled_error
        results.append(
            CheckResult(
                name=f"two_particle_truncation[g={g}]",
                passed=ok,
                detail=(
                    f"rescaled {report.rescaled_error:.2e}, "
                    f"unscaled {report.unscaled_error:.2e}"
                ),
            )
        )


def _check_bethe(results: list[CheckResult]) -> None:
    worst = 0.0
    for g in (0.01, 0.1, 1.0, 10.0):
        diff = abs(bethe_ground_energy(2, g).energy - two_particle_exact(g))
        worst = max(worst, diff)
    results.append(
        CheckResult("bethe_cross_oracle[N=2]", worst <= 1e-9, f"max |dE| = {worst:.2e}")
    )
    e_tg = bethe_ground_energy(5, 1e5).energy
    results.append(
        CheckResult(
            "bethe_hard_core_limit[N=5]", abs(e_tg - 10.0) <= 0.01, f"E = {e_tg:.6f} vs 10"
        )
    )
    g_small = 1e-3
    e_mf = bethe_ground_energy(3, g_small).energy
    target = g_small * 3  # g*N*(N-1)/2
    results.append(
        CheckResult(
            "bethe_mean_field_limit[N=3]",
            abs(e_mf - target) / target <= 0.05,
            f"E = {e_mf:.3e} vs {target:.3e}",
        )
    )


def _check_condensate_distribution(results: list[CheckResult]) -> None:
    params = SystemParams(n_atoms=4, n_modes=12, interaction=0.0, barrier=0.008)
    sol = solve_lowest(params, m=1)
    dist = angular_momentum_distribution(
        sol.eigenvectors[:, 0], cached_basis(4, 12)
    )
    tv = total_variation(dist, binomial_pk(4))
    results.append(
        CheckResult("condensate_binomial[N=4]", tv <= 1e-3, f"total variation {tv:.2e}")
    )


def _check_symmetries(results: list[CheckResult]) -> None:
    basis = cached_basis(3, 8)
    params = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.02, phase=math.pi)
    op = build_hamiltonian(params)
    asym = (op.matrix - op.matrix.T).nnz
    results.append(CheckResult("hermiticity_exact", asym == 0, f"asymmetric entries: {asym}"))

    free = SystemParams(n_atoms=3, n_modes=8, interaction=1.0, barrier=0.0, phase=0.0)
    h_free = build_hamiltonian(free).matrix
    worst = 0.0
    momenta = basis.sector_momenta()
    for ka in momenta:
        ia = basis.sector_indices(int(ka))
        for kb in momenta:
            if kb <= ka:
                continue
            ib = basis.sector_indices(int(kb))
            block = h_free[ia][:, ib]
            if block.nnz:
                worst = max(worst, float(np.max(np.abs(block.data))))
    results.append(
        CheckResult("momentum_block_structure[b=0]", worst == 0.0, f"max cross entry {worst}")
    )

    omega = 0.7 * math.pi
    h_rot = build_hamiltonian(replace(free, phase=omega)).matrix
    worst_shift = 0.0
    for k in momenta:
        idx = basis.sector_indices(int(k))
        e_0 = np.linalg.eigvalsh(h_free[idx][:, idx].toarray())
        e_w = np.linalg.eigvalsh(h_rot[idx][:, idx].toarray())
        predicted = e_0 - (omega / math.pi) * int(k) + 3 * (omega / (2 * math.pi)) ** 2
        worst_shift = max(worst_shift, float(np.max(np.abs(e_w - predicted))))
    results.append(
        CheckResult(
            "galilean_shift[b=0]", worst_shift <= 1e-10, f"max deviation {worst_shift:.2e}"
        )
    )

    sol = solve_lowest(params, m=1)
    dist = angular_momentum_distribution(sol.eigenvectors[:, 0], basis)
    worst_refl = max(
        abs(dist.p_of(int(k)) - dist.p_of(params.n_atoms - int(k)))
        for k in dist.momenta
    )
    results.append(
        CheckResult(
            "reflection_symmetry[P(K)=P(N-K)]",
            worst_refl <= 1e-10,
            f"max |P(K)-P(N-K)| = {worst_refl:.2e}",
        )
    )


def _check_krylov_vs_dense(results: list[CheckResult]) -> None:
    params = SystemParams(n_atoms=4, n_modes=12, interaction=0.7, barrier=0.01, phase=math.pi)
    op = build_hamiltonian(params)
    dense = lowest_eigenpairs(op, 3, dense_cutoff=op.dimension)
    iterative = lowest_eigenpairs(op, 3, dense_cutoff=0, tol=1e-12)
    diff = float(np.max(np.abs(dense.eigenvalues - iterative.eigenvalues)))
    results.append(
        CheckResult("krylov_matches_dense", diff <= 1e-8, f"max |dE| = {diff:.2e}")
    )

    parity = solve_lowest(params, m=2)
    plain = lowest_eigenpairs(op, 2, dense_cutoff=op.dimension)
    gap_diff = abs(
        (parity.eigenvalues[1] - parity.eigenvalues[0])
        - (plain.eigenvalues[1] - plain.eigenvalues[0])
    )
    results.append(
        CheckResult("parity_path_matches_plain", gap_diff <= 1e-9, f"|d(gap)| = {gap_diff:.2e}")
    )


def _check_weak_barrier(results: list[CheckResult]) -> dict:
    audit = weak_barrier_audit()
    ok = True
    details = []
    for label, data in audit["measured"].items():
        coeff = data["limit_estimate"]
        ok = ok and abs(coeff - 2.0) / 2.0 <= 0.02
        details.append(f"{label}: {coeff:.6f}")
    # direct two-mode cross-check: splitting of [[1/4+b, b], [b, 1/4+b]] is 2b
    params = SystemParams(n_atoms=1, n_modes=2, barrier=1e-6, phase=math.pi)
    op = build_hamiltonian(params, raw_coupling(0.0))
    vals = np.linalg.eigvalsh(op.matrix.toarray())
    ed_coeff = (vals[1] - vals[0]) / 1e-6
    audit["two_mode_ed_coefficient"] = float(ed_coeff)
    ok = ok and abs(ed_coeff - 2.0) <= 1e-6
    results.append(
        CheckResult(
            "weak_barrier_coefficient",
            ok,
            "; ".join(details) + f"; two-mode ED {ed_coeff:.9f} (reference 2)",
        )
    )
    return audit


def run_validation(verbose_print=None) -> dict:
    """Run the full oracle suite; returns a JSON-serializable report."""
    results: list[CheckResult] = []
    _check_two_particle(results)
    _check_bethe(results)
    _check_condensate_distribution(results)
    _check_symmetries(results)
    _check_krylov_vs_dense(results)
    audit = _check_weak_barrier(results)
    if verbose_print is not None:
        for check in results:
            verbose_print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}")
    return {
        "checks": [
            {"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in results
        ],
        "weak_barrier_audit": audit,
        "all_passed": bool(all(c.passed for c in results)),
        "defaults": {"seed": DEFAULT_SEED, "tol": DEFAULT_TOL},
    }
