import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringflow.basis import momentum_window
from ringflow.params import (
    ATOMIC_MASS_KG,
    HBAR_SI,
    PhysicalRing,
    SystemParams,
    energy_unit,
    interaction_for_gamma,
    lieb_liniger_gamma,
    raw_coupling,
    rescale_interaction,
    to_physical,
    truncation_tail,
)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(n_atoms=0, n_modes=4)
    with pytest.raises(ValueError):
        SystemParams(n_atoms=2, n_modes=5)
    with pytest.raises(ValueError):
        SystemParams(n_atoms=2, n_modes=4, interaction=-1.0)
    with pytest.raises(ValueError):
        SystemParams(n_atoms=2, n_modes=4, barrier=math.inf)
    p = SystemParams(n_atoms=3, n_modes=8)
    assert list(momentum_window(p.n_modes)) == [-3, -2, -1, 0, 1, 2, 3, 4]


def test_gamma_values():
    assert lieb_liniger_gamma(SystemParams(n_atoms=4, n_modes=8, interaction=0.0)) == 0.0
    p = SystemParams(n_atoms=5, n_modes=20, interaction=0.1)
    assert lieb_liniger_gamma(p) == pytest.approx(0.39478417604357434, rel=1e-12)
    g = interaction_for_gamma(200.0, 5)
    assert g == pytest.approx(50.66059182116889, rel=1e-12)
    p200 = SystemParams(n_atoms=5, n_modes=20, interaction=g)
    assert lieb_liniger_gamma(p200) == pytest.approx(200.0, rel=1e-14)


@given(st.floats(min_value=1e-6, max_value=1e6), st.integers(min_value=1, max_value=50))
def test_gamma_scales_inversely_with_atom_number(g, n):
    base = lieb_liniger_gamma(SystemParams(n_atoms=1, n_modes=4, interaction=g))
    val = lieb_liniger_gamma(SystemParams(n_atoms=n, n_modes=4, interaction=g))
    assert val * n == pytest.approx(base, rel=1e-12)


def test_truncation_tail_against_direct_sum():
    for r in (4, 8, 20):
        direct = sum(1.0 / (2 * q * q) for q in range(r // 2, 200000)) * 2
        assert truncation_tail(r) == pytest.approx(direct, rel=1e-4)


def test_truncation_tail_against_scipy_trigamma():
    from scipy.special import polygamma

    for r in range(2, 201, 2):
        expected = float(polygamma(1, r // 2))
        assert abs(truncation_tail(r) - expected) <= 2 * math.ulp(expected), r
    # scipy's value is correctly rounded at r = 14, the N=6 row of fig3a
    assert truncation_tail(14) == float(polygamma(1, 7))


def test_si_constants_equal_scipy_codata():
    from scipy.constants import hbar, physical_constants

    assert HBAR_SI == hbar
    assert ATOMIC_MASS_KG == physical_constants["atomic mass constant"][0]


def test_rescale_values_r20():
    # the removed-mode sum gives g0 = 1/psi'(10); r/2 approximates it to ~5%
    g0 = rescale_interaction(1.0, 20).g_zero
    assert g0 == pytest.approx(9.508746249624693, rel=1e-12)
    assert abs(g0 - 10.0) / 10.0 < 0.06
    assert rescale_interaction(1e15, 20).g_tilde == pytest.approx(g0, rel=1e-10)
    assert rescale_interaction(10.0, 20).g_tilde == pytest.approx(
        10.0 / (1.0 + 10.0 / g0), rel=1e-14
    )
    assert rescale_interaction(0.1, 20).g_tilde == pytest.approx(
        0.1 / (1.0 + 0.1 / g0), rel=1e-14
    )
    assert rescale_interaction(0.0, 20).g_tilde == 0.0
    with pytest.raises(ValueError):
        rescale_interaction(-0.5, 20)


@given(st.floats(min_value=1e-12, max_value=1e12), st.sampled_from([2, 4, 8, 12, 20]))
def test_rescale_formula_and_bounds(g, r):
    coupling = rescale_interaction(g, r)
    assert coupling.g_tilde == pytest.approx(g / (1.0 + g / coupling.g_zero), rel=1e-15)
    assert 0.0 <= coupling.g_tilde <= coupling.g_zero
    assert coupling.g_tilde <= g
    # strictly increasing in g
    bigger = rescale_interaction(g * 1.01, r)
    assert bigger.g_tilde > coupling.g_tilde


def test_raw_coupling_passthrough():
    c = raw_coupling(3.5)
    assert c.g_tilde == 3.5 and math.isinf(c.g_zero)


@pytest.fixture
def lithium_ring():
    return PhysicalRing(atom_mass=7 * ATOMIC_MASS_KG, ring_radius=50e-6)


def test_physical_report_values(lithium_ring):
    params = SystemParams(n_atoms=100, n_modes=2, phase=math.pi)
    report = to_physical(params, lithium_ring, 25.0)
    assert report["mean_spacing_m"] * 1e6 == pytest.approx(3.14159, rel=1e-4)
    assert abs(report["delta_e_over_hbar_per_s"] - 45.0) <= 1.0
    assert report["barrier_rotation_Hz"] == pytest.approx(0.29, rel=0.02)
    # at the crossing the stirring rate equals E0/hbar
    from scipy.constants import hbar

    assert report["barrier_angular_speed_rad_per_s"] == pytest.approx(
        report["E0_J"] / hbar, rel=1e-12
    )


def test_physical_round_trip(lithium_ring):
    e0 = energy_unit(lithium_ring)
    assert 25.0 * e0 / energy_unit(lithium_ring) == pytest.approx(25.0, rel=1e-12)
    params = SystemParams(n_atoms=100, n_modes=2, phase=math.pi)
    report = to_physical(params, lithium_ring, 25.0)
    assert report["delta_e_J"] / energy_unit(lithium_ring) == pytest.approx(25.0, rel=1e-12)


def test_physical_validation():
    with pytest.raises(ValueError):
        PhysicalRing(atom_mass=0.0, ring_radius=1e-5)
    with pytest.raises(ValueError):
        PhysicalRing(atom_mass=1e-26, ring_radius=-1.0)
