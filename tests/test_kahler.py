"""Almost-complex structures, integrability, and Ricci forms on the families."""

import numpy as np
import pytest

import oracles as orc
from liemaxwell import kahler
from liemaxwell import lie_algebra as la
from liemaxwell.forms import norm_sq, sd_asd_split, two_form
from liemaxwell.metric_geometry import curvature_summary

E = np.eye(4)


def test_endomorphism_fixtures():
    J = kahler.endomorphism_from_form(E, two_form(e13=1, e24=-1))
    assert np.allclose(J @ E[0], E[2])       # J e1 = e3
    assert np.allclose(J @ E[1], -E[3])      # J e2 = -e4

    J2 = kahler.endomorphism_from_form(E, two_form(e12=1, e34=1))
    assert np.allclose(J2 @ E[0], E[1])
    assert np.allclose(J2 @ E[2], E[3])

    a5 = 2.0
    g = np.diag([1.0, 1.0, a5, 1.0])
    J3 = kahler.endomorphism_from_form(g, two_form(e12=1, e34=np.sqrt(a5)))
    assert np.abs(J3 @ J3 + E).max() < 1e-14


def test_endomorphism_defining_relation():
    rng = np.random.default_rng(0)
    g = np.diag([1.0, 2.0, 1.5, 1.0])
    w6 = rng.normal(size=6)
    J = kahler.endomorphism_from_form(g, w6)
    from liemaxwell.lie_algebra import two_form_matrix
    w = two_form_matrix(w6)
    for i in range(4):
        for j in range(4):
            assert w[i, j] == pytest.approx((J @ E[i]) @ g @ E[j], abs=1e-12)


def test_compatibility():
    assert kahler.is_compatible(E, two_form(e13=1, e24=-1))
    assert not kahler.is_compatible(E, two_form(e12=2, e34=1))
    assert kahler.is_compatible(np.diag([1.0, 1.0, 2.0, 1.0]),
                                two_form(e12=1, e34=np.sqrt(2)))


def test_nijenhuis_abelian():
    L = la.instantiate(la.entry_by_name("abelian"), {})
    J = kahler.endomorphism_from_form(E, two_form(e12=1, e34=1))
    n_max, _ = kahler.nijenhuis(L, J)
    assert n_max == 0


def test_nijenhuis_a49half_both_orientations():
    L = la.instantiate(la.entry_by_name("A49half"), {})
    c = np.asarray(L.c, dtype=float)
    J_plus = kahler.endomorphism_from_form(E, two_form(e13=1, e24=-1))
    n_plus, _ = kahler.nijenhuis(L, J_plus)
    assert n_plus == pytest.approx(orc.nijenhuis_direct(c, J_plus), abs=1e-14)
    assert n_plus == pytest.approx(2.0, abs=1e-14)  # frozen from the oracle
    J_minus = kahler.endomorphism_from_form(E, two_form(e13=1, e24=1))
    n_minus, _ = kahler.nijenhuis(L, J_minus)
    assert n_minus <= 1e-14


def test_nijenhuis_requires_acs():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    with pytest.raises(ValueError, match="J\\^2"):
        kahler.nijenhuis(L, np.diag([2.0, 1.0, 1.0, 1.0]))


def test_classification_families():
    def kind(L, g, omega):
        return kahler.hermitian_diagnostics(L, g, omega)["type"]

    L2 = la.instantiate(la.entry_by_name("2A2"), {})
    g2 = np.diag([1.0, 1.0, 2.0, 1.0])
    assert kind(L2, g2, two_form(e12=1, e34=np.sqrt(2))) == kahler.KAHLER

    L46 = la.instantiate(la.entry_by_name("A46a0"), {"a": 1.0})
    assert kind(L46, E, two_form(e14=1, e23=1)) == kahler.KAHLER

    L49 = la.instantiate(la.entry_by_name("A49half"), {})
    assert kind(L49, E, two_form(e13=1, e24=-1)) == kahler.ALMOST_KAHLER
    assert kind(L49, E, two_form(e13=1, e24=1)) == kahler.KAHLER

    # incompatible and non-closed inputs
    assert kind(L2, g2, two_form(e12=2, e34=1)) == kahler.NOT_COMPATIBLE
    # on 2A2, e14 + e23 is compatible with the euclidean metric but not closed
    assert kind(L2, E, two_form(e14=1, e23=1)) == kahler.NOT_CLOSED


def test_ricci_form_2a2():
    # rho0 is pinned by the decomposition identity rho0 = kappa F^-, which the
    # direct computation reproduces.
    L = la.instantiate(la.entry_by_name("2A2"), {})
    for a5 in (2.0, 3.0):
        g = np.diag([1.0, 1.0, a5, 1.0])
        rho0, rho, defect = kahler.ricci_form(L, g, two_form(e12=1, e34=np.sqrt(a5)))
        want = two_form(e12=(1 - a5) / (2 * a5), e34=(a5 - 1) / (2 * np.sqrt(a5)))
        assert np.abs(rho0 - want).max() < 1e-13
        assert defect < 1e-13


def test_ricci_form_a22a1():
    L = la.instantiate(la.entry_by_name("A2+2A1"), {})
    rho0, _, defect = kahler.ricci_form(L, E, two_form(e12=1, e34=1))
    assert np.abs(rho0 - two_form(e12=-0.5, e34=0.5)).max() < 1e-14
    assert defect < 1e-14


def test_ricci_form_a49half_both_orientations():
    L = la.instantiate(la.entry_by_name("A49half"), {})
    rho0, _, defect = kahler.ricci_form(L, E, two_form(e13=1, e24=-1))
    assert np.abs(rho0 - two_form(e13=0.75, e24=0.75)).max() < 1e-14
    assert defect < 1e-14
    rho0m, _, _ = kahler.ricci_form(L, E, two_form(e13=1, e24=1))
    assert np.abs(rho0m - two_form(e13=0.75, e24=-0.75)).max() < 1e-14


def test_ricci_form_a46_recomputed():
    # computed from first principles; consistent with kappa F^- on the family
    for a in (0.5, 1.0, 2.0):
        L = la.instantiate(la.entry_by_name("A46a0"), {"a": a})
        rho0, _, defect = kahler.ricci_form(L, E, two_form(e14=1, e23=1))
        want = two_form(e14=-a * a / 2, e23=a * a / 2)
        assert np.abs(rho0 - want).max() < 1e-13
        assert defect < 1e-13


def test_rho_equals_rho0_plus_scalar_part():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    a5 = 2.0
    g = np.diag([1.0, 1.0, a5, 1.0])
    omega = two_form(e12=1, e34=np.sqrt(a5))
    rho0, rho, _ = kahler.ricci_form(L, g, omega)
    s = curvature_summary(L, g).scalar
    assert np.abs(rho - (rho0 + (s / 4) * omega)).max() < 1e-13


def test_almost_kahler_ricci_form_closed():
    # For the J-invariant non-integrable case the full Ricci form is closed.
    L = la.instantiate(la.entry_by_name("A49half"), {})
    _, rho, defect = kahler.ricci_form(L, E, two_form(e13=1, e24=-1))
    assert defect < 1e-13
    assert np.abs(la.d_two_form(L, rho)).max() <= 1e-10


def test_compatible_omega_selfdual_norm_two():
    cases = [
        ("2A2", {}, np.diag([1.0, 1.0, 2.0, 1.0]), two_form(e12=1, e34=np.sqrt(2)), 1),
        ("A2+2A1", {}, E, two_form(e12=1, e34=1), 1),
        ("A46a0", {"a": 1.0}, E, two_form(e14=1, e23=1), 1),
        ("A49half", {}, E, two_form(e13=1, e24=-1), 1),
        ("A49half", {}, E, two_form(e13=1, e24=1), -1),
    ]
    for name, params, g, omega, orient in cases:
        assert kahler.is_compatible(g, omega), name
        assert norm_sq(g, omega) == pytest.approx(2.0, abs=1e-12), name
        fp, fm = sd_asd_split(g, omega, orient)
        assert np.abs(fm).max() <= 1e-12, name  # self-dual for its orientation
        from liemaxwell.forms import wedge_two_two, volume_coefficient
        assert wedge_two_two(omega, omega) * volume_coefficient(g, orient) > 0


def test_hermitian_diagnostics_block():
    L = la.instantiate(la.entry_by_name("A49half"), {})
    block = kahler.hermitian_diagnostics(L, E, two_form(e13=1, e24=-1))
    assert block["type"] == kahler.ALMOST_KAHLER
    assert block["rho0"] == pytest.approx([0, 0.75, 0, 0, 0.75, 0], abs=1e-12)
    assert block["ricci_j_invariance_defect"] <= 1e-13
