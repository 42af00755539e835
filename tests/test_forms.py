"""Hodge star, self-dual splitting, inner products, co-closedness."""

from fractions import Fraction

import numpy as np
import pytest

import oracles as orc
from conftest import admissible_draws
from liemaxwell import forms
from liemaxwell import lie_algebra as la
from liemaxwell._smallmat import sqrt_fraction
from liemaxwell.forms import two_form


def test_star_euclidean_fixtures():
    g = np.eye(4)
    assert np.allclose(forms.hodge_star(g, two_form(e12=1)), two_form(e34=1))
    assert np.allclose(forms.hodge_star(g, two_form(e13=1)), two_form(e24=-1))
    assert np.allclose(forms.hodge_star(g, two_form(e14=1)), two_form(e23=1))


def test_star_scaled_metric():
    for a5 in (2.0, 3.0, 0.5):
        g = np.diag([1.0, 1.0, a5, 1.0])
        assert np.allclose(forms.hodge_star(g, two_form(e12=1)),
                           two_form(e34=np.sqrt(a5)))
        assert np.allclose(forms.hodge_star(g, two_form(e34=1)),
                           two_form(e12=1 / np.sqrt(a5)))


def test_star_orientation_reversal():
    rng = np.random.default_rng(0)
    for _, L, g in admissible_draws(20, seed=20):
        f6 = rng.normal(size=6)
        assert np.allclose(forms.hodge_star(g, f6, -1), -forms.hodge_star(g, f6, 1))


def test_star_2a2_displayed_formula_at_diagonal_point():
    # With all off-diagonal metric parameters zero the displayed star reads
    # *(a12 e12 + a13 e13 + a34 e34)
    #   = (a34/sqrt(a5)) e12 - (a13/sqrt(a5)) e24 + sqrt(a5) a12 e34.
    a5, a12, a13, a34 = 2.0, 0.7, -1.3, 0.4
    g = np.diag([1.0, 1.0, a5, 1.0])
    got = forms.hodge_star(g, two_form(e12=a12, e13=a13, e34=a34))
    want = two_form(e12=a34 / np.sqrt(a5), e24=-a13 / np.sqrt(a5), e34=np.sqrt(a5) * a12)
    assert np.abs(got - want).max() < 1e-14


def test_star_matches_defining_identity_oracle():
    rng = np.random.default_rng(1)
    for _, L, g in admissible_draws(40, seed=21):
        f6 = rng.normal(size=6)
        got = forms.hodge_star(g, f6)
        want = orc.hodge_star_solve(g, f6)
        scale = max(1.0, np.abs(want).max())
        assert np.abs(got - want).max() < 1e-9 * scale


def test_star_properties_random_draws():
    rng = np.random.default_rng(2)
    for entry, L, g in admissible_draws(200, seed=22):
        f6 = rng.normal(size=6)
        starred = forms.hodge_star(g, f6)
        scale = max(1.0, np.abs(f6).max(), np.abs(starred).max())
        # ** = id on 2-forms in Riemannian signature
        assert np.abs(forms.hodge_star(g, starred) - f6).max() <= 1e-10 * scale, entry.name
        # isometry
        n1, n2 = forms.norm_sq(g, f6), forms.norm_sq(g, starred)
        assert abs(n1 - n2) <= 1e-10 * max(1.0, abs(n1))
        # F ^ *F = |F|^2 vol >= 0
        wedge = forms.wedge_two_two(f6, starred)
        vol = forms.volume_coefficient(g)
        assert wedge >= -1e-12 * max(1.0, abs(wedge))
        assert abs(wedge - n1 * vol) <= 1e-9 * max(1.0, abs(wedge))
        # defining identity against a second form
        g6 = rng.normal(size=6)
        lhs = forms.wedge_two_two(g6, starred)
        rhs = forms.inner_product(g, g6, f6) * vol
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_inner_product_fixtures():
    g = np.eye(4)
    assert forms.inner_product(g, two_form(e12=1), two_form(e12=1)) == 1.0
    assert forms.inner_product(g, two_form(e12=1), two_form(e34=1)) == 0.0
    g2 = np.diag([1.0, 1.0, 2.0, 1.0])
    assert forms.inner_product(g2, two_form(e34=1), two_form(e34=1)) == pytest.approx(0.5)


def test_split_fixtures():
    g = np.eye(4)
    fp, fm = forms.sd_asd_split(g, two_form(e12=1, e34=1))
    assert np.allclose(fp, two_form(e12=1, e34=1)) and np.abs(fm).max() == 0

    # 2A2 family split as displayed
    a5, a12, a34 = 2.0, 0.8, 1.5
    g2 = np.diag([1.0, 1.0, a5, 1.0])
    fp, fm = forms.sd_asd_split(g2, two_form(e12=a12, e34=a34))
    want_p = two_form(e12=(a34 / np.sqrt(a5) + a12) / 2, e34=(np.sqrt(a5) * a12 + a34) / 2)
    want_m = two_form(e12=(-a34 / np.sqrt(a5) + a12) / 2, e34=(-np.sqrt(a5) * a12 + a34) / 2)
    assert np.abs(fp - want_p).max() < 1e-14
    assert np.abs(fm - want_m).max() < 1e-14

    # A4,6^{a,0} family split: F+ = (a14 + a23)/2 (e14 + e23)
    a14, a23 = 0.6, 1.1
    fp, fm = forms.sd_asd_split(np.eye(4), two_form(e14=a14, e23=a23))
    assert np.abs(fp - two_form(e14=(a14 + a23) / 2, e23=(a14 + a23) / 2)).max() < 1e-14
    assert np.abs(fm - two_form(e14=(a14 - a23) / 2, e23=(a23 - a14) / 2)).max() < 1e-14


def test_split_projectors():
    rng = np.random.default_rng(3)
    for _, L, g in admissible_draws(50, seed=23):
        f6 = rng.normal(size=6)
        fp, fm = forms.sd_asd_split(g, f6)
        scale = max(1.0, np.abs(f6).max())
        assert np.abs(fp + fm - f6).max() <= 1e-12 * scale
        assert np.abs(forms.hodge_star(g, fp) - fp).max() <= 1e-9 * scale
        assert np.abs(forms.hodge_star(g, fm) + fm).max() <= 1e-9 * scale
        fpp, fpm = forms.sd_asd_split(g, fp)
        assert np.abs(fpp - fp).max() <= 1e-9 * scale
        assert np.abs(fpm).max() <= 1e-9 * scale


def test_coclosedness_fixtures():
    L = la.instantiate(la.entry_by_name("2A2"), {})
    g = np.diag([1.0, 1.0, 2.0, 1.0])
    assert forms.is_coclosed(L, g, two_form(e34=1)).ok

    # solution branch a1 = a4 = 0, a3 = (a2 a34 + a13)/a12 of the co-closedness
    # system (a2 = 1 as quoted for this branch degenerates the metric: rows 1
    # and 4 coincide; any admissible a2 exercises the same branch)
    a2, a12, a13, a34 = 0.5, 0.8, 0.3, 1.2
    a3 = (a2 * a34 + a13) / a12
    entry = la.entry_by_name("2A2")
    g2 = la.metric_from_params(entry, {"a1": 0.0, "a2": a2, "a3": a3, "a4": 0.0, "a5": 2.0})
    from liemaxwell.metric_geometry import validate_metric
    assert validate_metric(entry, g2).ok
    assert forms.is_coclosed(L, g2, two_form(e12=a12, e13=a13, e34=a34)).ok
    # off the branch the residual is visible
    assert not forms.is_coclosed(L, g2, two_form(e12=a12, e13=a13 + 0.4, e34=a34)).ok


def test_coclosedness_a41_failure_matches_oracle():
    L = la.instantiate(la.entry_by_name("A4,1"), {})
    g = la.metric_from_params(la.entry_by_name("A4,1"), {"a1": 0.5, "a2": 1.0})
    check = forms.is_coclosed(L, g, two_form(e24=1))
    assert not check.ok
    want = orc.d_two_form_leibniz(np.asarray(L.c, dtype=float),
                                  orc.hodge_star_solve(g, two_form(e24=1)))
    assert np.abs(np.asarray(check.residual) - want).max() < 1e-10
    # frozen from the oracle: the a34 = a1 a24 defect shows up at 2/sqrt(3)
    assert np.abs(check.residual).max() == pytest.approx(1.1547005383792515, abs=1e-12)


def test_exact_star_radical_tracking():
    gx = np.diag([Fraction(1), Fraction(1), Fraction(2), Fraction(1)]).astype(object)
    coeffs, root = forms.hodge_star_exact(gx, two_form(e12=1))
    assert root == Fraction(2)
    assert list(coeffs) == [0, 0, 0, 0, 0, Fraction(1)]
    g4 = np.diag([Fraction(1), Fraction(1), Fraction(4), Fraction(1)]).astype(object)
    coeffs4, root4 = forms.hodge_star_exact(g4, two_form(e12=1))
    assert root4 == 1 and coeffs4[5] == Fraction(2)


@pytest.mark.parametrize("root", [2 ** 26 + 1, 3 ** 40, 10 ** 30 + 7, 2 ** 120 - 1])
def test_sqrt_fraction_beyond_float_precision(root):
    square = root * root  # above 2**52, where a float square root rounds
    assert sqrt_fraction(Fraction(square)) == root
    assert sqrt_fraction(Fraction(square - 1)) is None
    assert sqrt_fraction(Fraction(square + 1)) is None
    assert sqrt_fraction(Fraction(square, 49)) == Fraction(root, 7)


def test_sqrt_fraction_small_values():
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(8, 18)) == Fraction(2, 3)
    assert sqrt_fraction(Fraction(2, 9)) is None
    assert sqrt_fraction(Fraction(4, 3)) is None
    with pytest.raises(ValueError, match="negative"):
        sqrt_fraction(Fraction(-4, 9))


def test_star_rejects_degenerate_metric():
    with pytest.raises(ValueError, match="determinant"):
        forms.hodge_star(np.diag([1.0, 1.0, 0.0, 1.0]), two_form(e12=1))


def test_exact_coclosedness_through_rational_part():
    # d is linear, so d(*F) = sqrt(root) * d(rational part): co-closedness of
    # rational data is exactly decidable from the rational part alone.
    entry = la.entry_by_name("2A2")
    L = la.instantiate(entry, {}, exact=True)
    g = la.metric_from_params(
        entry, {"a1": 0, "a2": 0, "a3": 0, "a4": 0, "a5": Fraction(2)}, exact=True)
    coeffs, root = forms.hodge_star_exact(g, two_form(e34=1))
    assert root == Fraction(2)
    residual = la.d_two_form(L, coeffs)
    assert all(x == 0 for x in residual)
    # and a non-co-closed form shows an exactly nonzero rational residual
    coeffs2, _ = forms.hodge_star_exact(g, two_form(e14=1))
    residual2 = la.d_two_form(L, coeffs2)
    assert any(x != 0 for x in residual2)
