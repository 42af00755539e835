"""Per-entry co-closedness systems cross-checked against their derived branches.

For each algebra the composite map F -> d*F restricted to the closed subspace
has a known solution structure; these tests pin the star, the differential,
and the stress tensor against that structure on entries the basic fixtures do
not touch.
"""

import numpy as np

from conftest import dstar
from liemaxwell import maxwell
from liemaxwell import lie_algebra as la
from liemaxwell._smallmat import nullspace
from liemaxwell.forms import two_form
from liemaxwell.metric_geometry import validate_metric


def dstar_on_closed(L, g):
    """Matrix of F -> d*F in kernel coordinates of the closedness system."""
    basis, _ = nullspace(la.closedness_matrix(L))
    kernel = np.array([np.asarray(v, float) for v in basis]).T
    cols = [dstar(L, g, kernel[:, c]) for c in range(kernel.shape[1])]
    return kernel, np.array(cols).T


def test_a41_coclosed_kernel_is_e14_e23():
    # d*F = 0 forces a34 = a1 a24 and a1 a34 = a2 a24; with a2 - a1^2 > 0 only
    # a24 = a34 = 0 survives, leaving the two-dimensional space a14, a23.
    entry = la.entry_by_name("A4,1")
    L = la.instantiate(entry, {})
    g = la.metric_from_params(entry, {"a1": 0.6, "a2": 1.2})
    kernel, m = dstar_on_closed(L, g)
    assert kernel.shape[1] == 4
    assert kernel.shape[1] - np.linalg.matrix_rank(m, tol=1e-10) == 2
    assert np.abs(dstar(L, g, two_form(e14=1))).max() <= 1e-10
    assert np.abs(dstar(L, g, two_form(e23=1))).max() <= 1e-10
    assert np.abs(dstar(L, g, two_form(e24=1))).max() > 1e-10


def test_a44_only_trivial_coclosed():
    entry = la.entry_by_name("A4,4")
    L = la.instantiate(entry, {})
    g = la.metric_from_params(entry, {"a1": 1.5, "a2": 0.4, "a3": 1.1})
    kernel, m = dstar_on_closed(L, g)
    assert np.linalg.matrix_rank(m, tol=1e-10) == kernel.shape[1] == 3


def test_a46ab_only_trivial_coclosed():
    entry = la.entry_by_name("A4,6^{a,b}")
    L = la.instantiate(entry, {"a": 0.8, "b": 0.5})
    g = la.metric_from_params(entry, {"a1": 0.3, "a2": 0.2, "a3": 1.4})
    kernel, m = dstar_on_closed(L, g)
    assert np.linalg.matrix_rank(m, tol=1e-10) == kernel.shape[1] == 3


def test_a47_null_stress_branch():
    # On the locus a2 = 0, a4 = a1^2 / (4 (a1 - a3^2)) the family
    # F = t (e14 + e23/2 + (a3/a1) e34) is closed and co-closed with
    # identically vanishing stress, so only Einstein metrics could solve the
    # coupled system there.
    entry = la.entry_by_name("A4,7")
    a1, a3 = 2.0, 1.0
    a4 = a1 ** 2 / (4 * (a1 - a3 ** 2))
    L = la.instantiate(entry, {})
    params = {"a1": a1, "a2": 0.0, "a3": a3, "a4": a4}
    g = la.metric_from_params(entry, params)
    assert validate_metric(entry, params).ok
    for t in (0.7, -1.3):
        f6 = two_form(e14=t, e23=t / 2, e34=a3 * t / a1)
        assert np.abs(la.d_two_form(L, f6)).max() == 0
        assert np.abs(dstar(L, g, f6)).max() <= 1e-10
        assert np.abs(maxwell.stress_energy(g, f6)).max() <= 1e-14
    # off the locus the composite system only has the trivial solution
    g2 = la.metric_from_params(entry, {"a1": 2.0, "a2": 0.3, "a3": 1.0, "a4": 1.5})
    kernel, m = dstar_on_closed(L, g2)
    assert np.linalg.matrix_rank(m, tol=1e-10) == kernel.shape[1] == 3


def test_2a2_null_stress_branch():
    # Third co-closedness branch on 2A2: a1, a3, a5 determined by the form
    # coefficients; the stress vanishes identically, so nothing non-Einstein
    # can come out of it.
    entry = la.entry_by_name("2A2")
    L = la.instantiate(entry, {})
    for (a12, a13, a34, a2, a4) in ((1.0, 0.3, 0.8, 0.2, 0.4),
                                    (0.7, -0.5, 1.1, -0.3, 0.25)):
        a1 = -a4 * (a13 * a2 + a34) / a12
        a3 = (a13 + a2 * a34 - a13 * a4 ** 2) / a12
        a5 = (a34 ** 2 + a13 ** 2 + 2 * a13 * a34 * a2 - a13 ** 2 * a4 ** 2) / a12 ** 2
        params = {"a1": a1, "a2": a2, "a3": a3, "a4": a4, "a5": a5}
        if not validate_metric(entry, params).ok:
            continue
        g = la.metric_from_params(entry, params)
        f6 = two_form(e12=a12, e13=a13, e34=a34)
        assert np.abs(la.d_two_form(L, f6)).max() == 0
        assert np.abs(dstar(L, g, f6)).max() <= 1e-10
        assert np.abs(maxwell.stress_energy(g, f6)).max() <= 1e-13
