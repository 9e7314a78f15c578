import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subeigen as se
from subeigen.groups import EUCLIDEAN2, HEISENBERG1


def test_homogeneous_dimension_values():
    assert se.homogeneous_dimension([2, 1]) == 4
    assert se.homogeneous_dimension([2]) == 2
    assert se.homogeneous_dimension([3, 3, 1]) == 12


def test_homogeneous_dimension_rejects_bad_stratifications():
    with pytest.raises(ValueError):
        se.homogeneous_dimension([])
    with pytest.raises(ValueError):
        se.homogeneous_dimension([1, 2])
    with pytest.raises(ValueError):
        se.homogeneous_dimension([2, 0])


def test_descriptor_invariants():
    assert EUCLIDEAN2.topological_dim == 2
    assert EUCLIDEAN2.homogeneous_dim == 2
    assert HEISENBERG1.topological_dim == 3
    assert HEISENBERG1.homogeneous_dim == 4
    # nu >= N with equality iff single layer
    for g in se.GROUPS.values():
        if g.n_layers == 1:
            assert g.homogeneous_dim == g.topological_dim
        else:
            assert g.homogeneous_dim > g.topological_dim


def test_get_group():
    assert se.get_group("euclidean2") is EUCLIDEAN2
    assert se.get_group("heisenberg1") is HEISENBERG1
    with pytest.raises(ValueError):
        se.get_group("engel")


def test_critical_exponent_values():
    assert se.critical_exponent(2, 4) == pytest.approx(4.0)
    assert se.critical_exponent(3, 4) == pytest.approx(12.0)
    with pytest.raises(ValueError):
        se.critical_exponent(4, 4)
    with pytest.raises(ValueError):
        se.critical_exponent(1.0, 4)


def test_dilate_heisenberg_grading():
    out = se.dilate([1.0, 1.0, 1.0], 2.0, HEISENBERG1)
    assert np.allclose(out, [2.0, 2.0, 4.0])


def test_dilate_identity_and_composition(rng):
    for g in se.GROUPS.values():
        x = rng.standard_normal(g.topological_dim)
        assert np.allclose(se.dilate(x, 1.0, g), x)
        for s, r in ((2.0, 0.7), (0.3, 5.0)):
            left = se.dilate(se.dilate(x, s, g), r, g)
            right = se.dilate(x, s * r, g)
            assert np.allclose(left, right, rtol=1e-13)


def test_dilate_bijection(rng):
    g = HEISENBERG1
    x = rng.standard_normal(3)
    back = se.dilate(se.dilate(x, 3.7, g), 1 / 3.7, g)
    assert np.allclose(back, x, rtol=1e-13)


def test_dilate_rejects_bad_input():
    with pytest.raises(ValueError):
        se.dilate([1.0, 1.0, 1.0], 0.0, HEISENBERG1)
    with pytest.raises(ValueError):
        se.dilate([1.0, 1.0], -2.0, HEISENBERG1)
    with pytest.raises(ValueError):
        se.dilate([1.0, 1.0], 2.0, HEISENBERG1)


def test_box_volume_scaling():
    # vol(delta_s B) = s^nu vol(B), exactly from edge lengths
    for g, edges in ((EUCLIDEAN2, [0.7, 1.3]), (HEISENBERG1, [0.7, 1.3, 0.9])):
        s = 2.0
        vol = float(np.prod(edges))
        scaled = [e * s ** w for e, w in zip(edges, g.dilation_exponents)]
        assert float(np.prod(scaled)) == pytest.approx(s ** g.homogeneous_dim * vol, rel=1e-14)


inf, nan = float("inf"), float("nan")
exponents = (st.floats(1.0, 1.0 + 1e-3) | st.floats(0.5, 8.0)
             | st.sampled_from((1.0, 4.0, inf, -inf, nan)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(group=st.sampled_from((EUCLIDEAN2, HEISENBERG1)), p=exponents, q=exponents,
       below=st.floats(1e-12, 1e-2))
@example(group=HEISENBERG1, p=2.0, q=3.9, below=1e-2)
@example(group=EUCLIDEAN2, p=3.0, q=7.0, below=1e-2)
@example(group=EUCLIDEAN2, p=1.5, q=10.0, below=1e-2)
def test_check_regime_windows(group, p, q, below):
    message = se.check_regime(p, q, group)
    if not 1.0 < p < inf:
        assert "finite p > 1" in message
        return
    if not 1.0 < q < inf:
        assert "finite q > 1" in message
        return
    if not p < group.homogeneous_dim:
        # the classical single-layer case waives only p < nu: then any finite q > 1
        assert message is None if group.n_layers == 1 else "p < nu" in message
        return
    nu_star = se.critical_exponent(p, group.homogeneous_dim)
    assert message is None if q < nu_star else "q < nu*" in message
    # the window is open at nu*: a q just below it is admissible, nu* is not
    assert se.check_regime(p, nu_star * (1.0 - below), group) is None
    assert "q < nu*" in se.check_regime(p, nu_star, group)
