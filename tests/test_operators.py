import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subeigen as se
from subeigen.mesh import EnergyState
from conftest import chain_grid, random_field

P_VALUES = (1.5, 2.0, 3.0, 4.0)

# Small E2 and H1 grids of random shape, and exponents that include p near 1
# and q just below the Heisenberg critical exponent nu* = 4p/(4 - p).
small_grids = st.one_of(
    st.tuples(st.integers(1, 8), st.integers(1, 8)).map(
        lambda r: se.build_grid("euclidean2", [(0, 1), (0, 2)], r)),
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).map(
        lambda r: se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], r)))
p_values = st.floats(1.001, 1.05) | st.floats(1.05, 4.0)


@st.composite
def pq_pairs(draw):
    p = draw(st.floats(1.001, 1.05) | st.floats(1.05, 3.5))
    below_nu_star = st.floats(0.99, 1.0 - 1e-9).map(lambda s: s * se.critical_exponent(p, 4))
    return p, draw(st.floats(1.001, 6.0) | below_nu_star)


property_settings = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@property_settings
@given(grid=small_grids, p=p_values, t=st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
       seed=st.integers(0, 2 ** 32 - 1))
def test_apply_A_homogeneity(grid, p, t, seed):
    u = random_field(grid, np.random.default_rng(seed))
    left = se.apply_A(t * u, p).values
    right = abs(t) ** (p - 2.0) * t * se.apply_A(u, p).values
    # machine precision relative to the output scale (cancellation-safe)
    assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(right))


def test_apply_A_linear_at_p2(unit_cube_heis, rng):
    u, v = random_field(unit_cube_heis, rng), random_field(unit_cube_heis, rng)
    left = se.apply_A(u + v, 2.0).values
    right = se.apply_A(u, 2.0).values + se.apply_A(v, 2.0).values
    assert np.allclose(left, right, rtol=1e-12, atol=1e-13)


def test_coercivity_identity(unit_square, unit_cube_heis, rng):
    for grid in (unit_square, unit_cube_heis):
        u = random_field(grid, rng)
        for p in P_VALUES:
            assert se.pairing(se.apply_A(u, p), u) == pytest.approx(
                se.p_energy(u, p), rel=1e-12)


def test_apply_B_homogeneity_and_pairing(unit_square, rng):
    u = random_field(unit_square, rng)
    for q in (1.5, 2.0, 3.0):
        Bu = se.apply_B(u, q).values
        for t in (3.0, -2.0):
            assert np.allclose(se.apply_B(t * u, q).values,
                               abs(t) ** (q - 2.0) * t * Bu, rtol=1e-12)
        assert np.allclose(se.apply_B(-u, q).values, -Bu)
        assert se.pairing(se.apply_B(u, q), u) == pytest.approx(
            se.lq_norm(u, q) ** q, rel=1e-12)
    assert np.all(se.apply_B(se.Field.zeros(unit_square), 3.0).values == 0.0)


def test_operator_preconditions(unit_square):
    u = se.Field.ones(unit_square)
    with pytest.raises(ValueError):
        se.apply_A(u, 1.0)
    with pytest.raises(ValueError):
        se.apply_B(u, 1.0)


def test_pairing_bilinear_and_grid_check(unit_square, rng):
    u, v, w = (random_field(unit_square, rng) for _ in range(3))
    d = se.apply_B(u, 2.0)
    assert se.pairing(d, se.Field.zeros(unit_square)) == 0.0
    assert se.pairing(d, v + 2.0 * w) == pytest.approx(
        se.pairing(d, v) + 2.0 * se.pairing(d, w), rel=1e-12)
    other = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    with pytest.raises(ValueError):
        se.pairing(d, se.Field.zeros(other))


@property_settings
@given(grid=small_grids, pq=pq_pairs(), seed=st.integers(0, 2 ** 32 - 1))
def test_hoelder_bounds_random_pairs(grid, pq, seed):
    # <A v, w> <= ||v||^{p-1} ||w|| and <B v, w> <= ||v||_q^{q-1} ||w||_q
    (p, q), rng = pq, np.random.default_rng(seed)
    v, w = random_field(grid, rng), random_field(grid, rng)
    bound = se.p_energy(v, p) ** ((p - 1) / p) * se.p_energy(w, p) ** (1 / p)
    assert se.pairing(se.apply_A(v, p), w) <= bound * (1 + 1e-12)
    bound = se.lq_norm(v, q) ** (q - 1) * se.lq_norm(w, q)
    assert se.pairing(se.apply_B(v, q), w) <= bound * (1 + 1e-12)


def test_hoelder_equality_at_scalar_multiples(unit_square, rng):
    w = random_field(unit_square, rng)
    for t in (0.5, 2.0):
        v = t * w
        for p in (1.5, 2.0, 3.0):
            lhs = se.pairing(se.apply_A(v, p), w)
            rhs = se.p_energy(v, p) ** ((p - 1) / p) * se.p_energy(w, p) ** (1 / p)
            assert lhs == pytest.approx(rhs, rel=1e-12)
        for q in (1.5, 2.0, 3.0):
            lhs = se.pairing(se.apply_B(v, q), w)
            rhs = se.lq_norm(v, q) ** (q - 1) * se.lq_norm(w, q)
            assert lhs == pytest.approx(rhs, rel=1e-12)


@property_settings
@given(grid=small_grids, p=p_values, seed=st.integers(0, 2 ** 32 - 1))
def test_monotonicity(grid, p, seed):
    rng = np.random.default_rng(seed)
    u, v = random_field(grid, rng), random_field(grid, rng)
    gap = se.pairing(se.apply_A(u, p) - se.apply_A(v, p), u - v)
    assert gap >= -1e-12


def test_dual_norm_bound(unit_square, rng):
    # sup_{||w||_U <= 1} <A v, w> <= ||v||_U^{p-1}, probed with random w
    v = random_field(unit_square, rng)
    for p in (1.5, 2.0, 3.0):
        vnorm = se.p_energy(v, p) ** (1 / p)
        for _ in range(50):
            w = random_field(unit_square, rng)
            wn = se.p_energy(w, p) ** (1 / p)
            assert se.pairing(se.apply_A(v, p), w) / wn <= vnorm ** (p - 1) * (1 + 1e-12)


def test_vector_inequality_positivity(rng):
    # <|a|^{p-2} a - |b|^{p-2} b, a - b> >= 0 with a positive empirical ratio
    # against (|a| + |b|)^{p-2} |a - b|^2; the constant is reported, not pinned
    for p in P_VALUES:
        a = rng.standard_normal((10_000, 2))
        b = rng.standard_normal((10_000, 2))
        na = np.linalg.norm(a, axis=1)
        nb = np.linalg.norm(b, axis=1)
        flux = (na ** (p - 2))[:, None] * a - (nb ** (p - 2))[:, None] * b
        inner = np.sum(flux * (a - b), axis=1)
        assert np.all(inner >= -1e-13)
        denom = (na + nb) ** (p - 2) * np.sum((a - b) ** 2, axis=1)
        ratio = inner / denom
        c_emp = float(np.min(ratio))
        assert c_emp > 0.0
        print(f"p={p}: empirical vector-inequality constant >= {c_emp:.6f}")


def test_residual_zero_for_dense_eigenpair():
    grid = se.build_grid("euclidean2", [(0, 1), (0, 1)], (4, 4))
    oracle = se.brute_force_lambda(grid, 2.0, 2.0)
    assert se.residual(oracle.minimizer, oracle.lambda_star, 2.0, 2.0) <= 1e-10


def test_residual_positive_for_non_eigenpair(unit_square, rng):
    u = se.Field.from_function(unit_square, lambda x, y: x * (1 - x) * y)
    assert se.residual(u, 0.0, 2.0, 2.0) > 0.0


def test_residual_scale_invariance(unit_square, rng):
    u = random_field(unit_square, rng)
    for p, q in ((2.0, 2.0), (1.5, 3.0), (3.0, 2.0)):
        r = se.residual(u, 7.0, p, q)
        for t in (5.0, -0.2):
            assert se.residual(t * u, 7.0, p, q) == pytest.approx(r, rel=1e-10)


def test_residual_rejects_zero_field(unit_square):
    with pytest.raises(ValueError):
        se.residual(se.Field.zeros(unit_square), 1.0, 2.0, 2.0)


def test_residual_matches_definition(unit_square, rng):
    # max_i |<A(u) - lam ||u||_q^{p-q} B(u), e_i>| / p_energy(u)^{(p-1)/p},
    # built from the public operators one at a time
    u = random_field(unit_square, rng)
    for p, q, lam in ((2.5, 2.0, 3.0), (1.5, 3.0, 0.7)):
        d = se.apply_A(u, p) - lam * se.lq_norm(u, q) ** (p - q) * se.apply_B(u, q)
        worst = max(abs(se.pairing(d, se.Field(unit_square, e)))
                    for e in np.eye(unit_square.n_nodes))
        expected = worst / se.p_energy(u, p) ** ((p - 1.0) / p)
        assert se.residual(u, lam, p, q) == pytest.approx(expected, rel=1e-12)


def test_residual_at_p_equal_q_takes_no_norm(unit_square, rng, monkeypatch):
    # ||u||_q^{p-q} is exactly 1 at p = q, so residual skips the norm and its
    # value is bit for bit the one of the full formula
    from subeigen import operators
    u = random_field(unit_square, rng)
    for p in (1.5, 2.0, 3.0):
        state = EnergyState(unit_square, u.values, p, 0.0)
        defect = state.flux_divergence() - 7.0 * se.lq_norm(u, p) ** 0.0 * se.apply_B(u, p).values
        expected = float(np.max(np.abs(defect)) * unit_square.cell_volume) / (
            state.energy() * unit_square.cell_volume) ** ((p - 1.0) / p)
        with monkeypatch.context() as patch:
            patch.setattr(operators, "lq_norm", None)  # any call fails
            assert se.residual(u, 7.0, p, p).hex() == expected.hex()


def test_apply_A_is_energy_gradient(rng):
    # both outputs of the p-energy kernel: the flux is the gradient of energy/p,
    # for the inner solver's regularized kernel and for the exact p_energy / apply_A
    grids = (se.build_grid("euclidean2", [(0, 1), (0, 1)], (4, 4)),
             se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (3, 3, 3)))
    eps, h = 1e-3, 1e-6
    for grid in grids:
        u = random_field(grid, rng)
        for p in (1.5, 3.0):
            pairs = ((lambda v: EnergyState(grid, v, p, eps).energy() * grid.cell_volume,
                      EnergyState(grid, u.values, p, eps).flux_divergence()),
                     (lambda v: se.p_energy(se.Field(grid, v), p), se.apply_A(u, p).values))
            for energy, Au in pairs:
                fd = np.empty(grid.n_nodes)
                for i in range(grid.n_nodes):
                    e = np.zeros(grid.n_nodes)
                    e[i] = h
                    fd[i] = (energy(u.values + e) - energy(u.values - e)) / (
                        2 * h * p * grid.cell_volume)
                assert np.max(np.abs(Au - fd)) <= 1e-6 * np.max(np.abs(Au))


def test_apply_A_zero_gradient_weight():
    # p < 2 at eps = 0: sites with zero gradient carry zero flux, the eps -> 0 limit
    for grid in (se.build_grid("euclidean2", [(0, 1), (0, 1)], (4, 4)),
                 se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (3, 3, 3))):
        u = se.Field.ones(grid)
        exact = se.apply_A(u, 1.5).values
        assert np.all(np.isfinite(exact))
        near = EnergyState(grid, u.values, 1.5, 1e-12).flux_divergence()
        assert np.max(np.abs(exact - near)) <= 1e-9 * np.max(np.abs(near))


NAN = float("nan")


# the eps cases: the regularized energy and operator are EnergyState's
# energy() and flux_divergence(), the only code in the package that takes eps
@pytest.mark.parametrize("call", [
    lambda u: se.p_energy(u, NAN),
    lambda u: EnergyState(u.grid, u.values, 2.0, NAN).energy(),
    lambda u: se.apply_A(u, NAN),
    lambda u: EnergyState(u.grid, u.values, 3.0, NAN).flux_divergence(),
    lambda u: se.apply_B(u, NAN),
    lambda u: se.lq_norm(u, NAN),
    lambda u: se.solve_inner(se.apply_B(u, 2.0), NAN, 1e-6),
    lambda u: se.dilate([1.0, 1.0], NAN, u.grid.group),
    lambda u: se.dilate_grid(u.grid, NAN),
], ids=["p_energy-p", "p_energy-eps", "apply_A-p", "apply_A-eps", "apply_B-q", "lq_norm-q",
        "solve_inner-p", "dilate-s", "dilate_grid-s"])
def test_nan_exponent_is_rejected(unit_square, call):
    # each check is written as `not x > bound`, which a NaN fails
    with pytest.raises(ValueError, match="nan"):
        call(se.Field.ones(unit_square))
