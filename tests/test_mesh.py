import csv

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subeigen as se
from conftest import chain_grid, random_field
from subeigen.mesh import EnergyState

KERNEL_GRIDS = (se.build_grid("euclidean2", [(0, 1), (0, 1)], (4, 4)),
                se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (3, 3, 3)))
kernel_cases = dict(grid=st.sampled_from(KERNEL_GRIDS), p=st.sampled_from((1.5, 3.0)),
                    seed=st.integers(0, 2 ** 32 - 1))


def test_build_grid_counts_euclidean():
    g = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    assert g.n_nodes == 9
    assert g.spacings == (0.25, 0.25)
    assert g.cell_volume == pytest.approx(1 / 16)


def test_build_grid_counts_heisenberg():
    g = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (3, 3, 3))
    assert g.n_nodes == 27
    assert g.site_shape == (4, 4, 4)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        se.build_grid("euclidean2", [(0, 1), (0, 1)], (0, 3))
    with pytest.raises(ValueError):
        se.build_grid("euclidean2", [(0, 1), (1, 1)], (3, 3))
    with pytest.raises(ValueError):
        se.build_grid("euclidean2", [(0, 1), (0, 1), (0, 1)], (3, 3, 3))
    # unbounded axes, and spacings whose h**-2 overflows or underflows
    for box in ([(0, 1e308), (0, 1)], [(0, 1e-200), (0, 1)], [(0, np.inf), (0, 1)],
                [(-np.inf, 0), (0, 1)], [(0, np.nan), (0, 1)]):
        with pytest.raises(ValueError, match="degenerate box"):
            se.build_grid("euclidean2", box, (8, 8))


def test_build_grid_rejects_fractional_resolution():
    with pytest.raises(ValueError, match="integers"):
        se.build_grid("euclidean2", [(0, 1), (0, 1)], (4.7, 4))
    assert se.build_grid("euclidean2", [(0, 1), (0, 1)], (4.0, np.int64(4))).resolution == (4, 4)


def test_nodes_strictly_inside_box():
    g = se.build_grid("heisenberg1", [(0, 1), (-1, 2), (0.5, 0.75)], (3, 4, 2))
    coords = g.node_coordinates
    for j, (lo, hi) in enumerate(g.box):
        assert np.all(coords[:, j] > lo)
        assert np.all(coords[:, j] < hi)


def test_gradient_of_linear_function_euclidean():
    g = se.build_grid("euclidean2", [(0, 1), (0, 1)], (15, 15))
    u = se.Field.from_function(g, lambda x, y: x)
    H = se.horizontal_gradient(u)
    # away from the boundary the forward difference of f = x is exactly 1
    idx = np.indices(g.site_shape).reshape(2, -1)
    interior = np.all((idx >= 1) & (idx <= np.array(g.resolution)[:, None] - 1), axis=0)
    assert np.allclose(H[0, interior], 1.0, atol=1e-12)
    assert np.allclose(H[1, interior], 0.0, atol=1e-12)


def test_gradient_zero_field(unit_cube_heis):
    H = se.horizontal_gradient(se.Field.zeros(unit_cube_heis))
    assert H.shape == (2, unit_cube_heis.n_sites) and np.all(H == 0.0)


def test_horizontal_gradient_is_the_energy_kernel_gradient(unit_square, unit_cube_heis, rng):
    # one layout for the public gradient and the p-energy kernel, bit for bit
    for grid in (unit_square, unit_cube_heis):
        u = random_field(grid, rng)
        H = se.horizontal_gradient(u)
        assert isinstance(H, np.ndarray) and H.shape == (2, grid.n_sites)
        for p in (1.5, 2.0, 3.0):
            assert H.tobytes() == EnergyState(grid, u.values, p, 0.0).g.tobytes()


def test_heisenberg_gradient_of_t_matches_field_model():
    # f = t has X1 f = -y/2 and X2 f = x/2; exact for the difference stencils
    # wherever the stencil stays interior
    g = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (7, 7, 7))
    u = se.Field.from_function(g, lambda x, y, t: t)
    H = se.horizontal_gradient(u)
    idx = np.indices(g.site_shape).reshape(3, -1)
    interior = np.all((idx >= 1) & (idx <= np.array(g.resolution)[:, None] - 1), axis=0)
    sc = g.site_coordinates
    assert np.allclose(H[0, interior], -0.5 * sc[interior, 1], atol=1e-12)
    assert np.allclose(H[1, interior], 0.5 * sc[interior, 0], atol=1e-12)


def test_gradient_refinement_first_order_heisenberg():
    # smooth nonlinear profile: interior-restricted sup error decays ~ h
    def f(x, y, t):
        return np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * t)

    errors = []
    for n in (8, 16, 32):
        g = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (n, n, n))
        u = se.Field.from_function(g, f)
        H = se.horizontal_gradient(u)
        sc = g.site_coordinates
        x, y, t = sc[:, 0], sc[:, 1], sc[:, 2]
        cx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * t)
        ct = np.pi * np.sin(np.pi * x) * np.sin(np.pi * y) * np.cos(np.pi * t)
        cy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y) * np.sin(np.pi * t)
        exact0 = cx - 0.5 * y * ct
        exact1 = cy + 0.5 * x * ct
        idx = np.indices(g.site_shape).reshape(3, -1)
        mask = np.all((idx >= 1) & (idx <= np.array(g.resolution)[:, None] - 1), axis=0)
        err = max(np.max(np.abs(H[0, mask] - exact0[mask])),
                  np.max(np.abs(H[1, mask] - exact1[mask])))
        errors.append(err)
    rate1 = errors[0] / errors[1]
    rate2 = errors[1] / errors[2]
    assert 1.5 < rate1 < 2.8
    assert 1.5 < rate2 < 2.8


# per axis: box lo, box width, interior node count; 2 axes are euclidean2, 3 heisenberg1
gradient_axes = st.one_of(*(st.lists(st.tuples(st.floats(-2, 1), st.floats(0.5, 3),
                                                st.integers(1, 5)), min_size=n, max_size=n)
                            for n in (2, 3)))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(axes=gradient_axes, seed=st.integers(0, 2 ** 32 - 1))
@example(axes=[(-1.0, 2.0, 1)] * 3, seed=0)  # sites on x = 0 and y = 0: zero coefficients
def test_gradient_matrix_matches_slicing_stencil(axes, seed):
    group = "euclidean2" if len(axes) == 2 else "heisenberg1"
    grid = se.build_grid(group, [(lo, lo + w) for lo, w, _ in axes], [r for *_, r in axes])
    G = grid.gradient_matrix
    assert G.has_canonical_format
    assert np.all(G.data != 0.0)
    u = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    padded = np.pad(u.reshape(grid.resolution), 1)  # lattice indices 0..res + 1, zero outside
    below = (slice(0, -1),) * padded.ndim  # the sites 0..res

    def forward(axis):
        above = tuple(slice(1, None) if j == axis else slice(0, -1) for j in range(padded.ndim))
        return ((padded[above] - padded[below]) / grid.spacings[axis]).ravel()

    x, y = grid.site_coordinates[:, 0], grid.site_coordinates[:, 1]
    X1, X2 = forward(0), forward(1)
    if group == "heisenberg1":  # X1 = d_x - (y/2) d_t, X2 = d_y + (x/2) d_t
        X1, X2 = X1 - 0.5 * y * forward(2), X2 + 0.5 * x * forward(2)
    # absolute slack for entries where the terms cancel
    scale = np.abs(u).max() * (1 + np.abs(grid.site_coordinates).max()) / min(grid.spacings)
    np.testing.assert_allclose(G @ u, np.concatenate((X1, X2)), rtol=1e-13, atol=1e-13 * scale)


def test_p_energy_zero_and_homogeneity(unit_square, rng):
    assert se.p_energy(se.Field.zeros(unit_square), 2.5) == 0.0
    u = random_field(unit_square, rng)
    for p in (1.5, 2.0, 3.0):
        E = se.p_energy(u, p)
        for t in (-2.0, 0.5, 3.0):
            assert se.p_energy(t * u, p) == pytest.approx(abs(t) ** p * E, rel=1e-12)


def test_p_energy_sine_anchor():
    # integral of |grad(sin pi x sin pi y)|^2 over the unit square is pi^2/2
    g = se.build_grid("euclidean2", [(0, 1), (0, 1)], (64, 64))
    u = se.Field.from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert se.p_energy(u, 2.0) == pytest.approx(np.pi ** 2 / 2, rel=0.01)


def test_p_energy_eps_monotone(unit_square, rng):
    # the inner solver's regularized energy decreases to the exact p_energy as eps -> 0
    u = random_field(unit_square, rng)
    for p in (1.5, 3.0):
        values = [EnergyState(unit_square, u.values, p, eps).energy() * unit_square.cell_volume
                  for eps in (1e-1, 1e-2, 1e-4, 0.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == se.p_energy(u, p)
        assert values[-2] == pytest.approx(values[-1], rel=1e-6)


def test_p_energy_rejects_bad_p(unit_square):
    with pytest.raises(ValueError):
        se.p_energy(se.Field.ones(unit_square), 1.0)


def test_lq_norm_values(unit_square, rng):
    assert se.lq_norm(se.Field.zeros(unit_square), 2.0) == 0.0
    u = random_field(unit_square, rng)
    for q in (1.0, 2.0, 3.5):
        n = se.lq_norm(u, q)
        for t in (-3.0, 0.25):
            assert se.lq_norm(t * u, q) == pytest.approx(abs(t) * n, rel=1e-12)
    with pytest.raises(ValueError):
        se.lq_norm(u, 0.5)


def test_lq_norm_outside_float_range(unit_square, rng):
    # |u|^q under- or overflows for these (t, q); the norm is still homogeneous
    u = random_field(unit_square, rng)
    for q in (2.0, 1000.0):
        n = se.lq_norm(u, q)
        for t in (1e-300, 1e300):
            assert se.lq_norm(t * u, q) == pytest.approx(t * n, rel=1e-12)
    # values below 0.6: every |w|^2000 underflows to 0, yet the norm is near max |w|
    w = se.Field(unit_square, 0.3 + 0.3 * rng.random(unit_square.n_nodes))
    top = float(np.max(w.values))
    assert 0.9 * top < se.lq_norm(w, 2000.0) <= top


def test_lq_norm_sine_anchor():
    g = se.build_grid("euclidean2", [(0, 1), (0, 1)], (64, 64))
    u = se.Field.from_function(g, lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
    assert se.lq_norm(u, 2.0) == pytest.approx(0.5, rel=0.01)


def test_summation_by_parts_exact(unit_cube_heis, unit_square, rng):
    # <A_{p=2} u, v> equals sum grad u . grad v dV with no quadrature slack
    for grid in (unit_square, unit_cube_heis):
        u, v = random_field(grid, rng), random_field(grid, rng)
        lhs = se.pairing(se.apply_A(u, 2.0), v)
        gu = se.horizontal_gradient(u)
        gv = se.horizontal_gradient(v)
        rhs = float(np.sum(gu * gv) * grid.cell_volume)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)


def test_chain_grid_reproduces_tridiagonal_stiffness():
    g = chain_grid(3)
    K = g.stiffness_p2.toarray()
    expected = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    assert np.allclose(K, expected, atol=1e-11)


def test_dilate_grid_scales_spacings():
    g = se.build_grid("heisenberg1", [(0, 1), (0, 1), (0, 1)], (4, 4, 4))
    gd = se.dilate_grid(g, 2.0)
    assert gd.spacings[0] == pytest.approx(2 * g.spacings[0])
    assert gd.spacings[2] == pytest.approx(4 * g.spacings[2])
    assert gd.box_volume == pytest.approx(2 ** 4 * g.box_volume)


def test_dilate_grid_maps_box_corners_by_dilate():
    # the box is exactly lo * s**w, hi * s**w per axis of grading w, also where a
    # vectorized power rounds differently (0.1**2)
    for g in (se.build_grid("euclidean2", [(0.3, 1.7), (-2, 1)], (3, 3)),
              se.build_grid("heisenberg1", [(0.3, 1.7), (-2, 1), (-0.9, 5.1)], (3, 3, 3))):
        for s in (0.1, 0.5, 2.0, 3.0, 7.3, 1e-3):
            expected = tuple((lo * s ** w, hi * s ** w)
                             for (lo, hi), w in zip(g.box, g.group.dilation_exponents))
            assert se.dilate_grid(g, s).box == expected


def test_field_arithmetic_and_grid_check(unit_square, rng):
    u, v = random_field(unit_square, rng), random_field(unit_square, rng)
    assert np.allclose((u + v).values, u.values + v.values)
    assert np.allclose((u - v).values, u.values - v.values)
    assert np.allclose((2.5 * u).values, 2.5 * u.values)
    other = se.build_grid("euclidean2", [(0, 1), (0, 1)], (3, 3))
    with pytest.raises(ValueError):
        u + se.Field.zeros(other)


def test_field_equality_and_hash_are_by_identity(unit_square):
    u, v = se.Field.ones(unit_square), se.Field.ones(unit_square)
    assert (u == u) is True and (u == v) is False and (u != v) is True
    assert len({u, v, u}) == 2
    assert np.array_equal(u.values, v.values)


def test_field_dump_csv(tmp_path, unit_cube_heis, rng):
    u = random_field(unit_cube_heis, rng)
    path = tmp_path / "field.csv"
    se.dump_field_csv(u, path)
    assert b"\r" not in path.read_bytes()
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "t", "value"]
    assert len(rows) == 1 + unit_cube_heis.n_nodes
    got = np.array([float(r[3]) for r in rows[1:]])
    assert np.array_equal(got, u.values)
    coords = np.array([[float(c) for c in r[:3]] for r in rows[1:]])
    assert np.array_equal(coords, unit_cube_heis.node_coordinates)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**kernel_cases)
def test_hessian_vector_is_flux_derivative(grid, p, seed):
    # central difference of the flux G^T(a g) along v; eps = 1e-2 keeps the
    # truncation error (worst seen 2e-7 relative at h = 1e-6) far below the bound
    rng = np.random.default_rng(seed)
    z, v = rng.standard_normal((2, grid.n_nodes))
    eps, h = 1e-2, 1e-6
    Hv = EnergyState(grid, z, p, eps).hessian_vector(v)
    fd = (EnergyState(grid, z + h * v, p, eps).flux_divergence()
          - EnergyState(grid, z - h * v, p, eps).flux_divergence()) / (2 * h)
    assert np.max(np.abs(Hv - fd)) <= 1e-5 * np.max(np.abs(Hv))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**kernel_cases)
def test_hessian_diagonal_matches_assembled_hessian(grid, p, seed):
    # G^T D G assembled from the per-site blocks D = a I + b g g^T
    z = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    state = EnergyState(grid, z, p, 1e-3)
    a, b, g = state.s ** ((p - 2) / 2), (p - 2) * state.s ** ((p - 4) / 2), state.g
    D = sp.bmat([[sp.diags(a * (k == l) + b * g[k] * g[l]) for l in range(len(g))]
                 for k in range(len(g))])
    G = grid.gradient_matrix
    exact = (G.T @ D @ G).diagonal()
    assert np.allclose(state.hessian_diagonal(), exact, rtol=1e-12, atol=0)


@pytest.mark.parametrize("grid", KERNEL_GRIDS + (se.build_grid("heisenberg1", [(0, 1)] * 3, (5, 4, 6)),))
def test_gradient_transpose_is_cached_csr(grid):
    grid = se.build_grid(grid.group, grid.box, grid.resolution)  # fresh caches
    grid.stiffness_p2
    assert "gradient_transpose" not in vars(grid)  # built on first use only
    GT, G = grid.gradient_transpose, grid.gradient_matrix
    assert GT.format == "csr" and GT is grid.gradient_transpose
    assert GT.shape == G.T.shape and (GT != G.T).nnz == 0
    z = np.random.default_rng(3).standard_normal(grid.n_nodes)
    for p in (1.5, 3.0):
        state = EnergyState(grid, z, p, 1e-3)
        ref = G.T @ (state.s ** ((p - 2) / 2) * state.g).ravel()
        assert np.max(np.abs(state.flux_divergence() - ref)) <= 1e-14 * np.max(np.abs(ref))
