import csv
import functools
import warnings

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


@pytest.mark.parametrize("group, box", [
    ("euclidean2", [(0, 1e-153)] * 2),  # every 1/h^2 finite, K's diagonal 4/h^2 not
    ("euclidean2", [(0, 1e160)] * 2),  # the cell volume overflows
    ("heisenberg1", [(0, 1e150)] * 3),  # the box volume overflows
    ("heisenberg1", [(0, 1e153), (0, 1), (0, 1e-150)]),  # x/2 at the t offset does
], ids=["E2-tiny", "E2-huge", "H1-huge", "H1-far"])
def test_build_grid_rejects_boxes_whose_quantities_leave_the_float_range(group, box):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="degenerate box"):
            se.build_grid(group, box, (8,) * len(box))


@pytest.mark.parametrize("group", ["euclidean2", "heisenberg1"])
@pytest.mark.parametrize("width", [1.6e-153, 1e-150, 1e-19, 1e25, 1e100])
def test_accepted_box_keeps_volumes_and_stiffness_finite(group, width):
    # the check is a bound: E2 [0,1.6e-153]^2, diag K = 1.27e308, still passes
    dim = 2 if group == "euclidean2" else 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        grid = se.build_grid(group, [(0, width)] * dim, (8,) * dim)
        diag = grid.stiffness_diagonal
    assert np.isfinite([grid.cell_volume, grid.box_volume, *diag]).all() and diag.min() > 0


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


# per axis: box lo, box width, interior node count; 2 axes are euclidean2, 3 heisenberg1.
# Counts 1 and 2 make distinct lattice offsets meet on one node offset.
grid_axes = st.one_of(*(st.lists(st.tuples(st.floats(-2, 1), st.floats(0.5, 3),
                                            st.integers(1, 12)), min_size=n, max_size=n)
                        for n in (2, 3)))


def axes_grid(axes):
    group = "euclidean2" if len(axes) == 2 else "heisenberg1"
    return se.build_grid(group, [(lo, lo + w) for lo, w, _ in axes], [r for *_, r in axes])


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(axes=grid_axes, seed=st.integers(0, 2 ** 32 - 1))
@example(axes=[(-1.0, 2.0, 1)] * 3, seed=0)  # sites on x = 0 and y = 0: zero coefficients
def test_gradient_matrix_matches_slicing_stencil(axes, seed):
    grid = axes_grid(axes)
    group = grid.group.name
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


def triplet_gradient(grid):
    """The gradient as first assembled, independent of Grid.gradient_stencil:
    one (site, node, weight) triplet per horizontal term and node, summed
    into canonical CSR by scipy."""
    site_ids = np.arange(grid.n_sites, dtype=np.int32).reshape(grid.site_shape)
    at_node = site_ids[(slice(1, None),) * len(grid.site_shape)].ravel()
    rows, vals = [], []
    for c, component in enumerate(grid.group.horizontal_terms(grid.site_coordinates)):
        for axis, coeff in component:
            inv_h = 1.0 / grid.spacings[axis]
            behind = at_node - int(np.prod(grid.site_shape[axis + 1:]))
            for sites, weight in ((behind, inv_h), (at_node, -inv_h)):
                rows.append(c * grid.n_sites + sites)
                vals.append(coeff[sites] * weight)
    cols = np.tile(np.arange(grid.n_nodes, dtype=np.int32), len(rows))
    G = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), cols)),
                      shape=(grid.group.horizontal_dim * grid.n_sites, grid.n_nodes))
    G.eliminate_zeros()
    return G


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(axes=grid_axes, seed=st.integers(0, 2 ** 32 - 1))
@example(axes=[(-1.0, 2.0, 1), (-1.0, 2.0, 2), (-1.0, 2.0, 1)], seed=0)
def test_stencil_operators_equal_the_triplet_build_bit_for_bit(axes, seed):
    grid = axes_grid(axes)
    G, ref = grid.gradient_matrix, triplet_gradient(grid)
    for name in ("data", "indices", "indptr"):
        got, want = getattr(G, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    K, ref_K = grid.stiffness_p2, sp.csr_matrix(ref.T @ ref)
    assert K.format == "dia" and np.array_equal(np.sort(K.offsets), K.offsets)
    assert np.array_equal(K.toarray(), ref_K.toarray())
    assert np.array_equal(grid.stiffness_diagonal, ref_K.diagonal())
    for v in np.random.default_rng(seed).standard_normal((3, grid.n_nodes)):
        assert np.array_equal(K @ v, ref_K @ v)


def hessian_blocks(state):
    """The per-site blocks D = a I + b g g^T of the Hessian, b dropped when frozen."""
    p, n1 = state.p, len(state.g)
    a, b = state.s ** ((p - 2) / 2), (p - 2) * state.s ** ((p - 4) / 2)
    return {frozen: [[a * (k == l) + (not frozen) * b * state.g[k] * state.g[l]
                      for l in range(n1)] for k in range(n1)] for frozen in (True, False)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(axes=grid_axes, seed=st.integers(0, 2 ** 32 - 1))
@example(axes=[(-1.0, 2.0, 1), (-1.0, 2.0, 2), (-1.0, 2.0, 1)], seed=0)
@example(axes=[(-1.0, 2.0, 2), (-1.0, 2.0, 1)], seed=0)
def test_stencil_hessian_diagonal_equals_the_product_formula(axes, seed):
    # the diagonal of G^T D G as entrywise products G_k * G_l of the component
    # blocks, stacked in (k, l) order, transposed onto the blocks D_kl
    grid = axes_grid(axes)
    G, m, n1 = triplet_gradient(grid), grid.n_sites, grid.group.horizontal_dim
    parts = [G[k * m:(k + 1) * m] for k in range(n1)]
    products = sp.csr_matrix(sp.vstack([bk.multiply(bl) for bk in parts for bl in parts]))
    z = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    flat = EnergyState(grid, z, 2.0, 0.0).hessian(frozen=True)
    assert np.array_equal(flat.diagonal(), products.T @ np.repeat(np.eye(n1).ravel(), m))
    for p in (1.5, 3.0):
        state = EnergyState(grid, z, p, 1e-8)
        for frozen, blocks in hessian_blocks(state).items():
            exact = products.T @ np.concatenate([d for row in blocks for d in row])
            assert np.abs(state.hessian(frozen).diagonal() - exact).max() \
                <= 1e-12 * np.abs(exact).max()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(axes=grid_axes, seed=st.integers(0, 2 ** 32 - 1))
@example(axes=[(-1.0, 2.0, 1), (-1.0, 2.0, 2), (-1.0, 2.0, 1)], seed=0)
@example(axes=[(-1.0, 2.0, 2), (-1.0, 2.0, 1)], seed=0)
def test_hessian_diagonal_matches_assembled_hessian(axes, seed):
    # G^T D G assembled from the per-site blocks as a sparse product: the
    # whole banded Hessian, its diagonal included, and its band layout
    grid = axes_grid(axes)
    G, K = grid.gradient_matrix, grid.stiffness_p2
    z = np.random.default_rng(seed).standard_normal(grid.n_nodes)
    flat = EnergyState(grid, z, 2.0, 0.0).hessian(frozen=True)
    assert np.array_equal(flat.offsets, K.offsets) and np.array_equal(flat.data, K.data)
    for p in (1.5, 3.0):
        state = EnergyState(grid, z, p, 1e-3)
        for frozen, blocks in hessian_blocks(state).items():
            exact, H = G.T @ sp.bmat([[sp.diags(d) for d in row] for row in blocks]) @ G, \
                state.hessian(frozen)
            assert H.format == "dia"
            assert np.allclose(H.diagonal(), exact.diagonal(), rtol=1e-12, atol=0)
            assert abs(H.tocsr() - exact).max() <= 1e-12 * abs(exact).max()
            assert not frozen or np.array_equal(H.offsets, K.offsets)
            if min(grid.resolution) >= 3:  # no two lattice offsets meet on one node offset
                # K's 5 (E2) or 11 (H1) diagonals, and the b term's mixed pair
                assert len(H.offsets) == (5 if len(axes) == 2 else 11) + 2 * (not frozen)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(axes=grid_axes, seed=st.integers(0, 2 ** 32 - 1))
@example(axes=[(-1.0, 2.0, 1), (-1.0, 2.0, 2), (-1.0, 2.0, 1)], seed=0)
@example(axes=[(-1.0, 2.0, 2), (-1.0, 2.0, 1)], seed=0)
def test_hessian_vector_is_flux_derivative(axes, seed):
    # central difference of the flux G^T(a g) along v; eps = 1e-2 keeps the
    # truncation error (worst seen 2e-7 relative at h = 1e-6) far below the bound
    grid = axes_grid(axes)
    rng = np.random.default_rng(seed)
    z, v = rng.standard_normal((2, grid.n_nodes))
    eps, h = 1e-2, 1e-6
    for p in (1.5, 3.0):
        Hv = EnergyState(grid, z, p, eps).hessian() @ v
        fd = (EnergyState(grid, z + h * v, p, eps).flux_divergence()
              - EnergyState(grid, z - h * v, p, eps).flux_divergence()) / (2 * h)
        assert np.max(np.abs(Hv - fd)) <= 1e-5 * np.max(np.abs(Hv))


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


@pytest.mark.parametrize("box, resolution", [([(0, 1), (0, 1)], (8, 8)),
                                             ([(0, 2), (-1, 0.5)], (31, 17)),
                                             ([(0, 1), (0, 1)], (1, 5)),
                                             ([(0, 1), (0, 1)], (2, 3))])
def test_separable_inverse_is_exact_on_euclidean_grids(box, resolution):
    grid = se.build_grid("euclidean2", box, resolution)
    grid.stiffness_diagonal
    assert "separable_inverse" not in vars(grid)  # built on first use only
    K, eye = grid.stiffness_p2.toarray(), np.eye(grid.n_nodes)
    X = np.column_stack([grid.separable_inverse(e) for e in eye])
    assert np.max(np.abs(X @ K - eye)) <= 1e-12
    assert np.max(np.abs(K @ X - eye)) <= 1e-12


def separable_part(grid):
    """sum_a w_a L_a as a dense matrix: L_a axis a's tridiag(-1, 2, -1) / h_a^2 over
    the node lattice, w_a the site mean of the squared coefficients that read axis a."""
    w = np.zeros(len(grid.resolution))
    for component in grid.group.horizontal_terms(grid.site_coordinates):
        for axis, coeff in component:
            w[axis] += np.mean(coeff ** 2)
    M = np.zeros((grid.n_nodes, grid.n_nodes))
    for a, (n, h) in enumerate(zip(grid.resolution, grid.spacings)):
        L = (2 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h ** 2
        factors = [L if b == a else np.eye(m) for b, m in enumerate(grid.resolution)]
        M += w[a] * functools.reduce(np.kron, factors)
    return M


@pytest.mark.parametrize("resolution", [(3, 3, 3), (5, 4, 6)])
def test_separable_inverse_inverts_the_separable_part_on_heisenberg_grids(resolution):
    # the t coefficients vary in x and y, so M keeps their site mean:
    # w = (1, 1, mean((x^2 + y^2) / 4))
    grid = se.build_grid("heisenberg1", [(0, 1)] * 3, resolution)
    M, eye = separable_part(grid), np.eye(grid.n_nodes)
    X = np.column_stack([grid.separable_inverse(e) for e in eye])
    assert np.max(np.abs(M @ X - eye)) <= 1e-12
    # a float32 operand stays float32, and scale s gives (M / s)^{-1}
    v = np.random.default_rng(0).standard_normal(grid.n_nodes).astype(np.float32)
    scaled = grid.separable_inverse(v, 64.0)
    assert scaled.dtype == np.float32
    assert np.max(np.abs(M @ scaled / 64.0 - v)) <= 1e-5 * np.max(np.abs(v))


@pytest.mark.parametrize("grid", KERNEL_GRIDS + (
    se.build_grid("heisenberg1", [(0, 1)] * 3, (5, 4, 6)),
    se.build_grid("euclidean2", [(0, 2), (-1, 0.5)], (7, 5))))
def test_hessians_are_exactly_symmetric(grid):
    # each diagonal below the main one is a copy of its mirror above
    z = np.random.default_rng(5).standard_normal(grid.n_nodes)
    for p in (1.5, 3.0):
        state = EnergyState(grid, z, p, 1e-8)
        for frozen in (True, False):
            H = state.hessian(frozen).tocsr()
            assert (H - H.T).count_nonzero() == 0
