"""Cartesian grids on box domains with zero Dirichlet extension.

Interior nodes live at ``lo_j + (i+1) h_j`` for ``i = 0..res_j-1`` with
``h_j = (hi_j - lo_j)/(res_j + 1)``; every lattice point outside that set
reads as zero.  The discrete horizontal gradient uses forward differences
evaluated on the *site lattice* ``i = 0..res_j`` per axis (interior nodes
plus the low boundary layer), so that every Dirichlet face contributes to
the energy and the divergence defined as the negative transpose makes the
discrete integration by parts exact: for p = 2,

    <A u, v> = sum_sites grad u . grad v * cell_volume     (exactly).

One cached stencil, Grid.gradient_stencil, owns the gradient's coefficient
rule: per component, the weight with which each site reads the node at each
fixed lattice offset.  The gradient matrix is read off it in one pass into
canonical CSR (sorted column indices, no duplicates, no stored zeros), so
its in-row order, and with it the rounding of every product, is fixed here.
Grid.stiffness builds G^T D G from the same stencil as a banded DIA matrix
for the per-site blocks D_kl it is given: K = G^T G without blocks, equal to
the CSR product to the bit (its float32 form is scaled by a power of two),
and the Kacanov operator and Newton Hessian from EnergyState.hessian.

Field is the one node-value type, and horizontal_gradient(u) is G u as an
(n1, n_sites) array.  p_energy is exact; its kernel EnergyState also takes
the inner solver's eps > 0.  On a single 1D-like line of n interior nodes
this reproduces the classical tridiagonal (2, -1)/h^2 stiffness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .groups import GroupDescriptor, dilate, get_group

__all__ = [
    "Grid",
    "Field",
    "build_grid",
    "dilate_grid",
    "horizontal_gradient",
    "p_energy",
    "lq_norm",
    "dump_field_csv",
]


class Grid:
    """Box domain discretization for one group.

    Parameters
    ----------
    group : GroupDescriptor
    box : sequence of (lo, hi) pairs, one per coordinate axis
    resolution : sequence of interior node counts per axis
    """

    def __init__(self, group: GroupDescriptor, box, resolution):
        if isinstance(group, str):
            group = get_group(group)
        box = tuple((float(lo), float(hi)) for lo, hi in box)
        if any(int(r) != r for r in resolution):  # no silent truncation of 4.7 to 4
            raise ValueError(f"resolution must be integers, got {tuple(resolution)}")
        resolution = tuple(int(r) for r in resolution)
        N = group.topological_dim
        if len(box) != N or len(resolution) != N:
            raise ValueError(
                f"group {group.name} needs {N} axes, got box with {len(box)} and "
                f"resolution with {len(resolution)}"
            )
        if any(hi <= lo for lo, hi in box):
            raise ValueError(f"degenerate box {box}: every axis needs hi > lo")
        if any(r < 1 for r in resolution):
            raise ValueError(f"resolution must be >= 1 per axis, got {resolution}")
        spacings = tuple((hi - lo) / (r + 1) for (lo, hi), r in zip(box, resolution))
        # 1/h^2 sizes K's entries; diag K <= sum over components of 2 (sum_axis |coeff| / h)^2,
        # and the coefficients are affine, so |coeff| peaks at a box corner
        with np.errstate(all="ignore"):
            inv_h2 = np.array(spacings) ** -2.0
            volumes = np.prod(spacings), np.prod([hi - lo for lo, hi in box])
            diag = sum(2.0 * sum(np.abs(c).max() / spacings[a] for a, c in cs) ** 2
                       for cs in group.horizontal_terms(np.array([*itertools.product(*box)])))
        if not (inv_h2.min() >= np.finfo(float).tiny and max(*volumes, diag, *inv_h2) < np.inf):
            raise ValueError(f"degenerate box {box}: every axis needs finite bounds and a spacing "
                             f"h with 1/h**2 a finite normal float, and the volumes and diag K (up "
                             f"to {diag:.3g}) must be finite, got h = {spacings}")
        self.group = group
        self.box = box
        self.resolution = resolution
        self.spacings = spacings
        self.n_nodes = int(np.prod(resolution))
        self.cell_volume, self.box_volume = map(float, volumes)
        # site lattice: index 0..res_j per axis (low boundary layer + interior)
        self.site_shape = tuple(r + 1 for r in resolution)
        self.n_sites = int(np.prod(self.site_shape))

    def _key(self):
        return (self.group.name, self.box, self.resolution)

    def __eq__(self, other):
        return isinstance(other, Grid) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Grid({self.group.name}, box={self.box}, resolution={self.resolution})"

    def _lattice_coordinates(self, first: int) -> np.ndarray:
        """C-ordered coordinates of the lattice points with indices first..res_j per axis."""
        axes = [lo + h * np.arange(first, r + 1)
                for (lo, _), h, r in zip(self.box, self.spacings, self.resolution)]
        return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)

    @cached_property
    def node_coordinates(self) -> np.ndarray:
        """(n_nodes, N) coordinates of interior nodes, C-ordered."""
        return self._lattice_coordinates(1)

    @cached_property
    def site_coordinates(self) -> np.ndarray:
        """(n_sites, N) coordinates of forward-difference sites."""
        return self._lattice_coordinates(0)

    def _sites_reading(self, offset) -> tuple[slice, ...]:
        """Site-lattice slices of the sites s for which s + offset is an
        interior node, in node order (each 0/1 offset entry shifts one axis)."""
        return tuple(slice(1 - o, r + 1 - o) for o, r in zip(offset, self.resolution))

    @cached_property
    def gradient_stencil(self) -> tuple[dict[tuple[int, ...], np.ndarray], ...]:
        """The coefficient rule of the horizontal gradient, one map per component.

        Component c maps each site-lattice offset o (0 or a unit vector
        e_axis, in descending order) to the site-shaped weights with which
        site s reads node s + o: for each (axis, coeff) term of
        ``group.horizontal_terms`` at the sites, coeff[s] * (1/h) at e_axis
        and -coeff[s] * (1/h) at 0, where the terms of one component sum.
        A weight is zero where s + o is not an interior node.
        """
        N = len(self.site_shape)
        stencil = []
        for component in self.group.horizontal_terms(self.site_coordinates):
            weights = {(0,) * N: np.zeros(self.site_shape)}
            centre = self._sites_reading((0,) * N)
            for axis, coeff in component:
                scaled = coeff.reshape(self.site_shape) * (1.0 / self.spacings[axis])
                ahead = tuple(int(j == axis) for j in range(N))
                weights[ahead] = np.zeros(self.site_shape)
                weights[ahead][self._sites_reading(ahead)] = scaled[self._sites_reading(ahead)]
                weights[(0,) * N][centre] += -scaled[centre]
            stencil.append(dict(sorted(weights.items(), reverse=True)))
        return tuple(stencil)

    @cached_property
    def gradient_matrix(self) -> sp.csr_matrix:
        """Horizontal gradient as an (n1 * n_sites, n_nodes) sparse matrix.

        Component c occupies rows [c * n_sites, (c+1) * n_sites): row
        c * n_sites + s holds the nonzero weights of ``gradient_stencil``
        component c at site s, at the columns of the nodes s + o.  Ascending
        offsets are ascending columns, so the rows are read off in canonical
        CSR order with no sort.
        """
        # node number at every lattice index 0..res + 1, -1 off the interior
        node_ids = np.pad(np.arange(self.n_nodes, dtype=np.int32).reshape(self.resolution), 1,
                          constant_values=-1)
        vals, cols, counts = [], [], []
        for component in self.gradient_stencil:
            offsets = sorted(component)
            weights = np.stack([component[o].ravel() for o in offsets], axis=1)
            nodes = np.stack([node_ids[tuple(slice(j, j + m) for j, m in zip(o, self.site_shape))]
                              .ravel() for o in offsets], axis=1)
            stored = weights != 0.0  # coefficients vanish on the x = 0 and y = 0 lines
            vals.append(weights[stored])
            cols.append(nodes[stored])
            counts.append(stored.sum(axis=1))
        indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts)))).astype(np.int32)
        return sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr),
                             shape=(self.group.horizontal_dim * self.n_sites, self.n_nodes))

    def stiffness(self, blocks: dict[tuple[int, int], np.ndarray] | None = None) -> sp.dia_matrix:
        """G^T D G on node values (volume weight excluded) as a banded DIA
        matrix built from ``gradient_stencil``, for the per-site block D given
        by ``blocks``, which maps each nonzero block (k, l) to its site weights
        D_kl (EnergyState.hessian forms them); D = I when blocks is None.

        Each block D_kl, in the map's order, adds for each pair of offsets
        (o, o') of components k and l the site products c_k,o D_kl c_l,o'
        into the diagonal of the node offset o' - o.  At D = I, with o
        descending every entry sums its sites in ascending order, and
        lattice offsets that meet on one node offset (an axis with 1 or 2
        nodes) have disjoint supports, so K, and K @ v with its ascending
        diagonals, equal those of the CSR product G^T G bit for bit.
        """
        strides = [int(np.prod(self.resolution[j + 1:])) for j in range(len(self.resolution))]
        stencil = self.gradient_stencil
        if blocks is None:
            blocks = dict.fromkeys((k, k) for k in range(self.group.horizontal_dim))

        def node_offset(o, o2):
            return sum((y - x) * st for x, y, st in zip(o, o2, strides))

        offsets = sorted({node_offset(o, o2) for k, l in blocks
                          for o in stencil[k] for o2 in stencil[l]})
        row = {k: i for i, k in enumerate(offsets)}
        data = np.zeros((len(offsets), self.n_nodes))
        diagonals = data.reshape(len(offsets), *self.resolution)
        weighted, term = np.empty(self.resolution), np.empty(self.resolution)
        for (k, l), d_kl in blocks.items():
            for o2, c2 in stencil[l].items():  # DIA stores column j = node s + o2 at data[:, j]
                at = self._sites_reading(o2)
                right = c2[at] if d_kl is None else \
                    np.multiply(d_kl.reshape(self.site_shape)[at], c2[at], out=weighted)
                for o, c in stencil[k].items():
                    diagonals[row[node_offset(o, o2)]] += np.multiply(c[at], right, out=term)
        return sp.dia_matrix((data, offsets), shape=(self.n_nodes, self.n_nodes))

    @cached_property
    def stiffness_p2(self) -> sp.dia_matrix:
        """G^T G, the p = 2 operator: ``stiffness`` at D = I."""
        return self.stiffness()

    @cached_property
    def stiffness_p2_float32(self) -> tuple[sp.dia_matrix, np.ndarray, float]:
        """(K / 2^k and 2^k / diag K in float32, and 2^k), K = stiffness_p2 and
        2^k <= 2^1023 the power of two just above its largest diagonal entry: the
        p = 2 rounds' matrix and Jacobi inverse, in the float32 range on every box."""
        scale = 2.0 ** min(int(np.frexp(self.stiffness_diagonal.max())[1]), 1023)
        return (self.stiffness_p2.multiply(1.0 / scale).astype(np.float32),
                (scale / self.stiffness_diagonal).astype(np.float32), scale)

    @cached_property
    def gradient_transpose(self) -> sp.csr_matrix:
        """G^T in CSR, built on first use (products with the CSC view G.T are 2.5-5x slower)."""
        return self.gradient_matrix.T.tocsr()

    @cached_property
    def stiffness_diagonal(self) -> np.ndarray:
        return np.asarray(self.stiffness_p2.diagonal())

    def core_mask(self) -> np.ndarray:
        """Boolean mask of nodes inside the half-size box about the center."""
        coords = self.node_coordinates
        mask = np.ones(self.n_nodes, dtype=bool)
        for j, (lo, hi) in enumerate(self.box):
            c, half = 0.5 * (lo + hi), 0.25 * (hi - lo)
            mask &= (coords[:, j] >= c - half) & (coords[:, j] <= c + half)
        return mask


def build_grid(group, box, resolution) -> Grid:
    """Construct a Grid; ``group`` may be a descriptor or a name string."""
    return Grid(group, box, resolution)


def dilate_grid(grid: Grid, s: float) -> Grid:
    """Grid over the dilated box delta_s(box), same node counts per axis.

    The box corners map by the group dilation, so spacings rescale by the
    axis grading and node coordinates map by the dilation exactly.
    """
    corners = dilate(np.transpose(grid.box), s, grid.group)  # rows: all lo, all hi
    return Grid(grid.group, corners.T, grid.resolution)


@dataclass(frozen=True, eq=False)
class Field:
    """One real value per interior node, implicitly zero on the boundary, with
    grid-checked arithmetic: the one node-value type, operator values too.
    == and hash are by identity; compare values with np.array_equal."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel()
        if vals.shape[0] != self.grid.n_nodes:
            raise ValueError(f"Field has {vals.shape[0]} values, "
                             f"grid has {self.grid.n_nodes} nodes")
        object.__setattr__(self, "values", vals)

    def __add__(self, other):
        self._check(other)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, t: float):
        return Field(self.grid, self.values * float(t))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def _check(self, other):
        if self.grid != other.grid:
            raise ValueError("Field values live on different grids")

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_nodes))

    @classmethod
    def ones(cls, grid: Grid) -> "Field":
        return cls(grid, np.ones(grid.n_nodes))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        """Sample ``fn`` at the interior nodes; fn takes one coordinate array per axis."""
        coords = grid.node_coordinates
        return cls(grid, fn(*(coords[:, j] for j in range(coords.shape[1]))))


def horizontal_gradient(u: Field) -> np.ndarray:
    """G u as an (n1, n_sites) array, row c component c: EnergyState.g's layout."""
    grid = u.grid
    return (grid.gradient_matrix @ u.values).reshape(grid.group.horizontal_dim, grid.n_sites)


class EnergyState:
    """The regularized p-energy kernel at one node-value vector.

    Computes the site gradients g = G z once and s = |g|^2 + eps^2 from
    them.  ``energy()`` is sum s^{p/2}, ``flux_divergence()`` is G^T (a g)
    (G^T the grid's cached ``gradient_transpose``), the gradient of
    energy()/p, and ``hessian()`` its Hessian G^T D G, the one place that
    forms D: ``Grid.stiffness`` of the site blocks D_kl = b g_k g_l + a
    delta_kl with a = s^{(p-2)/2} and b = (p-2) s^{(p-4)/2}, or of D_kk = a
    with ``frozen=True``: the operator of the flux weight frozen at z.  None
    includes the cell volume.  Raises unless p > 1 and eps >= 0.
    """

    __slots__ = ("grid", "p", "g", "s", "_a")

    def __init__(self, grid: Grid, z: np.ndarray, p: float, eps: float):
        if not p > 1:
            raise ValueError(f"p-energy kernel requires p > 1, got p = {p}")
        if not eps >= 0:
            raise ValueError(f"regularization eps must be >= 0, got {eps}")
        self.grid = grid
        self.p = p
        self.g = (grid.gradient_matrix @ z).reshape(grid.group.horizontal_dim, grid.n_sites)
        self.s = np.sum(self.g * self.g, axis=0) + eps * eps
        self._a = None

    def _flux_weight(self) -> np.ndarray:
        """a per site, 0 where s = 0: a g -> 0 as g -> 0 for every p > 1."""
        if self._a is None:
            s = self.s
            if self.p < 2.0 and not s.all():
                s = np.where(s == 0.0, np.inf, s)  # inf to the power (p-2)/2 < 0 is 0
            self._a = s ** ((self.p - 2.0) / 2.0)
        return self._a

    def energy(self) -> float:
        return float(np.sum(self.s ** (self.p / 2.0)))

    def flux_divergence(self) -> np.ndarray:
        return self.grid.gradient_transpose @ (self.g * self._flux_weight()).ravel()

    def hessian(self, frozen: bool = False) -> sp.dia_matrix:
        a, s, g, n1 = self._flux_weight(), self.s, self.g, len(self.g)
        if frozen:
            return self.grid.stiffness({(k, k): a for k in range(n1)})
        # b = 0 where s = 0: the Hessian there is only needed for p >= 2
        b = np.divide(a, s, out=np.zeros_like(a), where=s > 0.0)
        b *= self.p - 2.0
        return self.grid.stiffness({(k, l): g[k] * g[l] * b + a if k == l else g[k] * g[l] * b
                                    for k in range(n1) for l in range(n1)})


def p_energy(u: Field, p: float) -> float:
    """Exact discrete horizontal Dirichlet energy sum |grad u|^p dV; the
    regularized energy of the inner solver is EnergyState's at eps > 0."""
    return EnergyState(u.grid, u.values, p, 0.0).energy() * u.grid.cell_volume


def lq_norm(u: Field, q: float) -> float:
    """Volume-weighted L^q norm of the node values, q >= 1.  Where the sum of
    |u|^q leaves the normal float range (large q), it is taken of u / max|u|."""
    if not q >= 1:
        raise ValueError(f"L^q norm requires q >= 1, got q = {q}")
    absu, vol = np.abs(u.values), u.grid.cell_volume
    with np.errstate(over="ignore"):
        total = np.sum(absu ** q * vol)
    if not np.finfo(float).tiny <= total < np.inf:
        top = np.max(absu)
        if 0.0 < top < np.inf:  # not the zero field, and no inf or NaN
            return float(top * np.sum((absu / top) ** q * vol) ** (1.0 / q))
    return float(total ** (1.0 / q))


def dump_field_csv(u: Field, path) -> None:
    """Write one row per interior node: coordinates then value, with header."""
    table = np.column_stack((u.grid.node_coordinates, u.values))
    with open(path, "w", newline="") as fh:  # row by row: one list of all rows costs MBs
        fh.write(",".join(u.grid.group.axis_names + ("value",)) + "\n")
        fh.writelines(",".join(map(repr, row.tolist())) + "\n" for row in table)
