"""Cartesian grids on box domains with zero Dirichlet extension.

Interior nodes live at ``lo_j + (i+1) h_j`` for ``i = 0..res_j-1`` with
``h_j = (hi_j - lo_j)/(res_j + 1)``; every lattice point outside that set
reads as zero.  The discrete horizontal gradient uses forward differences
evaluated on the *site lattice* ``i = 0..res_j`` per axis (interior nodes
plus the low boundary layer), so that every Dirichlet face contributes to
the energy and the divergence defined as the negative transpose makes the
discrete integration by parts exact: for p = 2,

    <A u, v> = sum_sites grad u . grad v * cell_volume     (exactly).

The gradient matrix is assembled in one pass from the node lattice into
canonical CSR (sorted column indices, no duplicates, no stored zeros), so
its in-row order, and with it the rounding of every product, is fixed here.

Field is the one node-value type, and horizontal_gradient(u) is G u as an
(n1, n_sites) array.  p_energy is exact; its kernel EnergyState also takes
the inner solver's eps > 0.  On a single 1D-like line of n interior nodes
this reproduces the classical tridiagonal (2, -1)/h^2 stiffness.
"""

from __future__ import annotations

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
        with np.errstate(all="ignore"):  # 1/h^2 sizes the stiffness entries
            if not all(0.0 < np.float64(h) ** -2 < np.inf for h in spacings):
                raise ValueError(f"degenerate box {box}: every axis needs finite bounds and a "
                                 f"spacing h with finite positive h**-2, got h = {spacings}")
        self.group = group
        self.box = box
        self.resolution = resolution
        self.spacings = spacings
        self.n_nodes = int(np.prod(resolution))
        self.cell_volume = float(np.prod(self.spacings))
        self.box_volume = float(np.prod([hi - lo for lo, hi in box]))
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

    @cached_property
    def gradient_matrix(self) -> sp.csr_matrix:
        """Horizontal gradient as an (n1 * n_sites, n_nodes) sparse matrix.

        Component c occupies rows [c * n_sites, (c+1) * n_sites).  For each
        (axis, coeff) term of a component, node n with lattice index
        l = idx + 1 is read by site l - e_axis with weight coeff/h and by
        site l with weight -coeff/h.  The triplets build canonical CSR in
        one pass; its only additions are the two-term sums where two terms
        of one component read the same node at the same site.
        """
        site_ids = np.arange(self.n_sites, dtype=np.int32).reshape(self.site_shape)
        at_node = site_ids[(slice(1, None),) * len(self.site_shape)].ravel()  # site l per node
        rows, vals = [], []
        for c, component in enumerate(self.group.horizontal_terms(self.site_coordinates)):
            for axis, coeff in component:
                inv_h = 1.0 / self.spacings[axis]
                behind = at_node - int(np.prod(self.site_shape[axis + 1:]))  # site l - e_axis
                for sites, weight in ((behind, inv_h), (at_node, -inv_h)):
                    rows.append(c * self.n_sites + sites)
                    vals.append(coeff[sites] * weight)
        cols = np.tile(np.arange(self.n_nodes, dtype=np.int32), len(rows))
        G = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), cols)),
                          shape=(self.group.horizontal_dim * self.n_sites, self.n_nodes))
        G.eliminate_zeros()  # coefficients vanish on the x = 0 and y = 0 lines
        return G

    @cached_property
    def stiffness_p2(self) -> sp.csr_matrix:
        """G^T G, the p = 2 operator on node values (volume weight excluded)."""
        G = self.gradient_matrix
        return sp.csr_matrix(G.T @ G)

    @cached_property
    def gradient_transpose(self) -> sp.csr_matrix:
        """G^T in CSR, built on first use (products with the CSC view G.T are 2.5-5x slower)."""
        return self.gradient_matrix.T.tocsr()

    @cached_property
    def stiffness_diagonal(self) -> np.ndarray:
        return np.asarray(self.stiffness_p2.diagonal())

    @cached_property
    def gradient_products(self) -> sp.csr_matrix:
        """Entrywise products G_k * G_l of the gradient's component blocks,
        stacked in row-major (k, l) order, so that the diagonal of G^T D G
        is its transpose times the stacked per-site entries D_kl."""
        # tocsr() unwraps a delegating proxy such as perfbench's product counter
        G, m, n1 = self.gradient_matrix.tocsr(), self.n_sites, self.group.horizontal_dim
        blocks = [G[k * m:(k + 1) * m] for k in range(n1)]
        return sp.csr_matrix(sp.vstack([bk.multiply(bl) for bk in blocks for bl in blocks]))

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
    them.  ``energy()`` is sum s^{p/2}, ``flux_divergence()`` is
    G^T (a g), the gradient of energy()/p, and its Hessian is G^T D G,
    where each site contributes the n1 x n1 block D = a I + b g g^T with
    a = s^{(p-2)/2} and b = (p-2) s^{(p-4)/2}.  The blocks are formed once,
    on first use, for ``hessian_vector(v)`` (G^T D G v) and the exact
    ``hessian_diagonal()``; with ``frozen=True`` both drop the b term and
    give G^T diag(a) G, the operator of the flux weight frozen at z.  G^T
    is the grid's cached ``gradient_transpose``.  None of them includes the
    cell volume.  Raises unless p > 1 and eps >= 0.
    """

    __slots__ = ("grid", "p", "g", "s", "_a", "_blocks")

    def __init__(self, grid: Grid, z: np.ndarray, p: float, eps: float):
        if not p > 1:
            raise ValueError(f"p-energy kernel requires p > 1, got p = {p}")
        if not eps >= 0:
            raise ValueError(f"regularization eps must be >= 0, got {eps}")
        self.grid = grid
        self.p = p
        self.g = (grid.gradient_matrix @ z).reshape(grid.group.horizontal_dim, grid.n_sites)
        self.s = np.sum(self.g * self.g, axis=0) + eps * eps
        self._a = self._blocks = None

    def _flux_weight(self) -> np.ndarray:
        """a per site, 0 where s = 0: a g -> 0 as g -> 0 for every p > 1."""
        if self._a is None:
            s = self.s
            if self.p < 2.0 and not s.all():
                s = np.where(s == 0.0, np.inf, s)  # inf to the power (p-2)/2 < 0 is 0
            self._a = s ** ((self.p - 2.0) / 2.0)
        return self._a

    def _hessian_blocks(self) -> np.ndarray:
        """D_kl = a delta_kl + b g_k g_l as an (n1, n1, n_sites) array, with
        b = 0 where s = 0 (the Hessian there is only needed for p >= 2)."""
        if self._blocks is None:
            a, s, g = self._flux_weight(), self.s, self.g
            b = (self.p - 2.0) * np.divide(a, s, out=np.zeros_like(a), where=s > 0.0)
            self._blocks = b * g[:, None] * g[None] + a * np.eye(len(g))[:, :, None]
        return self._blocks

    def energy(self) -> float:
        return float(np.sum(self.s ** (self.p / 2.0)))

    def flux_divergence(self) -> np.ndarray:
        return self.grid.gradient_transpose @ (self.g * self._flux_weight()).ravel()

    def hessian_vector(self, v: np.ndarray, frozen: bool = False) -> np.ndarray:
        h = (self.grid.gradient_matrix @ v).reshape(self.g.shape)
        w = (self._flux_weight() * h if frozen
             else np.einsum("klm,lm->km", self._hessian_blocks(), h))
        return self.grid.gradient_transpose @ w.ravel()

    def hessian_diagonal(self, frozen: bool = False) -> np.ndarray:
        blocks = (np.eye(len(self.g))[:, :, None] * self._flux_weight() if frozen
                  else self._hessian_blocks())
        return self.grid.gradient_products.T @ blocks.ravel()


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
