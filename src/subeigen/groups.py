"""Stratified (Carnot) group descriptors and their dilation structure.

A group is described by the dimensions of its graded layers
``(n_1, ..., n_m)``.  The topological dimension is ``N = sum n_i`` and the
homogeneous dimension is ``nu = sum i * n_i``; dilations scale a layer-i
coordinate by ``s**i``.  Two concrete groups ship:

* ``euclidean2`` -- the abelian plane, one layer of dimension 2; the
  horizontal gradient is the full gradient.
* ``heisenberg1`` -- first Heisenberg group in symmetric exponential
  coordinates (x, y, t), horizontal fields

      X1 = d/dx - (y/2) d/dt,     X2 = d/dy + (x/2) d/dt.

With this model Haar measure is Lebesgue measure in coordinates, so all
integrals downstream are plain volume-weighted sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroupDescriptor",
    "GROUPS",
    "get_group",
    "homogeneous_dimension",
    "critical_exponent",
    "dilate",
    "check_regime",
]


def homogeneous_dimension(layers) -> int:
    """Homogeneous dimension nu = sum_i i * n_i (layers are 1-indexed).

    Raises ValueError for an empty stratification or a first layer of
    dimension < 2.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("invalid stratification: no layers")
    if any(int(n) != n or n <= 0 for n in layers):
        raise ValueError("invalid stratification: layer dimensions must be positive integers")
    if layers[0] < 2:
        raise ValueError(
            f"invalid stratification: first layer must have dimension >= 2, got {layers[0]}"
        )
    return int(sum((i + 1) * n for i, n in enumerate(layers)))


def critical_exponent(p: float, nu: int) -> float:
    """Subcritical Sobolev exponent nu* = nu*p/(nu - p), defined for 1 < p < nu."""
    if not 1.0 < p < nu:
        raise ValueError(f"critical exponent requires 1 < p < nu = {nu}, got p = {p}")
    return nu * p / (nu - p)


@dataclass(frozen=True)
class GroupDescriptor:
    """Layer structure and horizontal-field model of a stratified group.

    ``axis_names`` labels the coordinate axes (used by CSV dumps), and
    ``dilation_exponents`` gives the per-axis grading, e.g. (1, 1, 2) for
    heisenberg1 so that (x, y, t) -> (s x, s y, s^2 t).
    """

    name: str
    layers: tuple[int, ...]
    axis_names: tuple[str, ...]

    def __post_init__(self):
        homogeneous_dimension(self.layers)  # validates
        if len(self.axis_names) != self.topological_dim:
            raise ValueError("one axis name per coordinate required")

    @property
    def topological_dim(self) -> int:
        return int(sum(self.layers))

    @property
    def homogeneous_dim(self) -> int:
        return homogeneous_dimension(self.layers)

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def horizontal_dim(self) -> int:
        return int(self.layers[0])

    @property
    def dilation_exponents(self) -> tuple[int, ...]:
        exps = []
        for i, n in enumerate(self.layers):
            exps.extend([i + 1] * n)
        return tuple(exps)

    def horizontal_terms(self, coords: np.ndarray) -> list[list[tuple[int, np.ndarray]]]:
        """Coefficient model of the horizontal fields at given points.

        For each horizontal component c returns a list of
        ``(axis, coefficient_array)`` pairs so that component c of the
        gradient of f at point k is ``sum_j coeff[k] * D_axis_j f[k]``.
        ``coords`` has shape (n_points, N).
        """
        npts = coords.shape[0]
        ones = np.ones(npts)
        if self.name == "euclidean2":
            return [[(0, ones)], [(1, ones)]]
        if self.name == "heisenberg1":
            x, y = coords[:, 0], coords[:, 1]
            return [
                [(0, ones), (2, -0.5 * y)],
                [(1, ones), (2, 0.5 * x)],
            ]
        raise NotImplementedError(f"no horizontal field model for group {self.name!r}")


EUCLIDEAN2 = GroupDescriptor(name="euclidean2", layers=(2,), axis_names=("x", "y"))
HEISENBERG1 = GroupDescriptor(name="heisenberg1", layers=(2, 1), axis_names=("x", "y", "t"))

GROUPS: dict[str, GroupDescriptor] = {g.name: g for g in (EUCLIDEAN2, HEISENBERG1)}


def get_group(name: str) -> GroupDescriptor:
    """Look up a shipped group by name ('euclidean2' or 'heisenberg1')."""
    try:
        return GROUPS[name]
    except KeyError:
        raise ValueError(f"unknown group {name!r}; available: {sorted(GROUPS)}") from None


def dilate(point, s: float, group: GroupDescriptor) -> np.ndarray:
    """Apply the group dilation delta_s: layer-i coordinates scale by s**i."""
    if not s > 0:
        raise ValueError(f"dilation factor must be positive, got {s}")
    point = np.asarray(point, dtype=float)
    if point.shape[-1] != group.topological_dim:
        raise ValueError(
            f"point has {point.shape[-1]} coordinates, group {group.name} has "
            f"{group.topological_dim}"
        )
    # scalar pow: numpy's vectorized power rounds by CPU (AVX-512: 0.1**2.0 = 0.01)
    return point * np.array([float(s) ** w for w in group.dilation_exponents])


def check_regime(p: float, q: float, group: GroupDescriptor) -> str | None:
    """The one owner of the exponent window of the eigenvalue problem.

    Returns None when (p, q) is admissible, otherwise a message naming the
    violated inequality: 1 < p < nu and 1 < q < nu* = nu p/(nu - p).  The
    classical single-layer case waives only p < nu: for p >= nu = N the
    bounded-domain embedding into L^q is compact for every finite q.
    """
    nu = group.homogeneous_dim
    if not 1.0 < p < np.inf:
        return f"requires finite p > 1, got p = {p}"
    if not 1.0 < q < np.inf:
        return f"requires finite q > 1, got q = {q}"
    if not p < nu:
        if group.n_layers == 1:
            return None
        return f"requires p < nu = {nu} on {group.name}, got p = {p}"
    nu_star = critical_exponent(p, nu)
    if not q < nu_star:
        return (
            f"subcritical requirement violated: q < nu* = nu p/(nu - p) = "
            f"{nu_star:g} needed on {group.name}, got q = {q}"
        )
    return None
