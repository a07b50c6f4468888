"""Regular rectangular grids in the paper's adjacency format.

The paper's evaluation runs the *unstructured-mesh* relaxation program of
its Figure 4 on "simple rectangular grids, on which we performed 100
Jacobi iterations with the standard five point Laplacian" — i.e. the
general ``adj``/``count``/``coef`` representation filled with a grid.
:func:`five_point_grid` reproduces exactly that workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MeshArrays:
    """The Figure 4 mesh representation.

    adj   : (n, width) int64 — neighbour node ids, row ``i`` live in
            columns ``0..count[i]-1`` (dead slots hold 0).
    count : (n,) int64 — live neighbour count per node.
    coef  : (n, width) float64 — relaxation coefficients per edge.

    Immutable: construction marks the three arrays read-only, so every
    context built from one mesh sees the same contents, and a driver
    hashes them once per process (``DistributedArray.content_fingerprint``
    adopts a frozen source's digest).  To edit a mesh, edit copies and
    build a new one with ``dataclasses.replace``.
    """

    n: int
    width: int
    adj: np.ndarray
    count: np.ndarray
    coef: np.ndarray

    def __post_init__(self):
        for arr in (self.adj, self.count, self.coef):
            arr.flags.writeable = False

    def total_references(self) -> int:
        """Total ``old_a[adj[i,j]]`` references in one sweep."""
        return int(self.count.sum())

    def validate(self) -> None:
        assert self.adj.shape == (self.n, self.width)
        assert self.coef.shape == (self.n, self.width)
        assert self.count.shape == (self.n,)
        assert (self.count >= 0).all() and (self.count <= self.width).all()
        live = np.arange(self.width)[None, :] < self.count[:, None]
        neighbours = self.adj[live]
        assert neighbours.size == 0 or (
            neighbours.min() >= 0 and neighbours.max() < self.n
        )


def five_point_grid(rows: int, cols: int) -> MeshArrays:
    """A ``rows x cols`` grid with 4-neighbour (von Neumann) adjacency.

    Nodes are numbered row-major (``node = r * cols + c``), so a block
    distribution of the node array assigns contiguous row bands to
    processors — the "obvious" optimal static decomposition the paper
    uses.  Coefficients are ``1 / count[i]`` (Jacobi averaging for the
    Laplace equation).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    n = rows * cols
    width = 4
    adj = np.zeros((n, width), dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)

    node = np.arange(n, dtype=np.int64)
    r, c = node // cols, node % cols
    # Candidate neighbours in fixed order: up, down, left, right.
    candidates = [
        (r > 0, node - cols),
        (r < rows - 1, node + cols),
        (c > 0, node - 1),
        (c < cols - 1, node + 1),
    ]
    for valid, nbr in candidates:
        slot = count.copy()
        adj[node[valid], slot[valid]] = nbr[valid]
        count[valid] += 1

    coef = np.zeros((n, width), dtype=np.float64)
    live = np.arange(width)[None, :] < count[:, None]
    with np.errstate(divide="ignore"):
        weights = np.where(count > 0, 1.0 / np.maximum(count, 1), 0.0)
    coef[live] = np.repeat(weights, count)

    mesh = MeshArrays(n=n, width=width, adj=adj, count=count, coef=coef)
    mesh.validate()
    return mesh


def seven_point_grid(nx: int, ny: int, nz: int) -> MeshArrays:
    """A 3-d grid with 6-neighbour (von Neumann) adjacency.

    Nodes are numbered x-major within planes (``node = (z*ny + y)*nx + x``)
    so a block distribution assigns contiguous z-slabs — the standard 3-d
    decomposition.  Same padded adj/count/coef format as the 2-d grids,
    with width 6; exercises higher connectivity (more boundary exchange
    per processor) than the paper's 2-d evaluation.
    """
    if nx < 1 or ny < 1 or nz < 1:
        raise ValueError("grid dimensions must be >= 1")
    n = nx * ny * nz
    width = 6
    adj = np.zeros((n, width), dtype=np.int64)
    count = np.zeros(n, dtype=np.int64)

    node = np.arange(n, dtype=np.int64)
    x = node % nx
    y = (node // nx) % ny
    z = node // (nx * ny)
    candidates = [
        (z > 0, node - nx * ny),
        (z < nz - 1, node + nx * ny),
        (y > 0, node - nx),
        (y < ny - 1, node + nx),
        (x > 0, node - 1),
        (x < nx - 1, node + 1),
    ]
    for valid, nbr in candidates:
        slot = count.copy()
        adj[node[valid], slot[valid]] = nbr[valid]
        count[valid] += 1

    coef = np.zeros((n, width), dtype=np.float64)
    live = np.arange(width)[None, :] < count[:, None]
    weights = np.where(count > 0, 1.0 / np.maximum(count, 1), 0.0)
    coef[live] = np.repeat(weights, count)

    mesh = MeshArrays(n=n, width=width, adj=adj, count=count, coef=coef)
    mesh.validate()
    return mesh


def reference_sweep(mesh: MeshArrays, values: np.ndarray) -> np.ndarray:
    """One sequential Jacobi sweep — the oracle tests compare against.

    Implements Figure 4's loop body directly: for every node,
    ``x = sum_j coef[i,j] * old_a[adj[i,j]]`` with the ``count[i] > 0``
    guard keeping isolated nodes unchanged.
    """
    live = np.arange(mesh.width)[None, :] < mesh.count[:, None]
    gathered = values[mesh.adj] * live
    x = (mesh.coef * gathered).sum(axis=1)
    return np.where(mesh.count > 0, x, values)
