"""Synthetic unstructured 2-D meshes.

The paper's primary motivation is PDE solvers on *irregular* meshes,
where "nodes in a two dimensional unstructured grid have six neighbors,
on average".  We have no NASA mesh files, so we synthesise the closest
equivalent: a Delaunay triangulation of jittered points, whose node
degrees average ~6 — exercising exactly the data-dependent
``old_a[adj[i,j]]`` communication path the inspector exists for.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.meshes.regular import MeshArrays


def _delaunay_edges(points: np.ndarray) -> np.ndarray:
    """Undirected Delaunay edges as an (m, 2) array of node pairs
    ``a < b``, sorted by ``(a, b)``."""
    from scipy.spatial import Delaunay

    tri = Delaunay(points)
    simplices = tri.simplices
    edges = np.concatenate(
        [simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]], axis=0
    )
    edges = np.sort(edges, axis=1).astype(np.int64)
    # One key per pair orders like the pair itself (b < n), and a 1-d
    # unique is far cheaper than a row-wise one.
    n = len(points)
    keys = np.unique(edges[:, 0] * n + edges[:, 1])
    return np.stack([keys // n, keys % n], axis=1)


def random_unstructured_mesh(
    n_nodes: int,
    seed: int = 0,
    jitter: float = 0.35,
    locality_sort: bool = True,
) -> Tuple[MeshArrays, np.ndarray]:
    """A Delaunay mesh over jittered grid points; returns (mesh, points).

    ``jitter`` perturbs the underlying lattice (0 = regular triangulated
    grid, ~0.5 = strongly irregular).  With ``locality_sort`` nodes are
    renumbered along the y-then-x order of their coordinates so a block
    distribution of node ids approximates a geometric partition — the
    paper's setting where the "optimal static domain decomposition is
    obvious" does not hold here, making this the honest unstructured
    workload.
    """
    if n_nodes < 3:
        raise ValueError("need at least 3 nodes for a triangulation")
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(n_nodes)))
    xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1)[:n_nodes]
    pts = pts + rng.uniform(-jitter, jitter, size=pts.shape)

    if locality_sort:
        order = np.lexsort((pts[:, 0], pts[:, 1]))
        pts = pts[order]

    edges = _delaunay_edges(pts)
    # Each edge (a, b) in order contributes a -> b then b -> a; a stable
    # sort by source lists every row's neighbours in that same order.
    src = edges.ravel()
    dst = edges[:, ::-1].ravel()
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    count = np.bincount(src, minlength=n_nodes).astype(np.int64)
    width = int(count.max())
    adj = np.zeros((n_nodes, width), dtype=np.int64)
    first = np.cumsum(count) - count
    adj[src, np.arange(len(src)) - first[src]] = dst

    coef = np.zeros((n_nodes, width), dtype=np.float64)
    live = np.arange(width)[None, :] < count[:, None]
    weights = np.where(count > 0, 1.0 / np.maximum(count, 1), 0.0)
    coef[live] = np.repeat(weights, count)

    mesh = MeshArrays(n=n_nodes, width=width, adj=adj, count=count, coef=coef)
    mesh.validate()
    return mesh, pts


def average_degree(mesh: MeshArrays) -> float:
    return float(mesh.count.mean())
