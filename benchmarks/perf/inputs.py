"""Seeded workload inputs: meshes, key batches, job streams.

Everything a workload feeds the program is generated here from
``--seed``; the program only ever sees the generated arrays and specs.
Each input family draws from its own ``default_rng([seed, stream])`` so
adding a family never shifts another's values, and the same seed gives
byte-identical inputs (``test_harness.py`` pins that).

Sizes are chosen so that work per op does not depend on the seed: a
Delaunay mesh's maximum degree varies 14..18 between seeds and the
relax kernel is dense over that width, so meshes are padded to one
fixed width.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

# rng stream ids
_MESH, _INIT, _TABLE, _LOOKUP, _CHURN, _JOBS = range(6)

#: every unstructured mesh is padded to this many adjacency columns
MESH_WIDTH = 20

#: the paper's Figure 4, in Kali (the convergence test replaced by a
#: fixed sweep count, as in the paper's own timing runs)
KALI_JACOBI = """
processors Procs : array[1..P] with P in 1..n;
const n : integer;  const width : integer;  const nsweeps : integer;
var a, old_a : array[1..n] of real dist by [ block ] on Procs;
    count    : array[1..n] of integer dist by [ block ] on Procs;
    adj      : array[1..n, 1..width] of integer dist by [ block, * ] on Procs;
    coef     : array[1..n, 1..width] of real dist by [ block, * ] on Procs;
var sweep : integer;
for sweep in 1..nsweeps do
    forall i in 1..n on old_a[i].loc do old_a[i] := a[i]; end;
    forall i in 1..n on a[i].loc do
        var x : real;
        x := 0.0;
        for j in 1..count[i] do
            x := x + coef[i,j] * old_a[ adj[i,j] ];
        end;
        if (count[i] > 0) then a[i] := x; end;
    end;
end;
"""


def rng(seed: int, stream: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, *more])


# --- meshes ----------------------------------------------------------------


def unstructured_mesh(n: int, seed: int):
    """``(mesh, points)``: a seeded Delaunay mesh padded to MESH_WIDTH."""
    from repro.meshes.regular import MeshArrays
    from repro.meshes.unstructured import random_unstructured_mesh

    mesh_seed = int(rng(seed, _MESH).integers(0, 2**31))
    mesh, points = random_unstructured_mesh(n, seed=mesh_seed)
    width = max(MESH_WIDTH, mesh.width)
    adj = np.zeros((n, width), dtype=np.int64)
    coef = np.zeros((n, width), dtype=np.float64)
    adj[:, :mesh.width] = mesh.adj
    coef[:, :mesh.width] = mesh.coef
    padded = MeshArrays(n=n, width=width, adj=adj, count=mesh.count, coef=coef)
    padded.validate()
    return padded, points


def initial_values(n: int, seed: int) -> np.ndarray:
    return rng(seed, _INIT).random(n)


# --- hash-table keys -------------------------------------------------------


def table_entries(n: int, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """``n`` distinct keys in ``[0, 4n)`` and their values."""
    gen = rng(seed, _TABLE)
    keys = gen.permutation(4 * n)[:n].astype(np.int64)
    return keys, gen.standard_normal(n)


def lookup_batches(table_keys: np.ndarray, seed: int, batch: int,
                   nbatches: int) -> List[np.ndarray]:
    """Probe batches: ~80% present keys with skewed repeats (cubed
    uniform index, so a few keys are probed many times), ~20% absent."""
    gen = rng(seed, _LOOKUP)
    n = len(table_keys)
    out = []
    for _ in range(nbatches):
        present = table_keys[(gen.random(batch) ** 3 * n).astype(np.int64)]
        absent = 4 * n + gen.integers(0, 4 * n, size=batch)
        out.append(np.where(gen.random(batch) < 0.8, present, absent)
                   .astype(np.int64))
    return out


def churn_round(seed: int, r: int, batch: int, window: int
                ) -> Dict[str, np.ndarray]:
    """Round ``r`` of the write workload: a batch of never-seen keys to
    insert, ``batch`` picks (with duplicates) among the keys inserted in
    the last ``window`` rounds to ``add`` 1.0 to, and the batch inserted
    ``window`` rounds ago to delete (empty for ``r < window``)."""
    gen = rng(seed, _CHURN, r)
    offset = int(rng(seed, _CHURN).integers(0, 2**40))
    alive_lo = max(0, r - window + 1) * batch
    picks = gen.integers(alive_lo, (r + 1) * batch, size=batch)
    dead = (np.arange((r - window) * batch, (r - window + 1) * batch)
            if r >= window else np.zeros(0, dtype=np.int64))
    return {
        "insert_keys": _churn_key(np.arange(r * batch, (r + 1) * batch), offset),
        "insert_vals": gen.standard_normal(batch),
        "add_keys": _churn_key(picks, offset),
        "delete_keys": _churn_key(dead, offset),
    }


def _churn_key(serial: np.ndarray, offset: int) -> np.ndarray:
    # an odd multiplier is a bijection mod 2**62: distinct serials never
    # collide, yet consecutive serials land in unrelated buckets
    mixed = serial.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return ((mixed + np.uint64(offset)) & np.uint64((1 << 62) - 1)).astype(
        np.int64)


# --- served job stream -----------------------------------------------------


def job_families() -> List[Tuple[str, Dict[str, Any]]]:
    """The seven served job families, cheapest to dearest.

    Costs are spread evenly (measured reply times step by roughly equal
    amounts) so the median of the mixed stream does not sit in a gap
    between two clusters of families."""
    from repro.meshes.regular import five_point_grid

    kali_mesh = five_point_grid(12, 12)
    return [
        ("jacobi", {"rows": 12, "sweeps": 2, "seed": 11}),
        ("dht_lookup", {"n": 256, "nbuckets": 17, "seed": 5, "lookups": 128}),
        ("jacobi", {"rows": 24, "sweeps": 3, "seed": 12}),
        ("kali", {
            "source": KALI_JACOBI,
            "consts": {"n": kali_mesh.n, "width": kali_mesh.width,
                       "nsweeps": 2},
            "inputs": {
                "a": np.linspace(0.0, 1.0, kali_mesh.n).tolist(),
                "count": kali_mesh.count.tolist(),
                "adj": (kali_mesh.adj + 1).tolist(),
                "coef": kali_mesh.coef.tolist(),
            },
        }),
        ("jacobi", {"rows": 40, "sweeps": 4, "seed": 13}),
        ("cg", {"rows": 12, "max_iter": 6, "tol": 1e-30, "seed": 14}),
        ("cg", {"rows": 20, "max_iter": 8, "tol": 1e-30, "seed": 15}),
    ]


def job_stream(seed: int) -> Iterator[int]:
    """Endless family indices: a seeded shuffle of each successive block
    of all families, so every family appears equally often."""
    gen = rng(seed, _JOBS)
    nfam = len(job_families())
    while True:
        yield from (int(i) for i in gen.permutation(nfam))
