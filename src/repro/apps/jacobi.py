"""The paper's Figure 4 program: nearest-neighbour relaxation on a mesh.

Builds, through the embedded Python API, exactly the Kali program the
paper evaluates::

    processors Procs : array[1..P] with P in 1..n;
    var a, old_a : array[1..n] of real dist by [block] on Procs;
        count    : array[1..n] of integer dist by [block] on Procs;
        adj      : array[1..n, 1..4] of integer dist by [block, *] on Procs;
        coef     : array[1..n, 1..4] of real dist by [block, *] on Procs;

    while (not converged) do
        forall i in 1..n on old_a[i].loc do      -- copy mesh values
            old_a[i] := a[i];
        end;
        forall i in 1..n on a[i].loc do          -- relaxation core
            var x : real;
            x := 0.0;
            for j in 1..count[i] do
                x := x + coef[i,j] * old_a[adj[i,j]];
            end;
            if (count[i] > 0) then a[i] := x; end;
        end;
    end;

The copy loop is fully affine — the planner resolves it at compile time.
The relaxation loop's ``old_a[adj[i,j]]`` is data-dependent — it goes
through the run-time inspector, whose schedule is cached across sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional, Sequence

import numpy as np

from repro.core.context import KaliContext, KaliRank
from repro.core.forall import (
    Affine,
    AffineRead,
    AffineWrite,
    Forall,
    IndirectOperand,
    IndirectRead,
    OnOwner,
)
from repro.distributions.base import DimDistribution
from repro.distributions.block import Block
from repro.distributions.replicated import Replicated
from repro.machine.cost import MachineModel, NCUBE7
from repro.meshes.regular import MeshArrays

# The Figure 4 quintet in declaration order: the arrays that share the
# node distribution and therefore move together when a layout changes.
JACOBI_ARRAYS = ("a", "old_a", "count", "adj", "coef")


def copy_kernel(iters: np.ndarray, ops) -> np.ndarray:
    """``old_a[i] := a[i]``."""
    return ops["a_i"]


def relax_kernel(iters: np.ndarray, ops) -> np.ndarray:
    """``x := sum_j coef[i,j] * old_a[adj[i,j]]; if count[i]>0 a[i]:=x``."""
    nb: IndirectOperand = ops["neighbours"]
    x = nb.weighted_sum(ops["coef_i"])
    return np.where(nb.counts > 0, x, ops["a_i"])


def jacobi_row_weights(mesh: MeshArrays) -> tuple:
    """Move-cost row weights for :data:`JACOBI_ARRAYS`: ``a``, ``old_a``
    and ``count`` move one element per node, ``adj`` and ``coef`` a full
    row of ``width`` neighbours each."""
    width = float(mesh.width)
    return (1.0, 1.0, 1.0, width, width)


def scrambled_jacobi(nodes: int, nprocs: int, seed: int):
    """The tuner's canonical bad start, returned as ``(mesh, points,
    owners)``: an unstructured mesh whose node order is decorrelated from
    its geometry (so naive layouts cut many edges) plus a seeded random
    owner map over ``nprocs`` ranks.

    Every consumer — the ``jacobi_adaptive`` / ``jacobi_served`` serve
    kinds, the autopilot's ``jacobi_served`` profiler, the T1 bench and
    ``python -m repro.tune`` — must see the *same* mesh and map for the
    same ``(nodes, nprocs, seed)``: the autopilot re-plans a family from
    its spec alone, and a plan learned for one map is keyed (and only
    valid) for that map.  That is why this lives in one place.
    """
    from repro.meshes.unstructured import random_unstructured_mesh

    mesh, points = random_unstructured_mesh(nodes, seed=seed,
                                            locality_sort=False)
    owners = np.random.default_rng(seed + 1).integers(
        0, nprocs, size=mesh.n).astype(np.int64)
    return mesh, points, owners


@dataclass
class JacobiProgram:
    """A configured Jacobi relaxation run on one KaliContext.

    Use :func:`build_jacobi` to construct; then ``result = ctx.run(
    prog.program(sweeps))`` or the convenience :meth:`run`.
    """

    ctx: KaliContext
    mesh: MeshArrays
    copy_loop: Forall
    relax_loop: Forall

    def program(self, sweeps: int) -> Callable[[KaliRank], Generator]:
        copy_loop, relax_loop = self.copy_loop, self.relax_loop

        def run_sweeps(kr: KaliRank):
            for _ in range(sweeps):
                yield from kr.forall(copy_loop)
                yield from kr.forall(relax_loop)

        return run_sweeps

    def run(self, sweeps: int):
        """Execute ``sweeps`` Jacobi sweeps; returns the KaliRunResult."""
        return self.ctx.run(self.program(sweeps))

    @property
    def solution(self) -> np.ndarray:
        return self.ctx.arrays["a"].data.copy()


def build_jacobi(
    mesh: MeshArrays,
    nprocs: int,
    machine: MachineModel = NCUBE7,
    dist: Optional[DimDistribution] = None,
    initial: Optional[np.ndarray] = None,
    cache_enabled: bool = True,
    force_strategy=None,
    translation: str = "ranges",
    trace: bool = False,
    faults=None,
    backend: str = "sim",
    pool=None,
    schedule_cache_dir: Optional[str] = None,
    tune=None,
) -> JacobiProgram:
    """Declare the Figure 4 arrays and foralls on a fresh context.

    ``dist`` selects the node distribution (default ``Block()``) — the
    paper's point that "a variety of distribution patterns can easily be
    tried by trivial modification of this program" is literally this
    keyword argument.
    """
    dist = dist if dist is not None else Block()
    ctx = KaliContext(
        nprocs,
        machine=machine,
        cache_enabled=cache_enabled,
        force_strategy=force_strategy,
        translation=translation,
        trace=trace,
        faults=faults,
        backend=backend,
        pool=pool,
        schedule_cache_dir=schedule_cache_dir,
        tune=tune,
    )
    n, width = mesh.n, mesh.width

    a = ctx.array("a", n, dist=[dist._clone()])
    old_a = ctx.array("old_a", n, dist=[dist._clone()])
    count = ctx.array("count", n, dist=[dist._clone()], dtype=np.int64)
    adj = ctx.array("adj", (n, width), dist=[dist._clone(), Replicated()], dtype=np.int64)
    coef = ctx.array("coef", (n, width), dist=[dist._clone(), Replicated()])

    if initial is None:
        rng = np.random.default_rng(12345)
        initial = rng.random(n)
    a.set(np.asarray(initial, dtype=np.float64))
    count.set(mesh.count)
    adj.set(mesh.adj)
    coef.set(mesh.coef)

    copy_loop = Forall(
        index_range=(0, n - 1),
        on=OnOwner("old_a"),
        reads=[AffineRead("a", Affine(1, 0), name="a_i")],
        writes=[AffineWrite("old_a")],
        kernel=copy_kernel,
        flops_per_iter=0.0,
        label="jacobi-copy",
    )
    relax_loop = Forall(
        index_range=(0, n - 1),
        on=OnOwner("a"),
        reads=[
            IndirectRead("old_a", table="adj", count="count", name="neighbours"),
            AffineRead("coef", name="coef_i"),
            AffineRead("a", name="a_i"),
        ],
        writes=[AffineWrite("a")],
        kernel=relax_kernel,
        flops_per_ref=2.0,  # one multiply-add per live coef*old_a pair
        label="jacobi-relax",
    )
    return JacobiProgram(ctx=ctx, mesh=mesh, copy_loop=copy_loop, relax_loop=relax_loop)
