"""Conjugate gradients on a distributed sparse matrix.

The paper closes by planning "more complex example programs" (§6).  CG is
the canonical one: every Kali ingredient appears in a single solver —

* **SpMV** ``q := A·p`` — rows of A in the paper's padded adjacency
  format, the ``p[acol[i,j]]`` gather running through the inspector with
  its schedule cached across all iterations,
* **dot products** — sum-reduction foralls feeding the replicated scalar
  recurrences (``alpha``, ``beta``),
* **AXPY updates** — perfectly aligned affine foralls (statically local,
  zero communication),
* a sequential driver loop over replicated scalars.

The matrix is the graph Laplacian of a mesh plus the identity
(``A = I + D − Adj``): symmetric positive definite, so CG converges and
can be verified against a dense NumPy solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional

import numpy as np

from repro.core.context import KaliContext, KaliRank
from repro.core.forall import (
    AffineRead,
    AffineWrite,
    Forall,
    IndirectOperand,
    IndirectRead,
    OnOwner,
    ReduceSpec,
)
from repro.distributions.base import DimDistribution
from repro.distributions.block import Block
from repro.distributions.replicated import Replicated
from repro.machine.cost import MachineModel, NCUBE7
from repro.meshes.regular import MeshArrays


def laplacian_plus_identity(mesh: MeshArrays):
    """``A = I + D − Adj`` in padded row format: (cols, vals, counts).

    Row ``i`` holds the diagonal entry first (``1 + degree(i)``), then
    ``−1`` per neighbour.  Symmetric positive definite for any graph.
    """
    n, w = mesh.n, mesh.width
    cols = np.zeros((n, w + 1), dtype=np.int64)
    vals = np.zeros((n, w + 1), dtype=np.float64)
    cols[:, 0] = np.arange(n)
    vals[:, 0] = 1.0 + mesh.count
    cols[:, 1:] = mesh.adj
    live = np.arange(w)[None, :] < mesh.count[:, None]
    vals[:, 1:][live] = -1.0
    counts = mesh.count + 1
    return cols, vals, counts


def dense_matrix(mesh: MeshArrays) -> np.ndarray:
    """The same operator densely, for oracle comparisons."""
    cols, vals, counts = laplacian_plus_identity(mesh)
    n = mesh.n
    A = np.zeros((n, n))
    for i in range(n):
        for j in range(counts[i]):
            A[i, cols[i, j]] += vals[i, j]
    return A


@dataclass
class CGResult:
    solution: np.ndarray
    iterations: int
    residual: float
    timing: object  # KaliRunResult


class CGSolver:
    """A configured CG solve on one KaliContext.

    All five Kali arrays (x, r, p, q plus the matrix tables) share one
    block distribution; the scalar recurrence state lives in a per-rank
    replicated ``state`` dict captured by the AXPY kernels.
    """

    def __init__(
        self,
        mesh: MeshArrays,
        nprocs: int,
        machine: MachineModel = NCUBE7,
        dist: Optional[DimDistribution] = None,
        faults=None,
        trace: bool = False,
        backend: str = "sim",
        pool=None,
        schedule_cache_dir: Optional[str] = None,
        tune=None,
    ):
        self.mesh = mesh
        n = mesh.n
        cols, vals, counts = laplacian_plus_identity(mesh)
        width = cols.shape[1]
        dist = dist if dist is not None else Block()

        ctx = KaliContext(nprocs, machine=machine, faults=faults, trace=trace,
                          backend=backend, pool=pool,
                          schedule_cache_dir=schedule_cache_dir, tune=tune)
        self.ctx = ctx
        for name in ("x", "r", "p", "q", "b"):
            ctx.array(name, n, dist=[dist._clone()])
        ctx.array("acol", (n, width), dist=[dist._clone(), Replicated()],
                  dtype=np.int64)
        ctx.array("aval", (n, width), dist=[dist._clone(), Replicated()])
        ctx.array("acount", n, dist=[dist._clone()], dtype=np.int64)
        ctx.arrays["acol"].set(cols)
        ctx.arrays["aval"].set(vals)
        ctx.arrays["acount"].set(counts)

        # Per-rank replicated recurrence scalars, captured by the kernels.
        # ctx.run re-scatters per run; each rank mutates its own copy in
        # lock-step (same reduction results everywhere).
        self._state_template = {"alpha": 0.0, "beta": 0.0}

        n_range = (0, n - 1)

        def spmv_kernel(iters, ops):
            pvals: IndirectOperand = ops["pv"]
            return pvals.weighted_sum(ops["av"])

        self.spmv = Forall(
            index_range=n_range,
            on=OnOwner("q"),
            reads=[
                IndirectRead("p", table="acol", count="acount", name="pv"),
                AffineRead("aval", name="av"),
            ],
            writes=[AffineWrite("q")],
            kernel=spmv_kernel,
            flops_per_ref=2.0,
            label="cg-spmv",
        )

        self.dot_rr = Forall(
            index_range=n_range,
            on=OnOwner("r"),
            reads=[AffineRead("r", name="ri")],
            writes=[],
            reductions=[ReduceSpec("rr", "sum")],
            kernel=lambda iters, ops: {"rr": ops["ri"] * ops["ri"]},
            flops_per_iter=2.0,
            label="cg-dot-rr",
        )

        self.dot_pq = Forall(
            index_range=n_range,
            on=OnOwner("p"),
            reads=[AffineRead("p", name="pi"), AffineRead("q", name="qi")],
            writes=[],
            reductions=[ReduceSpec("pq", "sum")],
            kernel=lambda iters, ops: {"pq": ops["pi"] * ops["qi"]},
            flops_per_iter=2.0,
            label="cg-dot-pq",
        )

    # The AXPY loops need the current alpha/beta: built per run against a
    # state dict so schedules (labels) stay stable across iterations.
    def _axpy_loops(self, state: Dict[str, float]):
        n = self.mesh.n

        update_x = Forall(
            index_range=(0, n - 1),
            on=OnOwner("x"),
            reads=[AffineRead("x", name="xi"), AffineRead("p", name="pi")],
            writes=[AffineWrite("x")],
            kernel=lambda iters, ops: ops["xi"] + state["alpha"] * ops["pi"],
            flops_per_iter=2.0,
            label="cg-update-x",
        )
        update_r = Forall(
            index_range=(0, n - 1),
            on=OnOwner("r"),
            reads=[AffineRead("r", name="ri"), AffineRead("q", name="qi")],
            writes=[AffineWrite("r")],
            kernel=lambda iters, ops: ops["ri"] - state["alpha"] * ops["qi"],
            flops_per_iter=2.0,
            label="cg-update-r",
        )
        update_p = Forall(
            index_range=(0, n - 1),
            on=OnOwner("p"),
            reads=[AffineRead("p", name="pi"), AffineRead("r", name="ri")],
            writes=[AffineWrite("p")],
            kernel=lambda iters, ops: ops["ri"] + state["beta"] * ops["pi"],
            flops_per_iter=2.0,
            label="cg-update-p",
        )
        return update_x, update_r, update_p

    def solve(
        self,
        b: np.ndarray,
        tol: float = 1e-8,
        max_iter: int = 500,
    ) -> CGResult:
        """Run CG for ``A x = b`` from ``x0 = 0``; returns the solution,
        iteration count, final residual norm, and timing."""
        n = self.mesh.n
        self.ctx.arrays["b"].set(np.asarray(b, dtype=np.float64))
        self.ctx.arrays["x"].set(np.zeros(n))
        self.ctx.arrays["r"].set(np.asarray(b, dtype=np.float64))  # r0 = b
        self.ctx.arrays["p"].set(np.asarray(b, dtype=np.float64))  # p0 = r0
        self.ctx.arrays["q"].set(np.zeros(n))

        solver = self

        def program(kr: KaliRank) -> Generator:
            state = dict(solver._state_template)
            update_x, update_r, update_p = solver._axpy_loops(state)
            rr = (yield from kr.forall(solver.dot_rr))["rr"]
            iterations = 0
            while iterations < max_iter and rr > tol * tol:
                yield from kr.forall(solver.spmv)           # q = A p
                pq = (yield from kr.forall(solver.dot_pq))["pq"]
                state["alpha"] = rr / pq
                yield from kr.forall(update_x)              # x += alpha p
                yield from kr.forall(update_r)              # r -= alpha q
                rr_new = (yield from kr.forall(solver.dot_rr))["rr"]
                state["beta"] = rr_new / rr
                rr = rr_new
                iterations += 1
                if rr > tol * tol:
                    yield from kr.forall(update_p)          # p = r + beta p
            # Returned (not mutated into a closure) so the result crosses
            # the process boundary on backend="mp".
            return {"iterations": iterations, "rr": rr}

        timing = self.ctx.run(program)
        outcome = timing.values[0]
        return CGResult(
            solution=self.ctx.arrays["x"].data.copy(),
            iterations=outcome["iterations"],
            residual=float(np.sqrt(outcome["rr"])),
            timing=timing,
        )
