"""Hand-coded message-passing Jacobi: the expert-programmer baseline.

The paper's headline claim (§1): "the performance of the resulting
message-passing code is in many cases virtually identical to that which
would be achieved had the user programmed directly in a message-passing
language".  This module is that direct program, written the way a careful
1990 programmer would write it against the raw message layer:

* the 5-point grid is block-distributed by node id (row bands),
* each rank keeps *ghost copies* of the boundary rows of its neighbours
  and swaps them with two messages per sweep,
* the relaxation indexes the ghost array directly — **no translation-table
  searches** — which is exactly the advantage the paper concedes to
  hand-coded programs ("the search overhead is unique to our system", §4).

The algorithm mirrors Figure 4 (explicit old/new copy each sweep); pass
``buffer_swap=True`` for the further hand optimisation of swapping array
pointers instead of copying, an edge the Kali version cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import KaliError
from repro.machine.api import Compute, Count, Rank, Recv, Send
from repro.machine.cost import MachineModel
from repro.machine.launch import default_topology, launch
from repro.machine.stats import RunResult

_TAG_UP = 11
_TAG_DOWN = 12
PHASE = "executor"


@dataclass
class HandCodedResult:
    engine: RunResult
    solution: np.ndarray

    @property
    def executor_time(self) -> float:
        return self.engine.phase_max(PHASE)

    @property
    def total_time(self) -> float:
        return sum(self.engine.phase_max(p) for p in self.engine.phases())


def handcoded_jacobi(
    rows: int,
    cols: int,
    nprocs: int,
    machine: MachineModel,
    sweeps: int,
    initial: Optional[np.ndarray] = None,
    buffer_swap: bool = False,
) -> HandCodedResult:
    """Run the hand-written SPMD Jacobi and return timings + solution.

    Requires ``rows % nprocs == 0`` — the hand programmer picks a
    divisible decomposition (the paper's configurations all are).
    """
    if rows % nprocs != 0:
        raise KaliError(
            f"hand-coded version needs rows ({rows}) divisible by nprocs "
            f"({nprocs})"
        )
    n = rows * cols
    my_rows = rows // nprocs
    if initial is None:
        rng = np.random.default_rng(12345)
        initial = rng.random(n)
    initial = np.asarray(initial, dtype=np.float64).reshape(rows, cols)

    solution = np.zeros((rows, cols), dtype=np.float64)

    def rank_prog(rank: Rank):
        m = rank.machine
        me, P = rank.id, rank.size
        lo = me * my_rows
        a = initial[lo : lo + my_rows].copy()
        old = np.zeros_like(a)
        ghost_up = np.zeros(cols)  # row lo-1, owned by me-1
        ghost_down = np.zeros(cols)  # row lo+my_rows, owned by me+1

        # Precomputed 5-point stencil weights: interior nodes average 4
        # neighbours, edges fewer — identical numerics to the Figure 4
        # general-mesh program on this grid.
        mesh_counts = np.full((my_rows, cols), 4.0)
        r_global = np.arange(lo, lo + my_rows)[:, None] * np.ones((1, cols))
        c_global = np.ones((my_rows, 1)) * np.arange(cols)[None, :]
        mesh_counts -= (r_global == 0) * 1.0
        mesh_counts -= (r_global == rows - 1) * 1.0
        mesh_counts -= (c_global == 0) * 1.0
        mesh_counts -= (c_global == cols - 1) * 1.0
        inv_counts = 1.0 / mesh_counts

        for _ in range(sweeps):
            # -- copy mesh values (old := a), as in Figure 4.  The
            # buffer_swap variant replaces the copy loop with a pointer
            # swap (zero cost) — the hand optimisation Kali's copy-in/
            # copy-out forall cannot express.
            if not buffer_swap:
                old[...] = a
                yield Compute(
                    my_rows * cols * (m.iter_base + 2 * m.ref_local), phase=PHASE
                )
                src = old
            else:
                src = a

            # -- exchange boundary rows ------------------------------------------
            if me > 0:
                yield Send(dest=me - 1, payload=src[0].copy(), tag=_TAG_DOWN, phase=PHASE)
            if me < P - 1:
                yield Send(dest=me + 1, payload=src[-1].copy(), tag=_TAG_UP, phase=PHASE)
            if me > 0:
                msg = yield Recv(source=me - 1, tag=_TAG_UP, phase=PHASE)
                ghost_up = msg.payload
            if me < P - 1:
                msg = yield Recv(source=me + 1, tag=_TAG_DOWN, phase=PHASE)
                ghost_down = msg.payload

            # -- relaxation ------------------------------------------------------------
            up = np.vstack([ghost_up[None, :], src[:-1]])
            down = np.vstack([src[1:], ghost_down[None, :]])
            left = np.hstack([np.zeros((my_rows, 1)), src[:, :-1]])
            right = np.hstack([src[:, 1:], np.zeros((my_rows, 1))])
            if me == 0:
                up[0] = 0.0
            if me == P - 1:
                down[-1] = 0.0
            total = up + down + left + right
            new = total * inv_counts
            if buffer_swap:
                old[...] = new
                a, old = old, a
            else:
                a[...] = new
            # Same per-node reference/flop counts as the Kali executor
            # charges, but every access is a plain local/ghost reference.
            nodes = my_rows * cols
            refs = 4 * nodes + 3 * nodes  # 4 neighbour + coef/a/write refs
            flops = 2 * 4 * nodes
            yield Compute(
                nodes * m.iter_base + refs * m.ref_local + flops * m.flop,
                phase=PHASE,
            )
            yield Count("handcoded_sweeps", 1)
        return a

    result = launch(rank_prog, machine=machine,
                    topology=default_topology(nprocs), nranks=nprocs)
    for r, block in enumerate(result.values):
        solution[r * my_rows : (r + 1) * my_rows] = block
    return HandCodedResult(engine=result, solution=solution.ravel())
