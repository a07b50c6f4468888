"""Real-parallelism engine: one OS process per rank.

:class:`MpEngine` mirrors the virtual-time :class:`~repro.machine.engine.
Engine` API — ``run(program, args) -> RunResult`` — but executes the rank
generators concurrently on forked OS processes connected by a pipe mesh.
Clocks, phase times, and trace events are **wall-clock seconds since run
start** (one monotonic epoch captured before forking; ``CLOCK_MONOTONIC``
is process-wide on the platforms fork exists on, so child timestamps are
comparable).

Forking, supervision, the watchdog and teardown all live in
:class:`~repro.machine.mp.mesh.Mesh`, which the warm
:class:`~repro.serve.pool.RankPool` shares; ``MpEngine`` is its one-shot
lifetime — build a mesh whose ranks inherit the program through
``fork()``, run exactly one job, close.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Generator, List, Optional

from repro.errors import EngineError
from repro.machine.api import Op, Rank
from repro.machine.cost import MachineModel
from repro.machine.mp.mesh import Job, Mesh, fork_context, shm_options
from repro.machine.shm import DEFAULT_SEGMENT_BYTES
from repro.machine.stats import RunResult
from repro.machine.topology import FullyConnected, Topology

RankProgram = Callable[[Rank], Generator[Op, Any, Any]]


class MpEngine:
    """Run an SPMD program with real parallelism (fork + pipes).

    Parameters
    ----------
    machine:
        Cost model handed to ``rank.machine`` so runtime code computing
        charges runs unchanged; the modelled seconds are **not** slept.
    topology:
        Interconnect metadata for ``rank.topology`` (hop counts still
        inform the runtime's combining decisions; defaults to
        :class:`FullyConnected`, which all-OS-process execution really is).
    nranks:
        World size; defaults to ``topology.size``.
    timeout:
        Watchdog bound on the whole run, wall seconds.  On expiry every
        rank is killed and :class:`DeadlockError` is raised.
    trace:
        Stream :class:`TraceEvent` records (wall-clock times) back from
        every rank.
    shm:
        Route bulk payloads through a :class:`~repro.machine.shm.
        ShmDataPlane` (shared-memory blocks; pipes carry only control
        frames).  Defaults to on; ``REPRO_SHM=0`` is the environment
        kill switch.  Semantics are identical either way — only the
        transport (and the ``shm_*``/``pipe_*`` counters) change.
    shm_threshold:
        Payload size in bytes below which the pickle path is kept
        (default 2048, or ``REPRO_SHM_THRESHOLD``).
    """

    def __init__(
        self,
        machine: MachineModel,
        topology: Optional[Topology] = None,
        nranks: Optional[int] = None,
        max_ops: int = 500_000_000,
        trace: bool = False,
        timeout: float = 120.0,
        shm: Optional[bool] = None,
        shm_threshold: Optional[int] = None,
        shm_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        if topology is None:
            if nranks is None:
                raise EngineError("MpEngine needs a topology or an explicit nranks")
            topology = FullyConnected(nranks)
        self.machine = machine
        self.topology = topology
        self.nranks = nranks if nranks is not None else topology.size
        if self.nranks > topology.size:
            raise EngineError(
                f"nranks={self.nranks} exceeds topology size {topology.size}"
            )
        self.max_ops = max_ops
        self.trace = trace
        if timeout <= 0:
            raise EngineError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self._shm = shm_options(shm, shm_threshold, shm_segment_bytes)
        fork_context()  # fail at construction on hosts without fork

    def run(
        self,
        program: RankProgram,
        args: Optional[List[Any]] = None,
    ) -> RunResult:
        """Execute ``program`` on ``nranks`` OS processes; returns the
        same :class:`RunResult` shape the simulator does, with wall-clock
        seconds in place of virtual time."""
        if args is not None and len(args) != self.nranks:
            raise EngineError(f"args must have length {self.nranks}")
        # Epoch before fork: rank clocks are seconds since run() entry.
        job = Job(time.monotonic(), program, self.machine, self.topology,
                  args, self.trace, self.max_ops)
        mesh = Mesh(self.nranks, "mp", self._shm, inherit=job)
        try:
            return mesh.run(job, self.timeout)
        finally:
            mesh.close()


def run_spmd_mp(
    program: RankProgram,
    nranks: int,
    machine: MachineModel,
    topology: Optional[Topology] = None,
    args: Optional[List[Any]] = None,
    timeout: float = 120.0,
) -> RunResult:
    """One-shot convenience wrapper around :class:`MpEngine`."""
    engine = MpEngine(machine, topology=topology, nranks=nranks,
                      timeout=timeout)
    return engine.run(program, args=args)
