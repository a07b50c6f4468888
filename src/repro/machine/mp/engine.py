"""Real-parallelism engine: one OS process per rank.

:class:`MpEngine` mirrors the virtual-time :class:`~repro.machine.engine.
Engine` API — ``run(program, args) -> RunResult`` — but executes the rank
generators concurrently on forked OS processes connected by a pipe mesh.
Clocks, phase times, and trace events are **wall-clock seconds since the
job was shipped** (``CLOCK_MONOTONIC`` is process-wide, so child
timestamps are comparable).  Each run is one job on a fresh
:class:`~repro.serve.pool.RankPool`, closed when the job returns.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.errors import EngineError
from repro.machine.api import Op, Rank
from repro.machine.cost import MachineModel
from repro.machine.mp.mesh import fork_context
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
    shm, shm_threshold:
        Route payloads of at least ``shm_threshold`` bytes through a
        :class:`~repro.machine.shm.ShmDataPlane` (docs/dataplane.md).
        ``shm=None`` defers to ``REPRO_SHM`` (on); ``shm_threshold=None``
        means :data:`~repro.machine.shm.DEFAULT_THRESHOLD` (2048 bytes).
        Only the transport and the ``shm_*``/``pipe_*`` counters change.
    """

    def __init__(
        self,
        machine: MachineModel,
        topology: Optional[Topology] = None,
        nranks: Optional[int] = None,
        trace: bool = False,
        timeout: float = 120.0,
        shm: Optional[bool] = None,
        shm_threshold: Optional[int] = None,
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
        self.trace = trace
        if timeout <= 0:
            raise EngineError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self.shm = shm
        self.shm_threshold = shm_threshold
        fork_context()  # fail at construction on hosts without fork

    def run(
        self,
        program: RankProgram,
        args: Optional[List[Any]] = None,
    ) -> RunResult:
        """Execute ``program`` on ``nranks`` OS processes; returns the
        same :class:`RunResult` shape the simulator does, with wall-clock
        seconds in place of virtual time."""
        # Imported lazily: repro.serve is a higher layer.
        from repro.serve.pool import RankPool

        with RankPool(self.nranks, timeout=self.timeout, shm=self.shm,
                      shm_threshold=self.shm_threshold) as pool:
            return pool.run(program, self.machine, self.topology, args=args,
                            trace=self.trace)
