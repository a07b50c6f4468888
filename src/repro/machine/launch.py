"""One launcher: the engine a driver-side handle runs its SPMD program on.

:class:`~repro.core.context.KaliContext`, the distributed structures and
the hand-coded baseline run every program on the virtual-time
:class:`~repro.machine.engine.Engine`, a fork-per-run
:class:`~repro.machine.mp.MpEngine` (one job on a fresh pool), or a
warm pool (anything with the :class:`repro.serve.RankPool` ``run``
signature), after the same checks.
Each handle keeps its own error type: :func:`check_backend` raises the
``error`` it is given.
"""

from __future__ import annotations

from typing import Any, List, Optional, Type

from repro.errors import KaliError
from repro.machine.cost import MachineModel
from repro.machine.engine import Engine
from repro.machine.stats import RunResult
from repro.machine.topology import FullyConnected, Hypercube, Topology
from repro.util.gray import is_power_of_two


def check_backend(backend: str, nranks: int, *, pool=None, faults=None,
                  error: Type[KaliError], owner: str) -> str:
    """Validate a backend choice; returns the backend that will run.

    A pool must serve exactly ``nranks`` ranks and always means ``"mp"``
    (pooled execution is real-process execution); a fault plan needs
    the deterministic simulator.
    """
    if backend not in ("sim", "mp"):
        raise error(f"unknown backend {backend!r} (expected 'sim' or 'mp')")
    if pool is not None:
        if pool.nranks != nranks:
            raise error(f"pool has {pool.nranks} ranks but {owner} wants "
                        f"{nranks} — pools serve one world size")
        backend = "mp"
    if backend == "mp" and faults is not None:
        raise error("fault plans need the deterministic virtual-time engine; "
                    "backend='mp' cannot replay them — use backend='sim'")
    return backend


def default_topology(nranks: int) -> Topology:
    """A hypercube on powers of two, fully connected otherwise."""
    if is_power_of_two(nranks):
        return Hypercube(nranks)
    return FullyConnected(nranks)


def launch(program, *, machine: MachineModel, topology: Topology,
           nranks: int, backend: str = "sim", pool=None,
           args: Optional[List[Any]] = None, trace: bool = False,
           faults=None) -> RunResult:
    """Run ``program`` on the pool when given (under its own watchdog
    and shared-memory plane, both set where it was built), else on a
    fresh engine of the ``backend`` :func:`check_backend` returned."""
    if pool is not None:
        return pool.run(program, machine, topology=topology, args=args,
                        trace=trace)
    if backend == "mp":
        from repro.machine.mp import MpEngine

        engine = MpEngine(machine, topology=topology, nranks=nranks,
                          trace=trace)
        return engine.run(program, args=args)
    engine = Engine(machine, topology=topology, nranks=nranks, trace=trace,
                    faults=faults)
    return engine.run(program, args=args)
