"""Real-parallelism backend: one OS process per rank.

Same op protocol as the virtual-time simulator (:mod:`repro.machine.api`),
so rank programs — the Kali interpreter, the inspector/executor runtime,
collectives, redistribution, the apps — run unchanged::

    from repro.machine.mp import MpEngine
    result = MpEngine(machine, nranks=4).run(program)

See :mod:`repro.machine.mp.engine` for semantics (wall-clock time,
relaxed wildcard ordering) and docs/internals.md §10 for the protocol.
"""

from repro.machine.mp.engine import MpEngine
from repro.machine.shm import ShmDataPlane, ShmError, ShmRef

__all__ = ["MpEngine", "ShmDataPlane", "ShmError", "ShmRef"]
