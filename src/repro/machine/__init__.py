"""Simulated distributed-memory machine.

This package replaces the paper's physical NCUBE/7 and iPSC/2 hypercubes
with a deterministic discrete-event SPMD simulator:

* :mod:`repro.machine.topology` — interconnect topologies (hypercube, mesh),
* :mod:`repro.machine.cost`     — calibrated per-machine cost models,
* :mod:`repro.machine.engine`   — the event-driven engine running one Python
  generator per rank under virtual time,
* :mod:`repro.machine.api`      — the rank-side facade (ops to ``yield``),
* :mod:`repro.machine.stats`    — per-rank phase timers and counters,
* :mod:`repro.machine.launch`   — the one place a driver picks its engine
  (simulator, fork-per-run processes, or a warm pool).

Rank programs are ordinary generator functions: they ``yield`` communication
and compute *ops* and the engine advances per-rank virtual clocks according
to the cost model.  All results are exactly reproducible run-to-run.
"""

from repro.machine.topology import Hypercube, Mesh2D, FullyConnected, Topology
from repro.machine.cost import MachineModel, NCUBE7, IPSC2, MODERN, IDEAL
from repro.machine.engine import Engine, RunResult
from repro.machine.api import Send, Recv, Compute, Now, ANY_SOURCE, ANY_TAG, Rank

__all__ = [
    "Topology",
    "Hypercube",
    "Mesh2D",
    "FullyConnected",
    "MachineModel",
    "NCUBE7",
    "IPSC2",
    "MODERN",
    "IDEAL",
    "Engine",
    "RunResult",
    "Send",
    "Recv",
    "Compute",
    "Now",
    "ANY_SOURCE",
    "ANY_TAG",
    "Rank",
]
