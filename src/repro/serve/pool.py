"""Warm rank pool: the real-process backend's forked mesh, reused across jobs.

Forking a process per rank and building the O(n²) pipe mesh dominates a
repeated forall.  :class:`RankPool` keeps one
:class:`~repro.machine.mp.mesh.Mesh` and runs many jobs on it
(``MpEngine`` is the one-job case).  Each job's program is shipped
(:mod:`repro.serve.shipping`) down the control pipes — array contents
the ranks already hold travel as a digest — and after every rank has
reported, the reset barrier discards the frames the job left in the
pipes, so job N+1 sees exactly the clean slate of a fresh mesh.

What lives here is pool *policy*: lazy start, lifetime counters, health
checks, and condemn-and-rebuild.  A rank error, watchdog expiry, or
silent rank death fails *the job* and condemns the mesh — pairwise pipes
cannot be re-plumbed into a replacement process after fork, so crashed
ranks are replaced by rebuilding the whole mesh, which the next ``run``
(or an explicit :meth:`check_health`) does automatically.
``pool.rebuilds`` counts how often that happened.

``RankPool.run`` returns the same :class:`RunResult` shape as the
simulator, so ``repro.obs`` and the differential harness work on pooled
runs unchanged.
"""

from __future__ import annotations

import itertools
import time
from collections import OrderedDict
from typing import Any, Hashable, List, Optional

from repro.errors import EngineError, PoolCrashError  # noqa: F401 - re-export
from repro.machine.cost import MachineModel
from repro.machine.mp.mesh import Job, Mesh, fork_context, shm_options
from repro.machine.stats import RunResult
from repro.machine.topology import FullyConnected, Topology
# Imported for the side effect: pool workers are forked, so anything the
# parent has already imported comes with the fork.  Without this the
# first disk-tier job pays the diskcache (+hashlib/pickle) import once
# per worker, serialized on oversubscribed hosts.
from repro.serve import diskcache as _diskcache  # noqa: F401
from repro.serve import shipping


class RankPool:
    """A persistent pool of ``nranks`` warm rank processes.

    Parameters
    ----------
    nranks:
        World size of every job this pool runs.
    timeout:
        Default per-job watchdog bound, wall seconds (overridable per
        ``run``).
    shm, shm_threshold:
        The shared-memory data plane's switch and threshold, as for
        :class:`~repro.machine.mp.MpEngine`.

    Use as a context manager, or call :meth:`close` explicitly — teardown
    joins every worker (whose sender threads are flushed and stopped),
    closes every control pipe, and releases the process sentinels, so a
    pool's lifetime leaks no file descriptors.
    """

    _ids = itertools.count(1)

    def __init__(self, nranks: int, timeout: float = 120.0,
                 shm: Optional[bool] = None,
                 shm_threshold: Optional[int] = None):
        if nranks < 1:
            raise EngineError(f"pool needs nranks >= 1, got {nranks}")
        if timeout <= 0:
            raise EngineError(f"timeout must be > 0, got {timeout}")
        self.nranks = nranks
        self.timeout = timeout
        self._shm = shm_options(shm, shm_threshold)
        self.ship_bytes = 0           # program + arg bytes shipped
        self.shm_ship_bytes = 0       # ... of which via shm
        self.shm_reclaimed_bytes = 0  # arena bytes rewound at reset barriers
        fork_context()  # fail at construction on hosts without fork
        self.name = f"pool-{next(RankPool._ids)}"
        self._mesh: Optional[Mesh] = None
        #: the last job's :class:`~repro.serve.shipping.Shipment`
        self.last_shipment: Optional[shipping.Shipment] = None
        self._mesh_jobs = 0       # jobs completed on the current mesh
        self.jobs_done = 0        # jobs completed over the pool's lifetime
        self.rebuilds = 0         # meshes rebuilt after a crash/failure
        self.meshes_built = 0
        self.last_pool_reused = False
        self._closed = False

    # --- lifecycle -------------------------------------------------------

    def start(self) -> "RankPool":
        """Fork the mesh now (otherwise the first job does it lazily)."""
        self._ensure_started()
        return self

    @property
    def started(self) -> bool:
        return self._mesh is not None

    @property
    def _procs(self) -> Optional[List]:
        """The current mesh's rank processes (chaos tests kill them)."""
        return self._mesh.procs if self._mesh is not None else None

    def _ensure_started(self) -> None:
        if self._closed:
            raise EngineError(f"{self.name} is closed")
        if self._mesh is not None:
            if all(p.is_alive() for p in self._mesh.procs):
                return
            self._condemn()   # a rank died between jobs
        self._mesh = Mesh(self.nranks, self.name, self._shm,
                          decode=shipping.loads_via)
        # What the new ranks hold (key -> nbytes, least recently used
        # first): nothing yet.  Replaced with the mesh.
        self._resident: "OrderedDict[Hashable, int]" = OrderedDict()
        self._mesh_jobs = 0
        self.meshes_built += 1

    def _condemn(self) -> None:
        """Tear the mesh down; the next run (or health check) rebuilds."""
        self._mesh.close()
        self._mesh = None
        self.rebuilds += 1

    def close(self) -> None:
        """Drain the mesh and release every OS resource (idempotent)."""
        if self._mesh is not None:
            self._mesh.close()
            self._mesh = None
        self._closed = True

    def __enter__(self) -> "RankPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = ("closed" if self._closed
                 else "warm" if self._mesh is not None else "cold")
        return (f"RankPool({self.name}, nranks={self.nranks}, {state}, "
                f"jobs_done={self.jobs_done}, rebuilds={self.rebuilds})")

    # --- health ----------------------------------------------------------

    def check_health(self, timeout: float = 5.0) -> dict:
        """Ping every worker; rebuild the mesh if any is dead or mute.

        Returns ``{"healthy": bool, "alive": [...], "rebuilt": bool}``
        describing the state *before* any rebuild.  Only call between
        jobs (workers answer pings from their command loop).
        """
        warm = self._mesh is not None
        if not warm:
            self._ensure_started()
        alive = self._mesh.ping(timeout)
        healthy = alive == list(range(self.nranks))
        if not healthy:
            self._condemn()
            self._ensure_started()
        return {"healthy": healthy, "alive": alive, "rebuilt": not healthy,
                "warm": warm}

    # --- job execution ---------------------------------------------------

    def run(
        self,
        program,
        machine: MachineModel,
        topology: Optional[Topology] = None,
        args: Optional[List[Any]] = None,
        trace: bool = False,
        timeout: Optional[float] = None,
    ) -> RunResult:
        """Run one job on the warm mesh; returns a :class:`RunResult`
        (wall-clock seconds, real per-rank counters).

        On any job failure (rank error, death, watchdog) the mesh is
        condemned and rebuilt lazily by the next call; the failure is
        raised for *this* job.
        """
        if args is not None and len(args) != self.nranks:
            raise EngineError(f"args must have length {self.nranks}")
        if topology is None:
            topology = FullyConnected(self.nranks)
        if self.nranks > topology.size:
            raise EngineError(
                f"nranks={self.nranks} exceeds topology size {topology.size}"
            )
        self._ensure_started()
        mesh = self._mesh
        self.last_pool_reused = self._mesh_jobs > 0
        # Shipped schedules ride the data plane: serialize once, publish
        # one shared block every rank reads, send only the ref n times.
        # Once the program has pickled, the shipment brings the resident
        # record up to date; a job that then fails condemns the mesh, and
        # the record with it.
        shipment = self.last_shipment = shipping.Shipment(
            program, self._resident)
        payload, shipped = shipping.dumps_via(
            shipment, mesh.plane, range(self.nranks))
        self.ship_bytes += shipped or len(payload)
        self.shm_ship_bytes += shipped
        job = Job(time.monotonic(), payload, machine, topology, args, trace)
        try:
            result = mesh.run(
                job, timeout if timeout is not None else self.timeout)
            self.ship_bytes += mesh.arg_bytes[0]
            self.shm_ship_bytes += mesh.arg_bytes[1]
            self.shm_reclaimed_bytes += mesh.reset(result)
        except Exception as exc:
            # A failed job leaves workers in unknown comm state.
            self._condemn()
            if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
                # A pipe endpoint vanished under us: some rank died
                # between health checks.  Infrastructure, not program.
                raise PoolCrashError(
                    f"a rank's pipe failed mid-job ({exc})") from exc
            raise
        self._mesh_jobs += 1
        self.jobs_done += 1
        return result
