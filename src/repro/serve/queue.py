"""Job queue for the serve tier: tenant-fair scheduling, futures.

The queue is deliberately dumb about *what* a job is — a :class:`Job`
carries an opaque ``spec`` and a ``batch_key``; the server decides how to
execute it.  What the queue owns is:

* **ordering** — FIFO by submission, or highest ``priority`` first with
  FIFO tie-break, *within each tenant's lane*;
* **tenant fairness** — each tenant submits into its own lane and lanes
  are served weighted-fair: the next batch comes from the active lane
  with the least normalized service (jobs served divided by the tenant's
  weight), so a weight-3 tenant gets three slots for every one a
  weight-1 tenant gets, and no tenant can starve another by flooding.
  A lane that was idle re-enters at the current service floor rather
  than bursting through its backlog;
* **admission control** — ``max_depth`` bounds total queued jobs; a
  submission over it is *shed*: :meth:`submit` raises
  :class:`ShedError` carrying a structured description (reason, tenant,
  depth, limit) that the socket front returns verbatim as a ``SHED``
  reply.  Shedding is counted (``sheds``) but never silently drops an
  *accepted* job — rejection happens at the door or not at all.  Tenant
  quotas are the server's (:meth:`JobServer._admit`), fleet-wide;
* **blocking handoff** to the scheduler thread, and the shape-affinity
  batching rule: when the head job has a non-None ``batch_key``,
  :meth:`next_batch` may hand over up to ``max_batch``
  *consecutive-in-order* jobs from the same lane with the same key, so
  the server runs them back-to-back on the warm mesh while every
  schedule is hot in cache.  Batching never reorders: a job with a
  different key (or no key) ends the batch.

:class:`JobFuture` is the submission handle — ``result(timeout)`` blocks
until the server resolves it, re-raising the job's failure if it had
one; ``add_done_callback`` is the bridge the asyncio front end uses to
await thread-resolved futures without burning a thread per connection.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import KaliError

DEFAULT_TENANT = "default"


class QueueClosed(KaliError):
    """Raised by submit/pop once the queue has been closed."""


class ShedError(KaliError):
    """An admission-control rejection (load shed), with structure.

    ``details`` is the JSON-able payload of the ``SHED`` reply: at least
    ``reason`` (``"queue-depth"`` or ``"tenant-quota"``), ``tenant``,
    ``depth`` and ``limit``; the server adds ``shard`` before replying.
    """

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details: Dict[str, Any] = dict(details)


class JobFuture:
    """Write-once result slot shared between submitter and scheduler."""

    def __init__(self):
        self._done = threading.Event()
        self._result: Any = None
        self._error: Optional[BaseException] = None
        self._callbacks: List[Callable[["JobFuture"], None]] = []
        self._lock = threading.Lock()

    def done(self) -> bool:
        return self._done.is_set()

    def _finish(self) -> None:
        with self._lock:
            callbacks, self._callbacks = self._callbacks, []
            self._done.set()
        for cb in callbacks:
            cb(self)

    def set_result(self, value: Any) -> None:
        self._result = value
        self._finish()

    def set_exception(self, exc: BaseException) -> None:
        self._error = exc
        self._finish()

    def add_done_callback(self, fn: Callable[["JobFuture"], None]) -> None:
        """Run ``fn(self)`` when the future resolves (immediately if it
        already has).  Callbacks run on the resolving thread — keep them
        cheap and exception-free (the asyncio bridge just schedules a
        loop callback)."""
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._done.wait(timeout):
            raise TimeoutError("job did not complete in time")
        if self._error is not None:
            raise self._error
        return self._result


@dataclass
class Job:
    """One unit of serve work.

    ``kind`` names a registered job family (``jacobi``, ``cg``, ...);
    ``spec`` is its parameters.  ``batch_key`` marks jobs the server may
    run back-to-back as one batch — by convention the kind plus every
    shape-determining parameter, so batched jobs share schedules.
    ``tenant`` selects the fair-queueing lane; ``shard`` is stamped by
    the router at submission (and re-stamped on replay); ``retries``
    counts *re-dispatches after a pool crash* — 0 on the first attempt.
    """

    kind: str
    spec: Dict[str, Any] = field(default_factory=dict)
    priority: int = 0
    batch_key: Optional[str] = None
    tenant: str = DEFAULT_TENANT
    shard: Optional[str] = None
    retries: int = 0
    job_id: int = 0
    future: JobFuture = field(default_factory=JobFuture)

    def describe(self) -> Dict[str, Any]:
        return {
            "id": self.job_id,
            "kind": self.kind,
            "priority": self.priority,
            "batch_key": self.batch_key,
            "tenant": self.tenant,
            "shard": self.shard,
            "retries": self.retries,
            "spec": self.spec,
        }


class JobQueue:
    """Thread-safe tenant-fair job queue, ``fifo`` or ``priority``.

    Parameters
    ----------
    policy:
        Ordering *within* a tenant lane: ``fifo`` or ``priority``.
    max_depth:
        Total queued-job bound; a submission past it is shed.  None
        disables the depth check.
    tenant_weights:
        tenant → relative service weight (default 1.0 for any tenant
        not listed).  With one tenant (or no weights) scheduling reduces
        exactly to the single-lane policy order.
    """

    def __init__(self, policy: str = "fifo",
                 max_depth: Optional[int] = None,
                 tenant_weights: Optional[Dict[str, float]] = None):
        if policy not in ("fifo", "priority"):
            raise KaliError(
                f"unknown queue policy {policy!r} "
                "(expected 'fifo' or 'priority')"
            )
        if max_depth is not None and max_depth < 1:
            raise KaliError(f"max_depth must be >= 1, got {max_depth}")
        for t, w in (tenant_weights or {}).items():
            if w <= 0:
                raise KaliError(f"tenant {t!r} weight must be > 0, got {w}")
        self.policy = policy
        self.max_depth = max_depth
        self.tenant_weights = dict(tenant_weights or {})
        self._lanes: Dict[str, List] = {}
        self._served: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._seq = itertools.count(1)     # job ids (when unassigned)
        self._order = itertools.count(1)   # submission order, heap tiebreak
        self._closed = False
        self.submitted = 0
        self.sheds = 0

    def _weight(self, tenant: str) -> float:
        return float(self.tenant_weights.get(tenant, 1.0))

    def _sort_key(self, job: Job) -> int:
        # FIFO ignores priority entirely; priority mode schedules the
        # highest number first (heapq is a min-heap, hence the negation).
        return -job.priority if self.policy == "priority" else 0

    def _pending_locked(self) -> int:
        return sum(len(h) for h in self._lanes.values())

    def submit(self, job: Job) -> JobFuture:
        with self._lock:
            if self._closed:
                raise QueueClosed("queue is closed to new submissions")
            depth = self._pending_locked()
            if self.max_depth is not None and depth >= self.max_depth:
                self.sheds += 1
                raise ShedError(
                    f"shed {job.kind} job for tenant {job.tenant!r}: "
                    f"queue-depth ({depth} >= {self.max_depth})",
                    reason="queue-depth", tenant=job.tenant, depth=depth,
                    limit=self.max_depth,
                )
            lane = self._lanes.get(job.tenant)
            if job.job_id == 0:
                job.job_id = next(self._seq)
            if lane is None:
                lane = self._lanes[job.tenant] = []
                # A re-activating lane enters at the current service
                # floor: it gets its fair share from now on, not a
                # catch-up burst for the time it was idle.
                active = [self._served[t] / self._weight(t)
                          for t, h in self._lanes.items()
                          if h and t != job.tenant]
                floor = min(active) if active else 0.0
                self._served[job.tenant] = max(
                    self._served.get(job.tenant, 0.0),
                    floor * self._weight(job.tenant),
                )
            heapq.heappush(
                lane, (self._sort_key(job), next(self._order), job))
            self.submitted += 1
            self._not_empty.notify()
        return job.future

    def _pick_lane_locked(self) -> Optional[str]:
        best, best_rank = None, None
        for tenant, lane in self._lanes.items():
            if not lane:
                continue
            # Least normalized service first; ties break toward the lane
            # whose head would schedule first under the policy, so one
            # tenant (the common case) reduces to plain policy order.
            rank = (self._served[tenant] / self._weight(tenant),
                    lane[0][0], lane[0][1])
            if best_rank is None or rank < best_rank:
                best, best_rank = tenant, rank
        return best

    def next_batch(self, max_batch: int = 1,
                   timeout: Optional[float] = None) -> List[Job]:
        """Block for the next job; return it plus up to ``max_batch - 1``
        same-``batch_key`` successors from the same tenant lane.  Empty
        list on timeout, or when the queue was closed and drained."""
        with self._lock:
            while self._pending_locked() == 0:
                if self._closed:
                    return []
                if not self._not_empty.wait(timeout):
                    return []
                timeout = 0  # woke once; don't re-wait the full timeout
            tenant = self._pick_lane_locked()
            lane = self._lanes[tenant]
            batch = [heapq.heappop(lane)[2]]
            key = batch[0].batch_key
            while (
                key is not None
                and len(batch) < max_batch
                and lane
                and lane[0][2].batch_key == key
            ):
                batch.append(heapq.heappop(lane)[2])
            self._served[tenant] = self._served.get(tenant, 0.0) + len(batch)
            return batch

    def pending(self) -> int:
        with self._lock:
            return self._pending_locked()

    def snapshot(self) -> List[Dict[str, Any]]:
        """Queued jobs in approximate scheduling order (for ``stat``):
        lanes by normalized service, policy order within each."""
        with self._lock:
            lanes = sorted(
                ((self._served[t] / self._weight(t), t, h)
                 for t, h in self._lanes.items() if h),
            )
            out: List[Dict[str, Any]] = []
            for _, _, lane in lanes:
                out.extend(entry[2].describe() for entry in sorted(lane))
            return out

    def drain_jobs(self) -> List[Job]:
        """Remove and return every queued job, in scheduling order.  Used
        by shard retirement to replay a condemned shard's backlog."""
        with self._lock:
            jobs: List[Job] = []
            while self._pending_locked():
                tenant = self._pick_lane_locked()
                lane = self._lanes[tenant]
                jobs.append(heapq.heappop(lane)[2])
                self._served[tenant] = self._served.get(tenant, 0.0) + 1
            return jobs

    def close(self) -> None:
        """Refuse new submissions and wake any blocked consumer."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed
