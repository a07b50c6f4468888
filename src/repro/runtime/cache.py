"""Schedule caching across forall executions (paper §3.2).

"Our run-time analysis takes advantage of this by computing the exec(p)
and ref(p) sets only the first time they are needed and saving them for
later loop executions.  This amortizes the cost of the run-time analysis
over many repetitions of the forall."

A schedule is valid while the *communication-determining* data is
unchanged: the indirection tables and count arrays named by the forall's
reads (changing the floating-point mesh values does not invalidate
anything).  The cache therefore keys on the forall label and compares the
stored version stamps of those arrays.  Invalidation is automatic: bump an
array's version (any write through the driver API does) and the next
execution re-inspects.

Two tiers.  The memory tier above belongs to one rank context and dies
with it.  Behind it is one *shared* tier, which outlives the context
under a content-addressed key (``schedule_content_key``: the forall
spec, the rank, the distributions and the indirection arrays' global
bytes).  It has two backings, and the strategy the rank runs
(``force_strategy`` or ``choose_strategy``) picks which one holds a
loop's schedule:

* compile-time — :data:`CLOSED_FORM`, a bounded LRU of this process.  A
  closed-form schedule is a pure function of the forall, the rank and
  the layouts, and building one sends nothing and charges nothing, so
  ranks that disagree about a hit cannot diverge into a collective;
* run-time — a :class:`~repro.serve.diskcache.DiskScheduleCache`, when
  one is attached: inspected schedules persist across processes.  No
  disk tier, no shared tier for the loop.

A memory miss asks that one tier; :meth:`ScheduleCache.store_through`
writes a fresh build to it.  Either way the shared schedule gets its
``ExecPlan`` compiled once and the memory tier a copy stamped with this
context's version counters (``_adopt``), so the fast path stays fast and
no context re-stamps another's.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.analysis.planner import Strategy, choose_strategy
from repro.arrays.localview import LocalArray
from repro.core.forall import Forall
from repro.runtime import executor
from repro.runtime.schedule import CommSchedule
from repro.util.store import LRU

#: engine counters of the disk tier, each named after the
#: ``DiskScheduleCache`` total it reports (the text after the last ``_``)
DISK_COUNTERS = (
    "schedule_cache_disk_hits",
    "schedule_cache_disk_misses",
    "schedule_cache_disk_stores",
    "schedule_cache_disk_evictions",
    "schedule_cache_disk_corrupt",
)

#: most closed-form schedules one process keeps
CLOSED_FORM_ENTRIES = 64

#: this process's closed-form schedules, compiled, shared by every rank
#: context in it (serve shards run jobs in threads: the LRU is locked)
CLOSED_FORM = LRU(CLOSED_FORM_ENTRIES)


def _content_key(forall: Forall, env: Dict[str, LocalArray],
                 translation: str) -> Optional[str]:
    # Imported lazily: repro.serve is a higher layer.
    from repro.serve.diskcache import schedule_content_key

    return schedule_content_key(forall, env, translation)


def _stamped(shared: CommSchedule, env: Dict[str, LocalArray],
             **changes) -> CommSchedule:
    """A caller's own copy of a schedule a shared tier holds: the sets,
    the plan and its op tables are shared, the ``versions`` /
    ``dist_versions`` stamps are ``env``'s, so no context re-stamps
    another's."""
    return dataclasses.replace(
        shared, **changes,
        versions={name: env[name].version
                  for name in shared.versions if name in env},
        dist_versions={name: env[name].dist_version
                       for name in shared.dist_versions if name in env},
    )


class ScheduleCache:
    """Per-rank cache of forall schedules: memory, then one shared tier."""

    def __init__(self, enabled: bool = True, disk=None,
                 translation: str = "ranges",
                 force_strategy: Optional[Strategy] = None):
        self.enabled = enabled
        #: optional :class:`~repro.serve.diskcache.DiskScheduleCache`
        self.disk = disk
        self.translation = translation
        #: the rank's forced strategy, which routes its loops' tier
        self.force_strategy = force_strategy
        self._store: Dict[str, CommSchedule] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: ``(forall, env, tier, key)`` of the last memory miss, which
        #: :meth:`store_through` reuses for the schedule built after it
        self._missed: Optional[tuple] = None
        # The disk tier may be a process-shared instance carrying
        # counters from earlier runs (see ``shared_disk_cache``);
        # baseline them so take_counts() reports this run's deltas.
        self._reported: Dict[str, int] = self._disk_counts()

    def _disk_counts(self) -> Dict[str, int]:
        disk = self.disk
        if disk is None:
            return {}
        return {name: getattr(disk, name.rpartition("_")[2])
                for name in DISK_COUNTERS}

    def take_counts(self) -> Dict[str, int]:
        """Counter deltas since the last call, keyed by engine counter name.

        The cache lives outside the engine, so its statistics are invisible
        to :class:`~repro.machine.stats.RunResult` unless the caller turns
        them into ``Count`` events.  ``KaliRank.forall`` drains this after
        every lookup/store so ``counter_sum("schedule_cache_hits")`` works.
        Disk-tier counters (:data:`DISK_COUNTERS`) surface the same way.
        """
        totals = {"schedule_cache_hits": self.hits,
                  "schedule_cache_misses": self.misses,
                  "schedule_cache_invalidations": self.invalidations,
                  **self._disk_counts()}
        out: Dict[str, int] = {}
        for name, value in totals.items():
            delta = value - self._reported.get(name, 0)
            if delta:
                out[name] = delta
                self._reported[name] = value
        return out

    def hit_reported(self) -> None:
        """The caller reported the memory hit its last :meth:`lookup`
        counted: a hit moves no other counter, so that one hit is what
        :meth:`take_counts` would have returned."""
        self._reported["schedule_cache_hits"] = self.hits

    def lookup(self, forall: Forall, env: Dict[str, LocalArray]) -> Optional[CommSchedule]:
        """Return a valid cached schedule, or None (miss / stale / disabled).

        A memory miss (a version or distribution invalidation included)
        asks the loop's shared tier, if it has one.
        """
        if not self.enabled:
            self.misses += 1
            return None
        sched = self._store.get(forall.label)
        if sched is not None:
            stale = False
            for name, version in sched.versions.items():
                local = env.get(name)
                if local is None or local.version != version:
                    stale = True
                    break
            if not stale:
                for name, dv in sched.dist_versions.items():
                    local = env.get(name)
                    if local is None or local.dist_version != dv:
                        stale = True
                        break
            if not stale:
                self.hits += 1
                return sched
            self.invalidations += 1
            del self._store[forall.label]
        else:
            self.misses += 1
        tier, key = self._shared(forall, env)
        self._missed = (forall, env, tier, key)
        if key is None:
            return None
        if tier is CLOSED_FORM:
            shared, changes = tier.get(key), {}
        else:
            # The content matched: the schedule is valid for the data
            # now in scope, whichever context inspected it.  built_by:
            # provenance for strategies()/describe().
            shared, changes = tier.load(key), {"built_by": "disk-cache"}
        if shared is None:
            return None
        return self._adopt(forall, env, shared, **changes)

    def _shared(self, forall: Forall, env: Dict[str, LocalArray]):
        """``(tier, key)`` of the shared tier that holds ``forall``'s
        schedule on this rank, or ``(None, None)``.  The verdict reads
        only the forall, the distributions, the content tags and the
        forced strategy, so every rank reaches the same one."""
        strategy = self.force_strategy or choose_strategy(forall, env)
        if strategy is Strategy.COMPILE_TIME:
            tier = CLOSED_FORM
        elif self.disk is not None:
            tier = self.disk
        else:
            return None, None
        return tier, _content_key(forall, env, self.translation)

    def _adopt(self, forall: Forall, env: Dict[str, LocalArray],
               shared: CommSchedule, **changes) -> CommSchedule:
        """Compile ``shared``'s plan if nobody has, file a stamped copy in
        memory and return it.  A shared tier hands one object to every
        context of the process, so the plan and its op tables are built
        once."""
        if shared.plan is None:
            shared.plan = executor.compile_plan(forall, env, shared)
        sched = self._store[forall.label] = _stamped(shared, env, **changes)
        return sched

    def store_through(self, forall: Forall, schedule: CommSchedule,
                      env: Dict[str, LocalArray]) -> CommSchedule:
        """File a freshly built ``schedule`` in memory and in its shared
        tier; return the copy to execute.  Uncached, the schedule itself
        (translations enumerated if the rank uses them), filed nowhere."""
        if self.translation == "enumerated":
            schedule.enumerate_translations()
        if not self.enabled:
            return schedule
        sched = self._adopt(forall, env, schedule)
        missed, self._missed = self._missed, None
        if missed is not None and missed[0] is forall and missed[1] is env:
            tier, key = missed[2:]      # the miss this schedule answers
        else:
            tier, key = self._shared(forall, env)
        if key is not None:
            if tier is CLOSED_FORM:
                tier[key] = schedule
            else:
                tier.store(key, schedule)
        return sched

    def clear(self) -> None:
        self._store.clear()

    def __len__(self) -> int:
        return len(self._store)
