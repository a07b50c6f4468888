"""Driver and rank-side contexts: running Kali programs on the simulator.

:class:`KaliContext` is the driver: declare a processor array and
distributed arrays, then ``run`` an SPMD *program* — a generator function
``def program(kr): ...`` that receives a :class:`KaliRank` and executes
forall loops with ``yield from kr.forall(loop)``::

    ctx = KaliContext(nprocs=8, machine=NCUBE7)
    a = ctx.array("a", n, dist=[Block()])
    ...
    def program(kr):
        for sweep in range(100):
            yield from kr.forall(relax)
    result = ctx.run(program)
    print(result.inspector_time, result.executor_time)

:class:`KaliRank` is the rank-side face of the runtime: it holds the local
pieces of every distributed array, the schedule cache, and the analysis
dispatcher that picks compile-time or run-time analysis per forall
(paper §3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.analysis.closedform import build_closed_form_schedule
from repro.analysis.planner import Strategy, choose_strategy
from repro.arrays.darray import DistributedArray
from repro.arrays.localview import LocalArray
from repro.comm import collectives
from repro.core.forall import Forall
from repro.distributions.base import DimDistribution
from repro.distributions.procs import ProcessorArray
from repro.errors import ForallError, KaliError
from repro.machine.api import Compute, Count as ApiCount, Rank
from repro.machine.cost import MachineModel, NCUBE7
from repro.machine.engine import Engine
from repro.machine.stats import RunResult
from repro.machine.topology import FullyConnected, Hypercube, Topology
from repro.runtime.cache import ScheduleCache
from repro.runtime.executor import run_executor
from repro.runtime.inspector import run_inspector
from repro.runtime.redistribute import redistribute as _redistribute
from repro.util.gray import is_power_of_two


class KaliRank:
    """Rank-side runtime handed to Kali programs.

    Provides the forall dispatcher plus thin wrappers over the collectives
    for the scalar reductions sequential program sections need (e.g. the
    convergence test of the paper's Figure 4 ``while`` loop).
    """

    def __init__(
        self,
        rank: Rank,
        env: Dict[str, LocalArray],
        cache_enabled: bool = True,
        force_strategy: Optional[Strategy] = None,
        translation: str = "ranges",
        combine_messages: bool = True,
        schedule_cache_dir: Optional[str] = None,
        disk_cache_bytes: int = 256 * 1024 * 1024,
    ):
        if translation not in ("ranges", "enumerated"):
            raise KaliError(f"unknown translation kind {translation!r}")
        self.combine_messages = combine_messages
        self.rank = rank
        self.env = env
        disk = None
        if schedule_cache_dir is not None:
            from repro.serve.diskcache import shared_disk_cache

            # Shared per (dir, rank) within the process: a pool worker
            # builds a KaliRank per job, and the shared store's memo is
            # what makes repeat disk hits cost two stats, not a load.
            disk = shared_disk_cache(schedule_cache_dir, rank.id,
                                     max_bytes=disk_cache_bytes)
        self.cache = ScheduleCache(enabled=cache_enabled, disk=disk,
                                   translation=translation)
        self.force_strategy = force_strategy
        self.translation = translation
        self._tag_seq = 0
        self._coll_seq = 0
        self.strategies_used: Dict[str, str] = {}

    # --- identity ---------------------------------------------------------

    @property
    def id(self) -> int:
        return self.rank.id

    @property
    def size(self) -> int:
        return self.rank.size

    def local(self, name: str) -> LocalArray:
        """This rank's piece of a distributed array."""
        try:
            return self.env[name]
        except KeyError:
            raise KaliError(f"no distributed array named {name!r}") from None

    # --- the forall dispatcher ---------------------------------------------

    def forall(self, loop: Forall) -> Generator:
        """Execute one forall (collective: all ranks must call this).

        First execution analyses the loop — symbolically when possible,
        otherwise with the run-time inspector — and caches the schedule;
        subsequent executions reuse it while the indirection data is
        unchanged.  Returns ``{name: value}`` for the loop's reductions
        (None when it has none).
        """
        schedule = self.cache.lookup(loop, self.env)
        for cname, amount in self.cache.take_counts().items():
            yield ApiCount(cname, amount)
        if schedule is None:
            strategy = self.force_strategy or choose_strategy(loop, self.env)
            if strategy is Strategy.COMPILE_TIME:
                schedule = build_closed_form_schedule(self.rank, loop, self.env)
            else:
                schedule = yield from run_inspector(self.rank, loop, self.env)
            if self.translation == "enumerated":
                schedule.enumerate_translations()
            self.cache.store_through(loop, schedule, self.env)
            for cname, amount in self.cache.take_counts().items():
                yield ApiCount(cname, amount)
        self.strategies_used[loop.label] = schedule.built_by
        n_arrays = max(1, len({r.array for r in loop.reads}))
        tag_base = self._tag_seq
        self._tag_seq = (self._tag_seq + n_arrays) % (1 << 18)
        result = yield from run_executor(
            self.rank, loop, self.env, schedule, tag_base,
            combine_messages=self.combine_messages,
        )
        return result

    def redistribute(self, name: str, new_spec) -> Generator:
        """Move a distributed array to a new distribution (collective).

        The all-to-all data motion is charged to the cost model; every
        cached schedule referencing the array is invalidated (its
        ``dist_version`` changes).  Foralls and global reads afterwards
        see the new layout transparently — the paper's §6 "dynamic load
        balancing" future work, expressible because nothing outside the
        dist clause ever named the layout.
        """
        self._tag_seq = (self._tag_seq + 1) % (1 << 18)
        new_local = yield from _redistribute(
            self.rank, self.env[name], new_spec, tag=self._tag_seq
        )
        self.env[name] = new_local

    # --- scalar collectives for sequential sections -----------------------------

    def _next_coll_tag(self) -> int:
        self._coll_seq = (self._coll_seq + 1) % (1 << 10)
        return self._coll_seq

    def allreduce(self, value, op: Callable = None, phase: str = "reduction"):
        """Global reduction of a replicated scalar (default: sum)."""
        import operator

        op = op or operator.add
        result = yield from collectives.allreduce(
            self.rank, value, op, tag=self._next_coll_tag(), phase=phase
        )
        return result

    def max_all(self, value, phase: str = "reduction"):
        result = yield from collectives.allreduce(
            self.rank, value, max, tag=self._next_coll_tag(), phase=phase
        )
        return result

    def barrier(self, phase: str = "barrier"):
        yield from collectives.barrier(self.rank, tag=self._next_coll_tag(), phase=phase)

    def compute(self, seconds: float, phase: str = "compute"):
        """Charge sequential local work to the virtual clock."""
        yield Compute(seconds, phase=phase)

    def now(self):
        """This rank's current virtual clock (for phase timing in programs)."""
        from repro.machine.api import Now

        t = yield Now()
        return t


@dataclass
class _RankOutcome:
    """Everything the driver needs back from one rank, as plain data.

    On the simulator the driver could read the :class:`KaliRank` objects
    directly (same process); on the mp backend they live in child
    processes, so each rank *returns* this record and the engine ships it
    home.  Both backends go through it, keeping the driver path identical.
    """

    #: shm hoist protocol: on the mp backend the gathered result arrays
    #: (each rank's whole env) ride the shared-memory data plane home
    #: instead of being pickled through the control pipe.
    __shm_fields__ = ("value", "env")

    value: Any
    env: Dict[str, LocalArray]
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    strategies_used: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def of(cls, kr: "KaliRank", value: Any) -> "_RankOutcome":
        return cls(
            value=value,
            env=kr.env,
            cache_hits=kr.cache.hits,
            cache_misses=kr.cache.misses,
            cache_invalidations=kr.cache.invalidations,
            strategies_used=dict(kr.strategies_used),
        )


class KaliRunResult:
    """Run outcome: engine statistics plus Kali-level accounting.

    ``inspector_time`` / ``executor_time`` follow the paper's reporting:
    the parallel (max-over-ranks) virtual time of each phase, with
    ``total_time`` their sum plus any other phases the program charged.
    On ``backend="mp"`` the phase figures are wall-clock seconds of the
    real run and ``kranks`` is empty (the rank runtimes lived in other
    processes); everything else reads identically on both backends.
    """

    def __init__(self, engine_result: RunResult, kranks: List[KaliRank],
                 outcomes: Optional[List[_RankOutcome]] = None):
        self.engine = engine_result
        self.kranks = kranks
        if outcomes is None:
            outcomes = list(engine_result.values)
        self.outcomes = outcomes

    @property
    def values(self) -> List[Any]:
        """Per-rank return values of the Kali program."""
        return [o.value for o in self.outcomes]

    @property
    def inspector_time(self) -> float:
        return self.engine.phase_max("inspector")

    @property
    def executor_time(self) -> float:
        return self.engine.phase_max("executor")

    @property
    def total_time(self) -> float:
        return sum(self.engine.phase_max(p) for p in self.engine.phases())

    @property
    def inspector_overhead(self) -> float:
        """Inspector time as a fraction of total time (the paper's metric)."""
        t = self.total_time
        return self.inspector_time / t if t else 0.0

    @property
    def makespan(self) -> float:
        return self.engine.makespan

    @property
    def trace(self):
        """Trace events when the context ran with ``trace=True`` (else None)."""
        return self.engine.trace

    def cache_stats(self) -> Dict[str, int]:
        return {
            "hits": sum(o.cache_hits for o in self.outcomes),
            "misses": sum(o.cache_misses for o in self.outcomes),
            "invalidations": sum(o.cache_invalidations for o in self.outcomes),
        }

    def strategies(self) -> Dict[str, str]:
        return dict(self.outcomes[0].strategies_used) if self.outcomes else {}

    def summary(self) -> str:
        lines = [
            f"total={self.total_time:.4f}s executor={self.executor_time:.4f}s "
            f"inspector={self.inspector_time:.4f}s "
            f"(overhead {100 * self.inspector_overhead:.2f}%)",
            self.engine.summary(),
        ]
        return "\n".join(lines)


class KaliContext:
    """Driver: declare arrays, run SPMD Kali programs, collect results."""

    def __init__(
        self,
        nprocs: int,
        machine: MachineModel = NCUBE7,
        topology: Optional[Topology] = None,
        procs: Optional[ProcessorArray] = None,
        cache_enabled: bool = True,
        force_strategy: Optional[Strategy] = None,
        translation: str = "ranges",
        combine_messages: bool = True,
        trace: bool = False,
        faults=None,
        backend: str = "sim",
        mp_timeout: float = 120.0,
        pool=None,
        schedule_cache_dir: Optional[str] = None,
        disk_cache_bytes: int = 256 * 1024 * 1024,
        tune=None,
        shm: Optional[bool] = None,
        shm_threshold: Optional[int] = None,
    ):
        self.procs = procs or ProcessorArray(nprocs)
        if self.procs.size != nprocs:
            raise KaliError(
                f"processor array of {self.procs.size} != nprocs {nprocs}"
            )
        if backend not in ("sim", "mp"):
            raise KaliError(
                f"unknown backend {backend!r} (expected 'sim' or 'mp')"
            )
        if pool is not None:
            if pool.nranks != nprocs:
                raise KaliError(
                    f"pool has {pool.nranks} ranks but context wants "
                    f"{nprocs} — pools serve one world size"
                )
            backend = "mp"  # pooled execution is real-process execution
        if backend == "mp" and faults is not None:
            raise KaliError(
                "fault plans need the deterministic virtual-time engine; "
                "backend='mp' cannot replay them — use backend='sim'"
            )
        self.backend = backend
        self.mp_timeout = mp_timeout
        #: shared-memory data plane (mp backend only, docs/dataplane.md):
        #: None = on unless REPRO_SHM=0.  A pooled context uses the
        #: *pool's* plane — the pool forked before this context existed.
        self.shm = shm
        self.shm_threshold = shm_threshold
        #: optional :class:`repro.serve.RankPool` — run on warm rank
        #: processes instead of forking a fresh mesh per run
        self.pool = pool
        #: optional directory of the persistent schedule-cache tier
        self.schedule_cache_dir = schedule_cache_dir
        self.disk_cache_bytes = disk_cache_bytes
        self.machine = machine
        if topology is None:
            topology = (
                Hypercube(nprocs) if is_power_of_two(nprocs) else FullyConnected(nprocs)
            )
        self.topology = topology
        self.cache_enabled = cache_enabled
        self.force_strategy = force_strategy
        self.translation = translation
        self.combine_messages = combine_messages
        self.trace = trace
        self.faults = faults
        #: opt-in learned-layout store: a directory path or a
        #: :class:`repro.tune.store.PlanStore` (None disables tuning)
        self.tune = tune
        self._tune_store = None
        self._tune_fp: Optional[str] = None
        self._tune_checked = False
        #: True once a stored plan re-laid-out this context's arrays
        self.tune_applied = False
        self.arrays: Dict[str, DistributedArray] = {}

    def __getstate__(self):
        """Programs shipped to pool workers often close over their context
        (solver objects keep a ``self.ctx``); the pool handle holds live
        pipe :class:`Connection` objects that must never cross a pickle.
        Workers only read declarations and knobs, so drop the pool."""
        state = dict(self.__dict__)
        state["pool"] = None
        return state

    # --- declarations ------------------------------------------------------

    def array(
        self,
        name: str,
        shape,
        dist: Sequence[DimDistribution],
        dtype=np.float64,
    ) -> DistributedArray:
        """Declare a distributed array (``var name : array[...] dist by [...]``)."""
        if name in self.arrays:
            raise KaliError(f"array {name!r} already declared")
        darr = DistributedArray(name, shape, dist, self.procs, dtype=dtype)
        self.arrays[name] = darr
        return darr

    # --- learned layout plans (repro.tune) ---------------------------------

    @property
    def tune_store(self):
        """The :class:`~repro.tune.store.PlanStore` of the ``tune=`` knob
        (built lazily from a path), or None when tuning is off."""
        if self.tune is None:
            return None
        if self._tune_store is None:
            if hasattr(self.tune, "load"):
                self._tune_store = self.tune
            else:
                from repro.tune.store import PlanStore

                self._tune_store = PlanStore(self.tune)
        return self._tune_store

    def tune_fingerprint(self) -> str:
        """This context's content-addressed plan key, memoized on first
        use — which :meth:`run` arranges to happen *before* any learned
        layout is applied, so repeat jobs hash to the original key."""
        if self._tune_fp is None:
            from repro.tune.store import context_fingerprint

            self._tune_fp = context_fingerprint(self)
        return self._tune_fp

    def _maybe_apply_tune(self) -> None:
        """Warm start: install the stored plan for this fingerprint, once."""
        store = self.tune_store
        if store is None or self._tune_checked:
            return
        self._tune_checked = True
        plan = store.load(self.tune_fingerprint())
        if plan is not None:
            from repro.tune.store import apply_plan

            if apply_plan(self, plan):
                self.tune_applied = True

    def store_tuned_layout(self, arrays: List[str], layout: Dict,
                           meta: Optional[Dict] = None) -> Optional[str]:
        """Persist a winning layout for this context's fingerprint.

        Called by :class:`repro.tune.AdaptiveRunner` after a run that
        moved; a no-op without a ``tune=`` store.  Returns the plan key.
        """
        store = self.tune_store
        if store is None:
            return None
        from repro.tune.store import plan_from_layouts

        key = self.tune_fingerprint()
        store.store(key, plan_from_layouts(arrays, layout, key=key, meta=meta))
        return key

    # --- execution ------------------------------------------------------------

    def run(self, program: Callable[[KaliRank], Generator]) -> KaliRunResult:
        """Scatter arrays, run ``program`` on every rank, gather results.

        The program is a generator function over a :class:`KaliRank`; its
        foralls and collectives advance virtual time on the simulated
        machine — or real wall time when the context was built with
        ``backend="mp"``, which runs each rank on its own OS process.
        Distributed array contents are scattered before the run and
        gathered back afterwards, so driver-side code sees the updated
        global arrays on either backend.
        """
        self._maybe_apply_tune()
        kranks: List[Optional[KaliRank]] = [None] * self.procs.size
        cache_enabled = self.cache_enabled
        force_strategy = self.force_strategy
        translation = self.translation
        combine_messages = self.combine_messages
        schedule_cache_dir = self.schedule_cache_dir
        disk_cache_bytes = self.disk_cache_bytes
        arrays = self.arrays
        sim = self.backend == "sim"

        def rank_main(rank: Rank):
            env = {name: darr.scatter(rank.id) for name, darr in arrays.items()}
            if schedule_cache_dir is not None:
                # The disk tier's keys hash global content; nothing else
                # reads the tag, so only its runs pay for the hashing.
                for name, local in env.items():
                    local.content_tag = arrays[name].content_fingerprint()
            kr = KaliRank(
                rank,
                env,
                cache_enabled=cache_enabled,
                force_strategy=force_strategy,
                translation=translation,
                combine_messages=combine_messages,
                schedule_cache_dir=schedule_cache_dir,
                disk_cache_bytes=disk_cache_bytes,
            )
            if sim:
                kranks[rank.id] = kr
            gen = program(kr)
            if gen is None or not hasattr(gen, "send"):
                raise KaliError(
                    "Kali programs must be generator functions (use 'yield "
                    "from kr.forall(...)')"
                )
            result = yield from gen
            # The outcome is the rank's return value: plain data that
            # crosses the process boundary on the mp backend.
            return _RankOutcome.of(kr, result)

        if sim:
            engine = Engine(self.machine, topology=self.topology,
                            nranks=self.procs.size, trace=self.trace,
                            faults=self.faults)
            engine_result = engine.run(rank_main)
        elif self.pool is not None:
            engine_result = self.pool.run(
                rank_main, self.machine, topology=self.topology,
                trace=self.trace, timeout=self.mp_timeout,
            )
        else:
            from repro.machine.mp import MpEngine

            engine = MpEngine(self.machine, topology=self.topology,
                              nranks=self.procs.size, trace=self.trace,
                              timeout=self.mp_timeout, shm=self.shm,
                              shm_threshold=self.shm_threshold)
            engine_result = engine.run(rank_main)
        outcomes: List[_RankOutcome] = list(engine_result.values)

        # Gather per-rank pieces back into the driver-side global arrays.
        for name, darr in self.arrays.items():
            darr.gather_from([o.env[name] for o in outcomes])

        return KaliRunResult(engine_result, kranks, outcomes)  # type: ignore[arg-type]
