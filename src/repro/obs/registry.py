"""Run-metrics registry and run-file (de)serialization.

``RankStats`` records phase clocks and counters, but several runtime
statistics never reached it before this module existed (schedule-cache
hits lived on the cache object, crystal-router rounds were implicit in
the message stream).  With the engine now emitting ``Count`` events for
all of them, :class:`MetricsRegistry` flattens a :class:`RunResult` into
a single name → value mapping — phase times, counters, traffic totals,
utilisation — and serializes it as JSON, JSON-lines, or CSV for
dashboards and regression tracking.

The same module owns the *run file* format: a JSON snapshot of a full
``RunResult`` (stats + clocks + trace) written by ``write_run_json`` and
consumed by ``python -m repro.obs report``, so capture and analysis can
happen in different processes.
"""

from __future__ import annotations

import io
import json
from collections import defaultdict
from typing import Dict, List, Optional, Union

from repro.machine.stats import RankStats, RunResult
from repro.machine.trace import TraceEvent

Number = Union[int, float]

RUN_FORMAT = "repro-run-v1"

# Stable dotted aliases ``from_run`` reports for every run, as
# (metric, "sum" | "max" over ranks, engine counter) rows in output order.
#
# One table here rather than a ``register_prefix()`` call from each
# subsystem: a run must report the *same key set* whoever produced it —
# a mesh run carries ``structs.*`` as zeros without ``repro.structs``
# ever having been imported, a simulator run carries ``shm.*`` as zeros —
# so dashboards and the byte-identical bench metrics files never depend
# on import order.  Adding a prefix is adding rows.
RUN_ALIASES = (
    # Schedule-cache health under one stable prefix: `cache.*` is the
    # name dashboards (and the tuner's tests) key on — in particular
    # `cache.invalidations`, the count of schedules a redistribution
    # threw away, which is how many re-inspections a layout move cost.
    ("cache.hits", "sum", "schedule_cache_hits"),
    ("cache.misses", "sum", "schedule_cache_misses"),
    ("cache.invalidations", "sum", "schedule_cache_invalidations"),
    # Shared-memory data-plane health under the same kind of stable
    # prefix (mp backend only; all zero on simulator runs).  `shm.bytes`
    # vs `shm.pipe_bytes` is the zero-copy win; `shm.hwm_bytes` the
    # deepest any rank's arena got; `shm.reclaimed_bytes` what pool
    # reset barriers gave back.  See docs/dataplane.md.
    ("shm.bytes", "sum", "shm_bytes_sent"),
    ("shm.blocks", "sum", "shm_blocks_sent"),
    ("shm.pipe_bytes", "sum", "pipe_bytes_sent"),
    ("shm.fallbacks", "sum", "shm_fallbacks"),
    ("shm.hwm_bytes", "max", "shm_hwm_bytes"),
    ("shm.reclaimed_bytes", "sum", "shm_reclaimed_bytes"),
    # Distributed-structure traffic under `structs.*` (all zero for mesh
    # workloads).  `structs.items` over `structs.exchanges` is the
    # combining win — elements moved per collective exchange;
    # `structs.migrated_keys` vs `structs.rehashed_keys` separates
    # entries that changed *rank* from entries that merely changed
    # bucket during a rebalance.  See docs/structs.md.
    ("structs.batches", "sum", "structs_batches"),
    ("structs.items", "sum", "structs_items"),
    ("structs.exchanges", "sum", "structs_exchanges"),
    ("structs.chain_scans", "sum", "structs_chain_scans"),
    ("structs.rebalances", "max", "structs_rebalances"),
    ("structs.migrated_keys", "sum", "structs_migrated_keys"),
    ("structs.rehashed_keys", "sum", "structs_rehashed_keys"),
    ("structs.pushed", "sum", "structs_pushed"),
    ("structs.popped", "sum", "structs_popped"),
)


class MetricsRegistry:
    """An ordered name → scalar mapping with uniform exporters."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Number] = {}

    # --- building --------------------------------------------------------

    def add(self, name: str, value: Number) -> None:
        """Record one metric (later adds overwrite earlier ones)."""
        self._metrics[name] = value

    def update(self, mapping: Dict[str, Number]) -> None:
        for k, v in mapping.items():
            self.add(k, v)

    @classmethod
    def from_run(
        cls,
        result: RunResult,
        extra: Optional[Dict[str, Number]] = None,
    ) -> "MetricsRegistry":
        """Flatten a :class:`RunResult` into metrics.

        Naming scheme: ``phase_max.<phase>`` / ``phase_sum.<phase>`` for
        virtual-time charges, ``counter_sum.<name>`` / ``counter_max.<name>``
        for event counters, plus run-level traffic and utilisation scalars.
        """
        reg = cls()
        reg.add("nranks", result.nranks)
        reg.add("makespan", result.makespan)
        reg.add("messages_total", result.total_messages())
        reg.add("bytes_total", result.total_bytes())
        for phase in result.phases():
            reg.add(f"phase_max.{phase}", result.phase_max(phase))
            reg.add(f"phase_sum.{phase}", result.phase_sum(phase))
        names = sorted({n for s in result.stats for n in s.counters})
        for n in names:
            reg.add(f"counter_sum.{n}", result.counter_sum(n))
            reg.add(f"counter_max.{n}", result.counter_max(n))
        for metric, how, counter in RUN_ALIASES:
            fold = result.counter_sum if how == "sum" else result.counter_max
            reg.add(metric, fold(counter))
        busy = sum(s.total_time() for s in result.stats)
        denom = result.makespan * result.nranks
        reg.add("parallel_efficiency", busy / denom if denom > 0 else 0.0)
        if extra:
            reg.update(extra)
        return reg

    @classmethod
    def from_fleet(cls, stat: Dict) -> "MetricsRegistry":
        """Flatten a serve-fleet ``stat()`` snapshot into metrics.

        Naming scheme, parallel to ``cache.*``/``shm.*``: fleet-level
        health under ``serve.*`` (``serve.jobs_done`` is monotone over a
        server's life — the soak test pins that), per-shard counters
        under ``shard.<index>.*`` so a dashboard can watch routing skew,
        crash retries, and disk-cache growth shard by shard.
        """
        reg = cls()
        reg.update({
            "serve.shards": len(stat.get("shards", [])),
            "serve.jobs_done": stat.get("jobs_done", 0),
            "serve.failures": stat.get("failures", 0),
            "serve.sheds": stat.get("sheds", 0),
            "serve.retries": stat.get("retries", 0),
            "serve.replays": stat.get("replays", 0),
            "serve.queued": stat.get("queued", 0),
            "serve.uptime_s": stat.get("uptime_s", 0.0),
        })
        for entry in stat.get("shards", []):
            prefix = f"shard.{entry['name'].split('-')[-1]}"
            for short in ("queued", "jobs_done", "failures", "retries",
                          "replays_in", "sheds", "rebuilds", "meshes_built",
                          "shm_ship_bytes", "shm_reclaimed_bytes",
                          "disk_entries", "disk_bytes"):
                reg.add(f"{prefix}.{short}", entry.get(short, 0))
        autopilot = stat.get("autopilot")
        if autopilot:
            for short in ("families", "campaigns_active", "drift_events",
                          "shadow_runs", "ab_jobs", "promoted", "rejected",
                          "rolled_back", "decisions"):
                reg.add(f"autopilot.{short}", autopilot.get(short, 0))
        return reg

    # --- access ----------------------------------------------------------

    def as_dict(self) -> Dict[str, Number]:
        return dict(self._metrics)

    def subset(self, prefix: str) -> Dict[str, Number]:
        """The metrics under one dotted prefix (``subset("shard.0")``)."""
        dot = prefix if prefix.endswith(".") else prefix + "."
        return {k: v for k, v in self._metrics.items() if k.startswith(dot)}

    def get(self, name: str, default: Optional[Number] = None):
        return self._metrics.get(name, default)

    def names(self) -> List[str]:
        return list(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # --- exporters -------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self._metrics, indent=indent)

    def to_jsonl(self) -> str:
        """One ``{"name": ..., "value": ...}`` object per line."""
        return "\n".join(
            json.dumps({"name": k, "value": v}) for k, v in self._metrics.items()
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("name,value\n")
        for k, v in self._metrics.items():
            buf.write(f"{k},{v}\n")
        return buf.getvalue()

    def render_table(self) -> str:
        width = max((len(k) for k in self._metrics), default=4)
        lines = []
        for k, v in self._metrics.items():
            shown = f"{v:.6f}" if isinstance(v, float) else str(v)
            lines.append(f"{k:<{width}}  {shown}")
        return "\n".join(lines)


# --- run files ------------------------------------------------------------


def run_to_dict(result: RunResult, meta: Optional[Dict] = None) -> Dict:
    """A JSON-serializable snapshot of a run (rank values are dropped:
    they are arbitrary Python objects, not telemetry).

    ``meta`` is free-form provenance (machine name, topology, workload
    parameters) surfaced verbatim by the report CLI.
    """
    doc: Dict = {
        "format": RUN_FORMAT,
        "meta": dict(meta) if meta else {},
        "nranks": result.nranks,
        "clocks": list(result.clocks),
        "stats": [
            {
                "rank": s.rank,
                "phase_time": dict(s.phase_time),
                "counters": dict(s.counters),
                "messages_sent": s.messages_sent,
                "messages_received": s.messages_received,
                "bytes_sent": s.bytes_sent,
                "bytes_received": s.bytes_received,
            }
            for s in result.stats
        ],
    }
    if result.trace is not None:
        doc["trace"] = [
            {
                "rank": e.rank, "kind": e.kind, "start": e.start, "end": e.end,
                "phase": e.phase, "peer": e.peer, "tag": e.tag,
                "nbytes": e.nbytes, "label": e.label, "seq": e.seq,
                "busy_start": e.busy_start,
            }
            for e in result.trace
        ]
    return doc


def run_from_dict(doc: Dict) -> RunResult:
    if doc.get("format") != RUN_FORMAT:
        raise ValueError(
            f"not a {RUN_FORMAT} run file (format={doc.get('format')!r})"
        )
    stats = []
    for sd in doc["stats"]:
        s = RankStats(sd["rank"])
        s.phase_time = defaultdict(float, sd["phase_time"])
        s.counters = defaultdict(int, sd["counters"])
        s.messages_sent = sd["messages_sent"]
        s.messages_received = sd["messages_received"]
        s.bytes_sent = sd["bytes_sent"]
        s.bytes_received = sd["bytes_received"]
        stats.append(s)
    result = RunResult(
        nranks=doc["nranks"],
        clocks=list(doc["clocks"]),
        stats=stats,
        values=[None] * doc["nranks"],
    )
    if "trace" in doc:
        result.trace = [TraceEvent(**ed) for ed in doc["trace"]]
    return result


def write_run_json(
    result: RunResult, path: str, meta: Optional[Dict] = None
) -> None:
    with open(path, "w") as fh:
        json.dump(run_to_dict(result, meta=meta), fh)


def read_run_json(path: str) -> RunResult:
    with open(path) as fh:
        return run_from_dict(json.load(fh))
