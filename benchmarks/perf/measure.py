"""Measurement primitives: percentiles, process-tree CPU, peak RSS,
and the best-of-passes aggregation every mode of the harness shares.

Nothing here imports the program under test.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from typing import Dict, List, Sequence, Tuple

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: a percentile is reported only with this many samples beyond it
MIN_BEYOND = 10
#: so a p90 needs 100 samples; passes run at least this many timed ops
MIN_OPS = 120


def _rank(n: int, q: int) -> int:
    """1-based nearest rank of the ``q``-th percentile: ceil(n*q/100)."""
    return max(1, -(-n * q // 100))


def percentile(samples: Sequence[float], q: int) -> float:
    """Nearest-rank percentile (whole ``q`` in 1..100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), q) - 1]


def samples_beyond(n: int, q: int) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q`` percentile."""
    return n - _rank(n, q)


def _stat_fields(pid: int):
    """(ppid, utime+stime ticks) of ``pid`` from /proc, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
    except OSError:
        return None
    # comm may contain spaces and parentheses: split after the last ')'
    rest = raw[raw.rfind(")") + 2:].split()
    return int(rest[1]), int(rest[11]) + int(rest[12])


def tree_cpu_seconds() -> float:
    """user+sys CPU seconds of this process and all its *live*
    descendants: the process's own CPU clock (nanosecond resolution)
    plus each descendant's ``utime + stime`` from ``/proc/<pid>/stat``
    (10 ms ticks).

    Reaped children are not double counted: the kernel folds their time
    into the parent's cutime/cstime, which this deliberately ignores —
    callers difference two readings taken while the same processes are
    alive (pool ranks live for the whole timed phase).
    """
    root = os.getpid()
    table: Dict[int, tuple] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                table[int(entry)] = fields
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _ticks) in table.items():
        children.setdefault(ppid, []).append(pid)
    ticks, todo = 0, list(children.get(root, ()))
    while todo:
        pid = todo.pop()
        ticks += table[pid][1]
        todo.extend(children.get(pid, ()))
    return time.process_time() + ticks / _CLK_TCK


def peak_rss_mib() -> float:
    """This process's peak RSS plus the largest reaped child's (Linux
    reports ``ru_maxrss`` in KiB).  Read it after pools are closed."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def latency_metrics(latencies_s: Sequence[float], wall_s: float,
                    cpu_s: float) -> Dict[str, float]:
    """The per-pass end-to-end figures derived from op latencies."""
    n = len(latencies_s)
    ms = [x * 1e3 for x in latencies_s]
    return {
        "ops_per_s": n / wall_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": percentile(ms, 90),
        "cpu_ms_per_op": cpu_s * 1e3 / n,
    }


def aggregate(passes: List[Dict[str, float]],
              metrics: Sequence[Tuple[str, str]]) -> Dict[str, Dict]:
    """Fold per-pass values of each ``(name, better)`` metric.

    ``value`` is the **best** pass: on a shared machine noise is
    one-sided — a neighbour's burst only ever slows a pass down, for
    seconds at a time — so the quietest of a few passes repeats far
    better than their median does.  ``spread`` says how well that floor
    is confirmed: the distance from the best pass to the runner-up, as
    a share of the best.
    """
    out = {}
    for name, better in metrics:
        vals = [p[name] for p in passes]
        ranked = sorted(vals, reverse=(better == "higher"))
        best = ranked[0]
        runner_up = ranked[1] if len(ranked) > 1 else best
        out[name] = {"value": best,
                     "spread": abs(runner_up - best) / best if best else 0.0,
                     "passes": vals}
    return out
