"""One measured pass of one workload, and the parent side that spawns
passes as fresh processes and folds them into one measurement.

A *pass* is the unit everything else is built from: a fresh interpreter
sets the workload up (``setup_s`` runs from the moment the parent
spawned it), times ops for a fixed number of seconds, checks the
outputs and tears down; within it a latency figure is a median or a
percentile of at least 120 ops.  A *measurement* of a workload is the
best of three passes (``measure.aggregate`` says why); the contract
command (``run.py --workload``) makes one measurement, the full set
(``run.py`` alone) interleaves the passes of all six workloads.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
PASSES = 3

# name, unit, better, bound (share of the parent's median it may worsen by).
# The issue proposed 0.10 (0.20 for p90).  Measured here, ten runs of one
# commit spread (IQR / median) by 2-16% on every time-based metric, and the
# medians of two such sets differed by up to 9%: the 2-core box shares its
# host, and the slow-downs last minutes, not seconds, so no amount of work
# inside one ~20 s measurement averages them out.  A bound below the noise
# would reject unchanged code; these are the tightest the box supports.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "op/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_op", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
]
_E2E_BETTER = [(name, better) for name, _unit, better, _bound in END_TO_END]
#: Reported by the full set and judged by --compare, but not a gate in
#: BENCHMARK.json: in a noisy spell the tail spread by 20-30% between
#: runs of one commit, past the largest bound the contract allows.  The
#: traced run carries it along as an unbounded per-layer figure.
UNGATED = ("op_p90_ms",)


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED) as fh:
        return json.load(fh)


def _workdir() -> str:
    """A scratch directory inside the checkout, as a short relative path
    (unix socket paths are limited to ~100 bytes)."""
    path = os.path.join(HERE, ".work", f"pass-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    rel = os.path.relpath(path)
    return rel if len(rel) < len(path) else path


# --- the child: one pass -----------------------------------------------------


def run_pass(name: str, seed: int, seconds: float, traced: bool,
             quick: bool, spawned_at: float,
             spans_out: Optional[str] = None) -> Dict[str, Any]:
    """Set up, time, verify and tear down one workload in this process."""
    import layers
    from tracer import SPAN_FIELDS, TRACER
    from workloads import WORKLOADS

    workdir = _workdir()
    probes: Dict[str, float] = {}
    workload = None
    try:
        if traced:
            probes = layers.run_probes(workdir)
            layers.install()
        workload = WORKLOADS[name](seed, workdir, quick=quick)
        workload.setup()
        setup_s = time.monotonic() - spawned_at
        workload.timed(seconds)
        workload.verify()
        layer_values = layers.layer_metrics(workload, probes) if traced else {}
    finally:
        try:
            if workload is not None:
                workload.close()
        finally:
            TRACER.uninstall()
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(os.path.dirname(workdir))   # .work, once empty
            except OSError:
                pass

    pin_ok = workload.pin == load_expected().get(name)
    if not pin_ok:
        workload.fail("pinned canary differs from expected.json "
                      "(virtual seconds, traffic, counters or answer moved)",
                      ops=workload.attempted - workload.failed)
    out: Dict[str, Any] = {
        "workload": name, "seed": seed, "traced": traced,
        "attempted": workload.attempted, "failed": workload.failed,
        "notes": workload.notes, "samples": len(workload.latencies),
        "pin": workload.pin, "pin_ok": pin_ok,
        "setup_s": setup_s,
        **measure.latency_metrics(workload.latencies, workload.meter.wall_s,
                                  workload.meter.cpu_s),
        "peak_rss_mib": measure.peak_rss_mib(),
        "layers": layer_values,
    }
    if spans_out:
        with open(spans_out, "w") as fh:
            json.dump({"fields": SPAN_FIELDS,
                       "spans": [s for s in TRACER.spans if s is not None]}, fh)
    return out


# --- the parent: spawn passes, fold them -------------------------------------


def spawn_pass(name: str, seed: int, seconds: float, traced: bool = False,
               quick: bool = False, spans_out: Optional[str] = None,
               timeout: float = 170.0) -> Dict[str, Any]:
    """Run one pass in a fresh interpreter and return what it printed."""
    # One hash seed for every pass: str-keyed dict order (and with it a
    # few per cent of speed) otherwise differs from process to process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--pass", name,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--trace", str(int(traced)),
           "--spawned-at", repr(time.monotonic())]
    if quick:
        cmd.append("--quick")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"pass of {name} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fold(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Best-of-passes summary of one workload's untraced passes."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "metrics": measure.aggregate(passes, _E2E_BETTER),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "samples_per_pass": [p["samples"] for p in passes],
        "notes": [n for p in passes for n in p["notes"]][:5],
        "pin_ok": all(p["pin_ok"] for p in passes),
    }


def measure_workload(name: str, seed: int, seconds: float,
                     quick: bool = False) -> Dict[str, Any]:
    """PASSES fresh passes of ``seconds / PASSES`` each, folded."""
    return fold([spawn_pass(name, seed, seconds / PASSES, quick=quick)
                 for _ in range(PASSES)])


def trace_workload(name: str, seed: int, seconds: float, quick: bool = False,
                   spans_out: Optional[str] = None) -> Dict[str, Any]:
    """An untraced and a traced pass of ``seconds / 2`` each: the traced
    one yields the per-layer metrics, the pair the tracing overhead."""
    plain = spawn_pass(name, seed, seconds / 2, quick=quick)
    traced = spawn_pass(name, seed, seconds / 2, traced=True, quick=quick,
                        spans_out=spans_out)
    layers = traced["layers"]
    layers["trace.overhead_frac"] = (
        1.0 - traced["ops_per_s"] / plain["ops_per_s"])
    for name in UNGATED:
        layers[name] = plain[name]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return {"layers": layers, "attempted": attempted, "failed": failed,
            "notes": (plain["notes"] + traced["notes"])[:5],
            "pin_ok": plain["pin_ok"] and traced["pin_ok"],
            "traced_ops_per_s": traced["ops_per_s"],
            "plain_ops_per_s": plain["ops_per_s"]}
