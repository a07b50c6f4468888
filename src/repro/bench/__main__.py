"""Regenerate the evaluation tables: ``python -m repro.bench``.

With no suite flag this prints every table of the paper's evaluation
(E1–E5, A1–A4, F1–F2).  One suite flag runs a subsystem's acceptance
suite instead: ``--backend mp`` (M1: Jacobi on real OS processes,
cross-checked bit-for-bit against the simulator), ``--shm`` (D1),
``--serve`` (S1/S2), ``--tune`` (T1), ``--structs`` (G1), ``--autopilot``
(P1).  Suite flags are mutually exclusive: two together is a usage error
(exit 2), not a silent pick.

Options: ``--fast`` shrinks a suite to smoke size (paper tables: meshes
64..256 instead of 64..1024); ``--full`` verifies the paper tables by
running all 100 sweeps instead of extrapolating from 3; ``--metrics-dir
DIR`` writes a structured ``<experiment>.metrics.json`` per table, plus a
``repro-run-v1`` ``<leg>.run.json`` and its flattened ``<leg>.metrics.json``
per kept engine result, so downstream tooling (regression tracking,
``repro.obs`` dashboards) need not re-parse ASCII.

A *suite* is a function ``args -> Report`` listed in :data:`SUITES`: it
sizes its experiment from ``args.fast``, renders its tables and states
its gates, and prints and writes nothing.  :func:`main` is the one place
that prints, writes files and sets the exit status — so on a red run
*every* failed gate is printed (not just the first), the metrics files
are still written (they are the evidence), and the exit status is 1.  To
add a suite, write one such function and add its ``SUITES`` row; the
``--<name>`` flag comes with it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys
import time
from typing import Dict, List, Optional

from repro.bench import calibration as cal
from repro.bench import experiments as ex
from repro.bench.tables import (
    ablation_table,
    dict_table,
    overhead_table,
    processor_table,
    size_table,
)
from repro.machine.cost import IPSC2, NCUBE7
from repro.obs.registry import MetricsRegistry, write_run_json


@dataclasses.dataclass
class Report:
    """What one suite run produced; :func:`main` prints and writes it.

    ``tables`` are ``(slug, rendered text, rows, extra doc keys)`` — each
    becomes ``<slug>.metrics.json``; ``runs`` are ``(file stem, engine
    RunResult, run-file meta, extra registry metrics)`` — each becomes
    ``<stem>.run.json`` + ``<stem>.metrics.json``.  ``headline`` is an
    optional phrase for the closing line; ``default_dir`` is where files
    go when ``--metrics-dir`` is not given (``None``: nowhere).
    """

    tables: List[tuple] = dataclasses.field(default_factory=list)
    runs: List[tuple] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)
    failures: List[str] = dataclasses.field(default_factory=list)
    headline: Optional[str] = None
    default_dir: Optional[str] = None

    def table(self, slug: str, text: str, rows, **doc) -> None:
        self.tables.append((slug, text, rows, doc))

    def run(self, stem: str, result, meta: Dict, extra=None) -> None:
        self.runs.append((stem, result, meta, extra))

    def note(self, line: str) -> None:
        self.notes.append(line)

    def gate(self, ok: bool, message: str) -> None:
        """An acceptance gate: ``message`` names the failure if not ``ok``."""
        if not ok:
            self.failures.append(message)


def _rows_to_jsonable(rows):
    """Experiment rows (dataclasses, dicts, scalars) -> plain JSON data."""
    if isinstance(rows, dict):
        return rows
    return [dataclasses.asdict(row) if dataclasses.is_dataclass(row) else row
            for row in rows]


def suite_paper(args) -> Report:
    """The paper's evaluation: E1–E5, A1–A4, F1–F2, virtual seconds."""
    measured = cal.PAPER_SWEEPS if args.full else None
    sides = [64, 128, 256] if args.fast else cal.MESH_SIDES
    report = Report()

    def table(slug, render, title, rows, *rest, **kw):
        report.table(slug, render(title, rows, *rest, **kw), rows,
                     full=args.full)

    table("E1_ncube_procs", processor_table,
          "E1  (paper Fig. 7)  NCUBE/7, 128x128 mesh, 100 sweeps",
          ex.processor_scaling(NCUBE7, cal.NCUBE_PROC_COUNTS,
                               measured_sweeps=measured),
          cal.PAPER_NCUBE_PROCS)
    table("E2_ipsc_procs", processor_table,
          "E2  (paper Fig. 8)  iPSC/2, 128x128 mesh, 100 sweeps",
          ex.processor_scaling(IPSC2, cal.IPSC_PROC_COUNTS,
                               measured_sweeps=measured),
          cal.PAPER_IPSC_PROCS)
    table("E3_ncube_sizes", size_table,
          "E3  (paper Fig. 9)  NCUBE/7, 128 processors, varying mesh",
          ex.size_scaling(NCUBE7, cal.NCUBE_SIZE_PROCS, mesh_sides=sides,
                          measured_sweeps=measured),
          cal.PAPER_NCUBE_SIZES)
    table("E4_ipsc_sizes", size_table,
          "E4  (paper Fig. 10)  iPSC/2, 32 processors, varying mesh",
          ex.size_scaling(IPSC2, cal.IPSC_SIZE_PROCS, mesh_sides=sides,
                          measured_sweeps=measured),
          cal.PAPER_IPSC_SIZES)
    table("E5_single_sweep_ncube", overhead_table,
          "E5  (§4 text)  single-sweep inspector overhead, "
          "NCUBE/7 (paper: 45%..93%)",
          ex.single_sweep_overhead(NCUBE7, cal.NCUBE_PROC_COUNTS))
    table("E5_single_sweep_ipsc", overhead_table,
          "E5  (§4 text)  single-sweep inspector overhead, "
          "iPSC/2 (paper: 35%..41%)",
          ex.single_sweep_overhead(IPSC2, cal.IPSC_PROC_COUNTS))
    table("A1_caching", ablation_table,
          "A1  schedule caching vs re-inspection (Rogers & "
          "Pingali, §5), NCUBE/7 P=16, 64x64",
          ex.caching_ablation(NCUBE7, 16, [1, 10, 100]),
          ["cached_total", "uncached_total", "ratio"], key_header="sweeps")
    table("A2_translation", dict_table,
          "A2  sorted ranges vs Saltz enumeration (§5), NCUBE/7 "
          "P=32, 128x128",
          ex.translation_ablation(NCUBE7, 32))
    table("A3_handcoded", ablation_table,
          "A3  Kali vs hand-coded message passing (§1), "
          "NCUBE/7 128x128",
          ex.handcoded_ablation(NCUBE7, [2, 8, 32, 128]),
          ["kali_executor", "handcoded_executor", "kali_overhead"],
          key_header="procs")
    table("A4_distributions", ablation_table,
          "A4  distribution patterns, one-line change (§2.4), "
          "NCUBE/7 P=16, 64x64",
          ex.distribution_ablation(NCUBE7, 16),
          ["total", "executor", "inspector", "remote_refs_per_sweep"],
          key_header="dist")
    table("F1_drop_rates", ablation_table,
          "F1  ack/retry overhead vs message drop rate "
          "(repro.faults), NCUBE/7 P=8, 32x32",
          ex.drop_rate_experiment(NCUBE7),
          ["makespan", "overhead", "retransmissions", "answer_ok"],
          key_header="drop")
    table("F2_stragglers", ablation_table,
          "F2  makespan amplification from one straggler rank "
          "(repro.faults), NCUBE/7 P=8, 32x32",
          ex.straggler_experiment(NCUBE7),
          ["makespan", "slowdown"], key_header="straggler")
    return report


def suite_mp(args) -> Report:
    """M1: real processes, wall-clock run files, bit-identity vs sim."""
    proc_counts = [2, 4] if args.fast else [2, 4, 8]
    mesh_side = 16 if args.fast else 32
    rows, runs = ex.mp_wallclock(NCUBE7, proc_counts, mesh_side=mesh_side)

    report = Report(default_dir="bench-mp-out")
    report.table("M1_mp_jacobi", ablation_table(
        f"M1  real OS processes (repro.machine.mp), {mesh_side}x{mesh_side} "
        "mesh, 5 sweeps — wall seconds, differential-checked vs sim",
        rows,
        ["wall_makespan", "wall_executor", "wall_inspector", "messages",
         "identical"],
        key_header="procs",
    ), rows)
    report.gate(all(r.values["identical"] == 1.0 for r in rows),
                "an mp run diverged from the simulator")
    for p, engine_result in runs.items():
        report.run(f"M1_mp_jacobi_p{p}", engine_result, {
            "backend": "mp",
            "workload": "jacobi",
            "machine": NCUBE7.name,
            "mesh_side": mesh_side,
            "nprocs": p,
        })
    return report


def suite_shm(args) -> Report:
    """D1: zero-copy data plane vs the pickle path.

    Gates on the acceptance bar for the shm data plane: at the largest
    payload size the shm path must move payload bytes at >= 2x the
    pickle path's throughput, with the Jacobi differential leg bit-
    identical to the simulator and the traced comm matrix reconciling
    exactly against per-rank byte counters."""
    sizes = ([1 << 14, 1 << 17, 1 << 21] if args.fast
             else [1 << 13, 1 << 16, 1 << 19, 1 << 22])
    repeats = 6 if args.fast else 8
    mesh_side = 16 if args.fast else 32
    rows, runs = ex.shm_dataplane(NCUBE7, sizes=sizes, repeats=repeats,
                                  mesh_side=mesh_side)
    xfer_rows = [r for r in rows if isinstance(r.key, int)]
    diff_row = next(r for r in rows if r.key == "jacobi-differential")
    diff, top = diff_row.values, xfer_rows[-1]

    report = Report(headline=f"{top.values['speedup']:.1f}x at {top.key}B")
    report.table("D1_shm_dataplane", ablation_table(
        f"D1  shm data plane vs pickle pipes (repro.machine.shm), 2 ranks, "
        f"{repeats} payloads per size — payload MB/s and speedup",
        xfer_rows,
        ["pickle_MBps", "shm_MBps", "speedup", "shm_bytes", "pipe_bytes"],
        key_header="payload_B",
    ) + "\n\n" + ablation_table(
        f"D1b Jacobi differential with shm on, {mesh_side}x{mesh_side} "
        "mesh, P=4 — bit-identity and comm-matrix bytes parity",
        [diff_row],
        ["identical", "comm_matrix_parity", "shm_bytes", "pipe_bytes"],
        key_header="leg",
    ), rows)
    report.gate(top.values["speedup"] >= 2.0,
                f"speedup at {top.key}B payloads is "
                f"{top.values['speedup']:.2f}x (< 2.0x bar)")
    report.gate(diff["identical"] == 1.0,
                "shm Jacobi run diverged from the simulator")
    report.gate(diff["comm_matrix_parity"] == 1.0,
                "comm matrix no longer reconciles with rank counters")
    report.gate(diff["shm_bytes"] > 0,
                "shm path moved zero payload bytes (plane inactive?)")
    for name, engine_result in runs.items():
        report.run(f"D1_shm_{name}", engine_result, {
            "backend": "mp", "experiment": "D1_shm", "leg": name,
            "machine": NCUBE7.name,
        })
    return report


def suite_serve(args) -> Report:
    """S1 + S2: repeated-job throughput of the serve tier and the fleet."""
    njobs = 5 if args.fast else 10
    mesh_side = 12 if args.fast else 16
    rows, runs = ex.serving_throughput(NCUBE7, njobs=njobs,
                                       mesh_side=mesh_side)
    by_key = {r.key: r.values for r in rows}
    warm = by_key["warm-pool+disk"]
    speedup = warm["jobs_per_s"] / by_key["fork-per-run"]["jobs_per_s"]

    report = Report()
    report.table("S1_serve_throughput", ablation_table(
        f"S1  serve-tier throughput (repro.serve), {njobs}x identical "
        f"{mesh_side}x{mesh_side} Jacobi jobs, 4 ranks — wall seconds",
        rows,
        ["jobs_per_s", "p50_ms", "p95_ms", "inspector_first",
         "inspector_rest"],
        key_header="regime",
    ), rows)
    report.note(f"[warm-pool+disk vs fork-per-run: {speedup:.2f}x jobs/sec]")
    report.gate(warm["inspector_rest"] == 0.0,
                "warm-pool+disk re-inspected on a cache hit")
    for regime, engine_result in runs.items():
        slug = regime.replace("+", "_").replace("-", "_")
        report.run(f"S1_serve_{slug}", engine_result, {
            "backend": regime,
            "workload": "jacobi",
            "machine": NCUBE7.name,
            "mesh_side": mesh_side,
            "njobs": njobs,
        }, {f"serve.{k}": v for k, v in by_key[regime].items()})

    # --- S2: jobs/sec vs shard count ---------------------------------
    shard_counts = (1, 2) if args.fast else (1, 2, 4)
    s2_njobs = 12 if args.fast else 24
    s2_families = 4 if args.fast else 6
    s2_side = 10 if args.fast else 12
    s2_rows, s2_details = ex.sharded_throughput(
        NCUBE7, shard_counts=shard_counts, njobs=s2_njobs,
        mesh_side=s2_side, families=s2_families)
    ncpu = os.cpu_count() or 1
    report.table("S2_sharded_throughput", ablation_table(
        f"S2  sharded fleet throughput, {s2_njobs} mixed jacobi/cg jobs "
        f"({s2_families} families), 2 ranks/shard — wall seconds",
        s2_rows,
        ["jobs_per_s", "speedup", "p50_ms", "p95_ms", "shards_used",
         "min_hit_rate", "hit_delta"],
        key_header="fleet",
    ), s2_rows, cpu_count=ncpu,
        per_shard={str(k): v for k, v in s2_details.items()})

    s2 = {r.key: r.values for r in s2_rows}
    top_k = max(shard_counts)
    s2_speedup = s2[f"{top_k}-shard"]["speedup"]
    # The per-shard cache-health half of the S2 gate holds on any
    # machine: content routing never splits a job family, so every
    # shard's disk hit rate must match what its job subset achieved on
    # the single pool (hit_delta ~ 0).
    for k in shard_counts:
        delta = s2[f"{k}-shard"]["hit_delta"]
        report.gate(delta >= -1e-9,
                    f"per-shard disk hit rate degraded at {k} "
                    f"shards: {delta:+.3f} vs the single-pool baseline")
    # The speedup half needs real cores to mean anything.
    need = 2.5 if top_k >= 4 else 1.25
    if ncpu >= 4:
        report.note(f"[{top_k}-shard vs single-pool: {s2_speedup:.2f}x "
                    f"jobs/sec (gate: >={need}x)]")
        report.gate(s2_speedup >= need,
                    f"{top_k}-shard fleet below {need}x "
                    f"single-pool throughput")
    else:
        report.note(f"[S2 speedup gate skipped: {ncpu} CPU core(s); "
                    f"measured {s2_speedup:.2f}x at {top_k} shards]")
    return report


def suite_tune(args) -> Report:
    """T1: adaptive tuner vs static layouts, gated."""
    nprocs = 4 if args.fast else 8
    nodes = 400 if args.fast else 600
    sweeps = 16
    rows, runs = ex.adaptive_vs_static(NCUBE7, nprocs=nprocs, nodes=nodes,
                                       sweeps=sweeps)
    by_key = {r.key: r.values for r in rows}
    adaptive = by_key["adaptive"]
    static_rcb = by_key["static-rcb"]
    static_bad = by_key["static-bad"]
    ratio = adaptive["steady_sweep"] / static_rcb["steady_sweep"]

    report = Report()
    report.table("T1_adaptive_vs_static", ablation_table(
        f"T1  adaptive layout tuning (repro.tune), {nodes}-node shuffled "
        f"mesh, P={nprocs}, {sweeps} sweeps — virtual seconds",
        rows,
        ["makespan", "steady_sweep", "moves", "decisions", "identical"],
        key_header="regime",
    ), rows)
    report.note(f"[adaptive steady-state sweep vs static-rcb: {ratio:.3f}x "
                f"after {adaptive['moves']:g} move(s)]")
    # The acceptance gate: the tuner must land within 15% of the static
    # oracle's steady-state sweep cost, strictly beat the layout it was
    # handed, move at most twice, and never perturb the answer.
    report.gate(ratio <= 1.15,
                f"steady-state sweep {ratio:.3f}x static-rcb (>1.15)")
    report.gate(adaptive["steady_sweep"] < static_bad["steady_sweep"],
                "adaptive did not beat static-bad steady state")
    report.gate(adaptive["moves"] <= 2, f"{adaptive['moves']:g} moves (> 2)")
    report.gate(all(r.values["identical"] == 1.0 for r in rows),
                "final arrays diverged across regimes")
    for regime, engine_result in runs.items():
        report.run(f"T1_tune_{regime.replace('-', '_')}", engine_result, {
            "workload": "jacobi-adaptive",
            "regime": regime,
            "machine": NCUBE7.name,
            "nodes": nodes,
            "nprocs": nprocs,
            "sweeps": sweeps,
        }, {f"tune.{k}": v for k, v in by_key[regime].items()})
    return report


def suite_structs(args) -> Report:
    """G1: batched vs naive DHash op throughput.

    Gates on the repro.structs acceptance bar: from P=4 up, the batched
    combining protocol must beat the naive one-exchange-per-element mode
    by >= 3x in virtual makespan on the same insert+lookup workload."""
    proc_counts = [1, 4] if args.fast else [1, 4, 8]
    n = 128 if args.fast else 256
    rows, runs = ex.structs_throughput(NCUBE7, proc_counts=proc_counts, n=n,
                                       lookups=n)
    best = max(r.values["speedup"] for r in rows if r.key >= 4)

    report = Report(headline=f"best batched speedup {best:.1f}x")
    report.table("G1_structs_throughput", ablation_table(
        f"G1  distributed-structure ops (repro.structs), {n} inserts + "
        f"{n} lookups on a DHash — batched combining vs per-element "
        "exchanges, virtual seconds",
        rows,
        ["batched_s", "naive_s", "speedup", "batched_msgs", "naive_msgs"],
        key_header="procs",
    ), rows)
    for row in rows:
        report.gate(row.key < 4 or row.values["speedup"] >= 3.0,
                    f"P={row.key}: batched speedup "
                    f"{row.values['speedup']:.2f}x (< 3.0x bar)")
    for name, engine_result in runs.items():
        report.run(f"G1_structs_{name}", engine_result, {
            "backend": "sim", "experiment": "G1_structs", "leg": name,
            "machine": NCUBE7.name,
        })
    return report


def suite_autopilot(args) -> Report:
    """P1: workload-shift recovery, gated.

    The acceptance bar (ISSUE P1): after an induced mid-stream workload
    shift, the autopilot fleet's steady-state jobs/sec must recover to
    >= 1.15x the frozen-plan fleet within the bounded job budget, with
    every job bit-identical to its frozen twin, and the promotion
    decision recorded in the repro-autopilot-v1 journal and the
    ``autopilot.*`` registry metrics."""
    nodes = 400 if args.fast else 600
    max_jobs = 16 if args.fast else 24
    tail = 4 if args.fast else 5
    rows, info = ex.autopilot_shift(NCUBE7, nprocs=2, nodes=nodes,
                                    max_jobs=max_jobs, tail=tail)
    promoted_at = info["promoted_at_job"]
    recovery = {r.key: r.values for r in rows}["autopilot"]["recovery"]
    reg = MetricsRegistry.from_fleet({"autopilot": info["autopilot"],
                                      "shards": []})

    report = Report()
    report.table("P1_autopilot_shift", ablation_table(
        f"P1  online tuning autopilot (repro.autopilot), {nodes}-node "
        f"frozen-plan Jacobi stream after a mid-stream family shift — "
        f"steady-state tail of {tail} jobs, modeled service seconds",
        rows,
        ["jobs_per_s", "tail_service_s", "tail_wall_s", "recovery"],
        key_header="fleet",
    ), rows,
        promoted_at_job=promoted_at,
        phase2_jobs=info["phase2_jobs"],
        twins_identical=info["twins_identical"],
        forced_replans=info["forced_replans"],
        decisions=info["decisions"],
        registry=reg.as_dict())
    decisions = [d.get("decision") for d in info["decisions"]]
    report.note(f"[promotion landed after phase-2 job {promoted_at} "
                f"of {info['phase2_jobs']} "
                f"({info['forced_replans']} forced replans); "
                f"decisions: {decisions}]")
    report.gate(recovery >= 1.15,
                f"steady-state recovery {recovery:.3f}x frozen (< 1.15x)")
    report.gate(promoted_at is not None,
                f"no promotion within the {max_jobs}-job budget")
    report.gate(info["twins_identical"],
                "a job's solution diverged from its frozen twin")
    report.gate("promoted" in decisions,
                "no promoted decision in the autopilot journal")
    report.gate(reg.get("autopilot.promoted", 0) >= 1,
                "autopilot.promoted metric missing from registry")
    return report


# name -> (suite function, what it measures).  `paper` runs when no suite
# flag is given and `mp` is spelled `--backend mp`; every other name is
# its own `--<name>` flag.
SUITES = {
    "paper": (suite_paper, "the paper tables, virtual seconds"),
    "mp": (suite_mp, "M1, Jacobi on real OS processes with wall-clock "
                     "run files"),
    "serve": (suite_serve, "S1/S2, serve-tier and sharded-fleet throughput"),
    "tune": (suite_tune, "T1, adaptive layout tuning vs static layouts"),
    "shm": (suite_shm, "D1, shared-memory data plane vs pickle pipes"),
    "structs": (suite_structs, "G1, batched vs naive distributed-structure "
                               "ops"),
    "autopilot": (suite_autopilot, "P1, autopilot recovery after a workload "
                                   "shift"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="python -m repro.bench",
                                 description=__doc__.split("\n\n")[0])
    ap.add_argument("--fast", action="store_true", help="small meshes only")
    ap.add_argument("--full", action="store_true",
                    help="run all 100 sweeps (no extrapolation)")
    ap.add_argument("--metrics-dir", default=None, metavar="DIR",
                    help="also write <experiment>.metrics.json files here")
    pick = ap.add_mutually_exclusive_group()
    pick.add_argument("--backend", choices=("sim", "mp"), default="sim",
                      help=f"sim: {SUITES['paper'][1]} (default); "
                           f"mp: {SUITES['mp'][1]}")
    for name, (_, text) in SUITES.items():
        if name not in ("paper", "mp"):
            pick.add_argument(
                f"--{name}", dest="suite", action="store_const", const=name,
                help=f"run the {name} suite ({text}) instead of the paper "
                     "tables")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.suite or ("mp" if args.backend == "mp" else "paper")
    t0 = time.time()
    report = SUITES[name][0](args)

    for _, text, _, _ in report.tables:
        print(text)
        print()
    for line in report.notes:
        print(line)
    for message in report.failures:
        print(f"[FAIL: {message}]")

    out = args.metrics_dir or report.default_dir
    if out:
        out = pathlib.Path(out)
        out.mkdir(parents=True, exist_ok=True)
        for stem, result, meta, extra in report.runs:
            write_run_json(result, str(out / f"{stem}.run.json"), meta=meta)
            reg = MetricsRegistry.from_run(result, extra=extra)
            (out / f"{stem}.metrics.json").write_text(
                reg.to_json(indent=2) + "\n")
        for slug, _, rows, extra in report.tables:
            # header keys first, the (long) row list last
            doc = {"experiment": slug, "fast": args.fast, **extra,
                   "rows": _rows_to_jsonable(rows)}
            (out / f"{slug}.metrics.json").write_text(
                json.dumps(doc, indent=2) + "\n")
        print(f"[metrics written to {out}]")

    tail = f": {report.headline}" if report.headline else ""
    print(f"\n[{name} suite done in {time.time() - t0:.1f}s wall{tail}]")
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
