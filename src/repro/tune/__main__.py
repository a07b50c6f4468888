"""Layout-tuning CLI: ``python -m repro.tune <command>``.

Commands
--------
``profile``   dump the per-rank :class:`LoadProfile` of a finished run —
from one ``repro-run-v1`` file or every run in a metrics directory::

    python -m repro.tune profile --run run.json
    python -m repro.tune profile --metrics-dir runs/ --json

``plan``      offline recommendation: score every candidate layout for a
shuffled unstructured-mesh Jacobi workload, with predicted per-sweep and
move costs, and say what the online tuner would do::

    python -m repro.tune plan --nodes 1200 --procs 8 --sweeps 40 -o plan.json

``explain``   actually run the workload under the adaptive tuner and
print each decision point — what the model predicted, whether the tuner
moved, and *why* it did or didn't (hysteresis, cooldown, move budget,
amortization)::

    python -m repro.tune explain --nodes 1200 --procs 8 --sweeps 24 -o run.json

``-o`` on ``explain`` writes a traced ``repro-run-v1`` file, so
``profile --run`` closes the loop on the tuner's own runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from repro.errors import KaliError


class CliError(Exception):
    """A user-facing CLI failure: printed as one line, exit status 2."""


def _machine(name: str):
    from repro.machine.cost import PRESETS

    if name not in PRESETS:
        raise CliError(
            f"unknown machine {name!r}; "
            f"choose from: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]


def _workload(args):
    """The CLI's canonical workload — a shuffled unstructured mesh (node
    order decorrelated from geometry, so naive layouts are bad) — and the
    distribution ``--layout`` starts it in; ``bad`` is the seeded
    adversarial owner map.  Returns ``(mesh, points, start_dist)``."""
    from repro.apps.jacobi import scrambled_jacobi
    from repro.distributions.block import Block
    from repro.distributions.custom import Custom
    from repro.distributions.cyclic import Cyclic

    mesh, points, bad = scrambled_jacobi(args.nodes, args.procs, args.seed)
    start = {"block": Block(), "cyclic": Cyclic(), "bad": Custom(bad)}
    return mesh, points, start[args.layout]


def cmd_profile(args) -> int:
    from repro.tune.signals import LoadProfile

    if (args.run is None) == (args.metrics_dir is None):
        raise CliError("profile needs exactly one of --run or --metrics-dir")
    if args.run is not None:
        profiles = [LoadProfile.from_run_file(args.run)]
    else:
        profiles = LoadProfile.from_metrics_dir(args.metrics_dir)
        if not profiles:
            raise CliError(
                f"no repro-run-v1 files under {args.metrics_dir!r}"
            )
    if args.json:
        docs = [p.to_dict() for p in profiles]
        print(json.dumps(docs[0] if args.run is not None else docs, indent=2))
        return 0
    for p in profiles:
        source = p.meta.get("source")
        if source:
            print(f"--- {source}")
        print(p.render_table())
    return 0


def cmd_plan(args) -> int:
    from repro.apps.jacobi import jacobi_row_weights
    from repro.tune import plan
    from repro.tune.candidates import owner_map

    machine = _machine(args.machine)
    mesh, points, spec = _workload(args)
    report = plan(
        mesh.n, args.procs, machine, mesh.adj, counts=mesh.count,
        points=points, current=owner_map(spec, mesh.n, args.procs),
        sweeps=args.sweeps, row_weights=jacobi_row_weights(mesh),
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        cur = report["current"]
        print(f"workload: {mesh.n}-node shuffled mesh on {args.procs} ranks, "
              f"{args.sweeps} sweeps, machine {machine.name}")
        print(f"current ({args.layout}): sweep={cur['sweep_time']:.6f}s "
              f"remote_refs={cur['remote_refs']} "
              f"imbalance={cur['imbalance']:.3f}")
        print(f"{'candidate':<18} {'sweep_s':>10} {'move_s':>10} "
              f"{'gain/sweep':>11} {'break_even':>10}")
        for c in report["candidates"]:
            be = (f"{c['break_even_sweeps']:.1f}"
                  if c["break_even_sweeps"] is not None else "-")
            print(f"{c['name']:<18} {c['sweep_time']:>10.6f} "
                  f"{c['move_cost']:>10.6f} {c['gain_per_sweep']:>11.6f} "
                  f"{be:>10}")
        print(f"recommendation: {report['recommendation']} "
              f"({report['reason']})")
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.out}")
    return 0


def cmd_explain(args) -> int:
    from repro.apps.jacobi import JACOBI_ARRAYS, build_jacobi
    from repro.tune import AdaptiveRunner, TunePolicy, TuneSpec

    machine = _machine(args.machine)
    mesh, points, spec_dist = _workload(args)
    prog = build_jacobi(mesh, args.procs, machine=machine, dist=spec_dist,
                        trace=args.out is not None)
    runner = AdaptiveRunner(
        TuneSpec(arrays=JACOBI_ARRAYS, table="adj", count="count",
                 points=points),
        TunePolicy(interval=args.interval, warmup=args.warmup,
                   max_moves=args.max_moves, cooldown=args.cooldown,
                   min_improvement=args.min_improvement),
    )
    result = runner.run(prog.ctx, [prog.copy_loop, prog.relax_loop],
                        args.sweeps)
    report = result.tune_report
    print(f"workload: {mesh.n}-node shuffled mesh on {args.procs} ranks, "
          f"start layout {args.layout!r}, {args.sweeps} sweeps")
    print(f"{'sweep':>5} {'best':<18} {'cur_s':>10} {'best_s':>10} "
          f"{'move_s':>10} {'verdict':<16}")
    for ev in report["events"]:
        print(f"{ev['sweep']:>5} {ev['best']:<18} "
              f"{ev['current_cost']:>10.6f} {ev['best_cost']:>10.6f} "
              f"{ev['move_cost']:>10.6f} "
              f"{('MOVED' if ev['moved'] else ev['reason']):<16}")
    final = report["layout"]["name"] if report["layout"] else args.layout
    print(f"moves: {report['moves']}/{args.max_moves}  "
          f"decisions: {report['decisions']}  final layout: {final}  "
          f"makespan: {result.makespan:.6f}s")
    for ev in report["events"]:
        if ev["moved"]:
            payback = (ev["move_cost"] / ev["gain_per_sweep"]
                       if ev["gain_per_sweep"] > 0 else float("inf"))
            print(f"moved at sweep {ev['sweep']}: predicted "
                  f"{ev['gain_per_sweep']:.6f}s/sweep win pays back the "
                  f"{ev['move_cost']:.6f}s move in {payback:.1f} sweeps "
                  f"({ev['remaining']} remained)")
    if args.out is not None:
        from repro.obs.registry import write_run_json

        meta = {
            "workload": "jacobi-adaptive",
            "machine": machine.name,
            "procs": args.procs,
            "nodes": args.nodes,
            "sweeps": args.sweeps,
            "layout": args.layout,
            "tune_moves": report["moves"],
        }
        write_run_json(result.engine, args.out, meta=meta)
        print(f"wrote {args.out} (inspect with: python -m repro.tune "
              f"profile --run {args.out})")
    return 0


def _add_workload_flags(p) -> None:
    p.add_argument("--nodes", type=int, default=1200,
                   help="unstructured-mesh node count")
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sweeps", type=int, default=40)
    p.add_argument("--layout", default="bad",
                   choices=("block", "cyclic", "bad"),
                   help="the starting layout the tuner sees")
    p.add_argument("--machine", default="NCUBE/7",
                   help="cost-model preset name (NCUBE/7, iPSC/2, "
                        "modern-cluster, ideal)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.tune",
        description="profile-guided adaptive layout tuning",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    prof = sub.add_parser("profile",
                          help="dump the per-rank LoadProfile of a run")
    prof.add_argument("--run", default=None, help="one repro-run-v1 file")
    prof.add_argument("--metrics-dir", default=None,
                      help="directory of repro-run-v1 files")
    prof.add_argument("--json", action="store_true")
    prof.set_defaults(fn=cmd_profile)

    pl = sub.add_parser("plan", help="offline layout recommendation")
    _add_workload_flags(pl)
    pl.add_argument("--json", action="store_true")
    pl.add_argument("-o", "--out", default=None,
                    help="write the full plan report as JSON")
    pl.set_defaults(fn=cmd_plan)

    ex = sub.add_parser("explain",
                        help="run the adaptive tuner and explain each "
                             "decision")
    _add_workload_flags(ex)
    ex.add_argument("--interval", type=int, default=4)
    ex.add_argument("--warmup", type=int, default=4)
    ex.add_argument("--cooldown", type=int, default=4)
    ex.add_argument("--max-moves", type=int, default=2)
    ex.add_argument("--min-improvement", type=float, default=0.05)
    ex.add_argument("-o", "--out", default=None,
                    help="write a traced repro-run-v1 file")
    ex.set_defaults(fn=cmd_explain)
    return ap


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, KaliError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
