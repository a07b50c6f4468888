#!/usr/bin/env python3
"""The repository's performance benchmark — one command, four uses.

``run.py --workload W --seed S --seconds R --trace 0|1``
    One measurement of one workload (what ``BENCHMARK.json`` names).
    ``--trace 0``: three fresh passes of R/3 s, each end-to-end metric
    the best of its per-pass values.  ``--trace 1``: an untraced and a
    traced pass of R/2 s; prints the per-layer metrics.  The last line
    of stdout is ``{"correct", "attempted", "failed", "metrics"}``.

``run.py [--seed S] [--seconds R] [--trace] [--quick] [--out FILE]``
    The full set: three interleaved rounds over all six workloads
    (w1..w6, w1..w6, w1..w6), a table of every metric with its unit,
    spread and op count, and a JSON result.

``run.py --compare A.json B.json``
    B against A, one row per workload x end-to-end metric, with the
    bound and a verdict; exits 1 on any ``worse``.

``run.py --update-expected``
    Re-pin ``expected.json`` from the canaries of the current tree.

Exit status is non-zero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
RUN_SECONDS = 15
QUICK_SECONDS = 1.0


def _need_program() -> None:
    """The benchmark measures the tree it sits in; without it, fail."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"error: no program to benchmark at {SRC}/repro")
    sys.path.insert(0, SRC)


def _units():
    import harness
    import layers

    units = {name: unit for name, unit, _b, _bound in harness.END_TO_END}
    units.update({name: unit for name, unit, _b in layers.PER_LAYER})
    return units


# --- modes -------------------------------------------------------------------


def contract(args) -> int:
    import harness

    units = _units()
    if args.trace:
        got = harness.trace_workload(args.workload, args.seed, args.seconds)
        values = got["layers"]
    else:
        got = harness.measure_workload(args.workload, args.seed, args.seconds)
        values = {k: v["value"] for k, v in got["metrics"].items()
                  if k not in harness.UNGATED}
    for note in got["notes"]:
        print(f"check failed: {note}", file=sys.stderr)
    correct = got["failed"] == 0 and got["pin_ok"]
    print(json.dumps({
        "correct": correct,
        "attempted": got["attempted"], "failed": got["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


def full_set(args) -> int:
    import harness
    from workloads import WHY, WORKLOADS

    units = _units()
    seconds = QUICK_SECONDS * harness.PASSES if args.quick else args.seconds
    rounds = 1 if args.quick else harness.PASSES
    started = time.time()
    passes = {name: [] for name in WORKLOADS}
    for rnd in range(rounds):
        for name in WORKLOADS:
            print(f"round {rnd + 1}/{rounds}  {name} ...", file=sys.stderr)
            passes[name].append(harness.spawn_pass(
                name, args.seed, seconds / harness.PASSES, quick=args.quick))
    result = {
        "schema": "repro-perf-v1", "seed": args.seed,
        "seconds_per_pass": seconds / harness.PASSES, "passes": rounds,
        "comparable": not args.quick,
        "workloads": {},
    }
    ok = True
    for name, runs in passes.items():
        folded = harness.fold(runs)
        ok = ok and folded["failed"] == 0 and folded["pin_ok"]
        result["workloads"][name] = {"why": WHY[name], **folded}
        print(f"\n{name}  ({folded['attempted']} ops, "
              f"{folded['samples_per_pass']} samples/pass, "
              f"fail_frac {folded['fail_frac']:.4g} ratio)")
        for metric, agg in folded["metrics"].items():
            print(f"  {metric:<16}{agg['value']:>14.4f} {units[metric]:<6}"
                  f" spread {agg['spread']:.3f}")
        for note in folded["notes"]:
            print(f"  check failed: {note}")
    if args.trace:
        for name in WORKLOADS:
            print(f"trace  {name} ...", file=sys.stderr)
            spans = (f"{os.path.splitext(args.out)[0]}.{name}.spans.json"
                     if args.out else None)
            # two passes (untraced, traced) of the same length as above
            got = harness.trace_workload(name, args.seed, seconds * 2 / 3,
                                         quick=args.quick, spans_out=spans)
            ok = ok and got["failed"] == 0 and got["pin_ok"]
            result["workloads"][name]["layers"] = got["layers"]
            print(f"\n{name}  per-layer (traced "
                  f"{got['traced_ops_per_s']:.2f} op/s, untraced "
                  f"{got['plain_ops_per_s']:.2f} op/s)")
            for metric, value in got["layers"].items():
                print(f"  {metric:<36}{value:>16.4f} {units[metric]}")
    result["wall_s"] = time.time() - started
    # The benchmark defines a baseline; it asserts no gain.
    result["claim"] = None
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    print(f"\n{'all output checks passed' if ok else 'OUTPUT CHECKS FAILED'}"
          f" ({result['wall_s']:.0f} s)")
    return 0 if ok else 1


def compare(path_a: str, path_b: str) -> int:
    """B against A.  ``worse``: B's value is beyond the bound on the
    wrong side of A's.  ``unresolved``: on either side the best pass and
    its runner-up disagree by more than the bound — the quiet-machine
    floor was not reached twice, so neither ``ok`` nor ``worse`` can be
    read off the values — unless every pass of B beats every pass of A."""
    import harness

    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for side, path in ((a, path_a), (b, path_b)):
        if not side.get("comparable", False):
            print(f"warning: {path} is a --quick run; not comparable")
    worse = 0
    print(f"{'workload':<20}{'metric':<15}{'A':>12}{'B':>12}{'delta':>9}"
          f"{'bound':>7}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<20}missing from {path_b}")
            worse += 1
            continue
        for metric, _unit, better, bound in harness.END_TO_END:
            ma, mb = wa["metrics"][metric], wb["metrics"][metric]
            va, vb = ma["value"], mb["value"]
            sign = 1.0 if better == "lower" else -1.0
            delta = (vb - va) / va if va else 0.0
            if max(ma["spread"], mb["spread"]) > bound:
                b_wins = (max(mb["passes"]) < min(ma["passes"])
                          if better == "lower"
                          else min(mb["passes"]) > max(ma["passes"]))
                verdict = "ok" if b_wins else "unresolved"
            else:
                verdict = "worse" if sign * delta > bound else "ok"
            worse += verdict == "worse"
            print(f"{name:<20}{metric:<15}{va:>12.4f}{vb:>12.4f}"
                  f"{delta:>+9.3f}{bound:>7.2f}  {verdict}")
        fa, fb = wa["fail_frac"], wb["fail_frac"]
        verdict = "worse" if fb > fa else "ok"   # bound 0, absolute
        worse += verdict == "worse"
        print(f"{name:<20}{'fail_frac':<15}{fa:>12.4f}{fb:>12.4f}"
              f"{fb - fa:>+9.3f}{0:>7.2f}  {verdict}")
    return 1 if worse else 0


def update_expected(seed: int) -> int:
    import harness
    from workloads import WORKLOADS

    pins = {}
    for name in WORKLOADS:
        print(f"pinning {name} ...", file=sys.stderr)
        pins[name] = harness.spawn_pass(name, seed, QUICK_SECONDS,
                                        quick=True)["pin"]
    with open(harness.EXPECTED, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {harness.EXPECTED}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="measure one workload (contract mode)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="timed seconds per measurement of one workload")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="also (full set) or instead (--workload) make the "
                         "traced per-layer run")
    ap.add_argument("--quick", action="store_true",
                    help="smoke mode: one short pass per workload, reduced "
                         "op counts, result stamped comparable=false")
    ap.add_argument("--out", help="write the full-set result JSON here")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--update-expected", action="store_true")
    # internal: the child side of harness.spawn_pass
    ap.add_argument("--pass", dest="pass_name", help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--spans-out", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        sys.path.insert(0, SRC)
        return compare(*args.compare)
    _need_program()
    if args.pass_name:
        import harness

        print(json.dumps(harness.run_pass(
            args.pass_name, args.seed, args.seconds, bool(args.trace),
            args.quick, args.spawned_at or time.monotonic(),
            spans_out=args.spans_out)))
        return 0
    if args.update_expected:
        return update_expected(args.seed)
    if args.workload:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            ap.error(f"unknown workload {args.workload!r} "
                     f"(have: {', '.join(WORKLOADS)})")
        return contract(args)
    return full_set(args)


if __name__ == "__main__":
    sys.exit(main())
