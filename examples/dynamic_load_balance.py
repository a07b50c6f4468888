#!/usr/bin/env python
"""Dynamic load balancing via the adaptive layout tuner (paper §6).

The paper closes: "We also plan to look at more complex example programs,
including those requiring dynamic load balancing."  This example builds
that future: an unstructured-mesh Jacobi solver *starts* with a poor
decomposition (block over shuffled node ids) and hands the sweep loop to
:class:`repro.tune.AdaptiveRunner`.  Every few sweeps the tuner tallies
the communication each candidate layout would cost, allreduces the
evidence, and — once the predicted win amortizes the data motion plus
re-inspection — redistributes all five arrays to the RCB partition
mid-run.  The cached schedules invalidate automatically, the inspector
re-runs once under the new layout, and the remaining sweeps run faster
because far fewer mesh edges cross processor boundaries.

Earlier revisions of this example hand-rolled the measure → decide →
redistribute loop; the tuner now is that loop, and this example asserts
it rediscovers the same RCB-beats-block verdict on its own.

Run:  python examples/dynamic_load_balance.py
"""

import numpy as np

from repro.apps.jacobi import JACOBI_ARRAYS, build_jacobi
from repro.machine.cost import NCUBE7
from repro.meshes.partition import coordinate_bisection, edge_cut
from repro.meshes.regular import reference_sweep
from repro.meshes.unstructured import random_unstructured_mesh
from repro.tune import AdaptiveRunner, TunePolicy, TuneSpec

NODES = 3000
P = 16
SWEEPS = 40


def main() -> None:
    # Shuffle node ids so "block by id" is a genuinely bad partition —
    # the situation a solver faces after adaptive refinement.
    mesh, points = random_unstructured_mesh(NODES, seed=21, jitter=0.45,
                                            locality_sort=False)
    rng = np.random.default_rng(4)
    init = rng.random(mesh.n)

    block_owners = (np.arange(mesh.n) * P) // mesh.n
    rcb_owners = coordinate_bisection(points, P)
    print(f"edge cut, block-by-id: {edge_cut(mesh.adj, mesh.count, block_owners)}")
    print(f"edge cut, RCB:         {edge_cut(mesh.adj, mesh.count, rcb_owners)}")
    print()

    prog = build_jacobi(mesh, P, machine=NCUBE7, initial=init)
    runner = AdaptiveRunner(
        TuneSpec(arrays=JACOBI_ARRAYS, table="adj", count="count",
                 points=points),
        TunePolicy(interval=4, warmup=4, max_moves=2),
    )
    res = runner.run(prog.ctx, [prog.copy_loop, prog.relax_loop], SWEEPS)
    report = res.tune_report

    # Verify numerics against the sequential oracle: redistribution moves
    # data, it never changes it, so the tuned run must match exactly.
    ref = init.copy()
    for _ in range(SWEEPS):
        ref = reference_sweep(mesh, ref)
    assert np.allclose(prog.solution, ref), "solution must match oracle"

    # The tuner should rediscover on its own what the hand-rolled version
    # of this example asserted by construction: one move, to RCB.
    assert report["moves"] == 1, report["events"]
    assert report["layout"]["kind"] == "custom", report["layout"]
    assert np.array_equal(report["layout"]["owners"], rcb_owners), \
        "tuner should land on the RCB partition"

    for ev in report["events"]:
        mark = "MOVE ->" if ev["moved"] else "stay   "
        print(f"sweep {ev['sweep']:3d}: {mark} {ev['best']:<10s} "
              f"predicted gain {ev['gain_per_sweep'] * 1e3:7.2f} ms/sweep, "
              f"move cost {ev['move_cost'] * 1e3:7.1f} ms  [{ev['reason']}]")
    print()

    move_sweep = next(e["sweep"] for e in report["events"] if e["moved"])
    times = report["sweep_times"]
    before = times[:move_sweep - 1]              # bad layout, warm schedules
    after = times[move_sweep:]                   # RCB, re-inspection absorbed
    per_before = float(np.mean(before[1:]))      # drop the inspector sweep
    per_after = float(np.mean(after[1:]))
    print(f"per-sweep virtual time before the move: {per_before * 1e3:8.1f} ms")
    print(f"per-sweep virtual time after the move:  {per_after * 1e3:8.1f} ms")
    print(f"\nthe tuner's move speeds sweeps up {per_before / per_after:.2f}x.")
    stats = res.cache_stats()
    print(f"schedule cache: {stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['invalidations']} invalidations (the tuner's moves)")


if __name__ == "__main__":
    main()
