"""Tests of the benchmark harness itself (not collected by tier-1).

Run with ``python -m pytest benchmarks/perf -q``.  What they hold:

* the tracer is transparent — a wrapped generator forwards ``send`` /
  ``throw`` / return values unchanged, and with every wrapper installed
  array contents, virtual clocks and traffic are bit-identical to an
  untraced run, on the simulator and on a 2-rank pool;
* span self-time arithmetic, and the percentile / sample-count rule;
* the same ``--seed`` gives byte-identical inputs;
* rebindings are restored after a traced run;
* ``BENCHMARK.json`` repeats the harness's own metric tables, and
  ``--compare`` reaches the documented verdicts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import run as cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACER  # noqa: E402


@pytest.fixture
def clean_tracer():
    TRACER.uninstall()
    TRACER.reset()
    yield TRACER
    TRACER.uninstall()
    TRACER.reset()


# --- generator wrapper transparency -------------------------------------------


def _echo():
    """Yields what it is sent; records what is thrown in; returns a value."""
    seen = []
    got = yield "first"
    while got != "stop":
        try:
            got = yield ("echo", got)
        except KeyError as exc:
            seen.append(exc.args[0])
            got = yield ("caught", exc.args[0])
    return ("done", seen)


def _drain(gen):
    """Drive ``gen`` through a fixed script; returns everything observed."""
    log = [gen.send(None), gen.send(1), gen.send("two")]
    log.append(gen.throw(KeyError("boom")))
    log.append(gen.send(3))
    try:
        gen.send("stop")
    except StopIteration as stop:
        log.append(stop.value)
    return log


def test_wrapped_generator_forwards_send_throw_and_return(clean_tracer):
    tallied = []
    traced = tracer.wrap_genfn("layer", _echo, tallied.append)
    assert _drain(traced()) == _drain(_echo())
    assert tallied == ["first", ("echo", 1), ("echo", "two"),
                       ("caught", "boom"), ("echo", 3)]
    calls, own = clean_tracer.acc["layer"]
    assert calls == 1 and own > 0
    assert [s[0] for s in clean_tracer.spans] == ["layer"]


def test_wrapped_generator_propagates_uncaught_throw_and_close(clean_tracer):
    closed = []

    def inner():
        try:
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = tracer.wrap_genfn("layer", inner)()
    assert next(gen) == 1
    with pytest.raises(ValueError):
        gen.throw(ValueError("not handled inside"))
    assert closed == [True]
    gen = tracer.wrap_genfn("layer", inner)()
    next(gen)
    gen.close()
    assert closed == [True, True]
    assert all(s is not None for s in clean_tracer.spans)   # spans closed


def test_nested_generators_split_busy_time(clean_tracer):
    def spin(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def child():
        spin(0.02)
        yield "c"
        spin(0.02)

    def parent():
        spin(0.01)
        yield from tracer.drive("child", child())
        yield "p"
        spin(0.01)

    t0 = time.perf_counter()
    for _ in tracer.drive("parent", parent()):
        spin(0.03)          # the consumer's time belongs to neither
    wall = time.perf_counter() - t0
    parent_s, child_s = TRACER.acc["parent"][1], TRACER.acc["child"][1]
    assert child_s == pytest.approx(0.04, abs=0.01)
    assert parent_s == pytest.approx(0.02, abs=0.01)
    assert parent_s + child_s < wall - 0.05


# --- span arithmetic -----------------------------------------------------------


def test_span_self_time_is_duration_minus_children(clean_tracer):
    def leaf():
        time.sleep(0.01)

    leaf_t = tracer.wrap_fn("leaf", leaf)

    def mid():
        leaf_t()
        leaf_t()
        time.sleep(0.005)

    mid_t = tracer.wrap_fn("mid", mid)
    tracer.wrap_fn("root", lambda: (mid_t(), time.sleep(0.005)))()

    spans = TRACER.spans
    names = [s[0] for s in spans]
    assert names == ["root", "mid", "leaf", "leaf"]
    assert [s[3] for s in spans] == [None, 0, 1, 1]
    # the online self_s equals the definition: duration minus children
    for online, offline in zip((s[5] for s in spans),
                               tracer.self_times(spans)):
        assert online == pytest.approx(offline, abs=1e-9)
    # self times of a tree add up to the root's duration
    assert sum(s[5] for s in spans) == pytest.approx(
        spans[0][2] - spans[0][1], abs=1e-9)
    assert TRACER.acc["leaf"][0] == 2


def test_window_is_the_difference_of_snapshots(clean_tracer):
    TRACER.count("msgs", 3)
    TRACER.charge("layer", 0.5, calls=1)
    before = TRACER.snapshot()
    TRACER.count("msgs", 4)
    TRACER.count("new", 1)
    TRACER.charge("layer", 0.25, calls=2)
    got = tracer.window(before, TRACER.snapshot())
    assert got["counts"] == {"msgs": 4, "new": 1}
    assert got["acc"] == {"layer": (2, 0.25)}


def test_child_process_harvest_merges_under_parent_span(clean_tracer):
    TRACER.charge("mine", 1.0, calls=1)
    TRACER.spans.append(("mine", 0.0, 1.0, None, None, 1.0))
    drained = ((("theirs", 2, 0.5),), (("msgs", 7),),
               (("rank", 0.1, 0.9, None, 4, 0.3),
                ("theirs", 0.2, 0.7, 0, 4, 0.5)))
    TRACER.merge(drained, parent=0)
    assert TRACER.acc["theirs"] == [2, 0.5]
    assert TRACER.counts["msgs"] == 7
    assert TRACER.remote_s == 0.5
    assert [s[3] for s in TRACER.spans] == [None, 0, 1]


# --- percentile rule -----------------------------------------------------------


def test_percentile_is_nearest_rank():
    data = list(range(1, 101))
    assert measure.percentile(data, 50) == 50
    assert measure.percentile(data, 90) == 90
    assert measure.percentile(data, 100) == 100
    assert measure.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        measure.percentile([], 50)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert measure.samples_beyond(99, 90) < measure.MIN_BEYOND
    assert measure.samples_beyond(100, 90) == measure.MIN_BEYOND
    assert measure.samples_beyond(measure.MIN_OPS, 90) >= measure.MIN_BEYOND
    assert measure.samples_beyond(measure.MIN_OPS, 99) < measure.MIN_BEYOND
    assert measure.samples_beyond(120, 90) == 12


def test_aggregate_reports_best_pass_and_how_well_it_is_confirmed():
    passes = [{"ms": 10.0, "rate": 50.0}, {"ms": 12.0, "rate": 40.0},
              {"ms": 10.5, "rate": 48.0}]
    got = measure.aggregate(passes, [("ms", "lower"), ("rate", "higher")])
    assert got["ms"]["value"] == 10.0
    assert got["ms"]["spread"] == pytest.approx(0.05)
    assert got["ms"]["passes"] == [10.0, 12.0, 10.5]
    assert got["rate"]["value"] == 50.0
    assert got["rate"]["spread"] == pytest.approx(0.04)


def test_tree_cpu_counts_live_children():
    import multiprocessing

    def burn():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    before = measure.tree_cpu_seconds()
    child = multiprocessing.get_context("fork").Process(target=burn)
    child.start()
    time.sleep(0.25)
    during = measure.tree_cpu_seconds()
    child.join(5)
    assert not child.is_alive()
    assert during - before > 0.1


# --- seeded inputs -------------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs():
    def snapshot(seed):
        mesh, points = inputs.unstructured_mesh(512, seed)
        keys, vals = inputs.table_entries(1000, seed)
        batches = inputs.lookup_batches(keys, seed, 256, 3)
        rounds = [inputs.churn_round(seed, r, 64, 4) for r in range(6)]
        stream = inputs.job_stream(seed)
        return (mesh.adj.tobytes(), mesh.coef.tobytes(), points.tobytes(),
                inputs.initial_values(512, seed).tobytes(),
                keys.tobytes(), vals.tobytes(),
                b"".join(b.tobytes() for b in batches),
                b"".join(v.tobytes() for rnd in rounds
                         for _k, v in sorted(rnd.items())),
                [next(stream) for _ in range(70)],
                json.dumps(inputs.job_families(), sort_keys=True))

    assert snapshot(5) == snapshot(5)
    assert snapshot(5) != snapshot(6)


def test_job_stream_is_balanced_and_meshes_have_one_width():
    nfam = len(inputs.job_families())
    stream = inputs.job_stream(3)
    block = [next(stream) for _ in range(nfam * 10)]
    assert all(block.count(f) == 10 for f in range(nfam))
    widths = {inputs.unstructured_mesh(400, s)[0].width for s in range(5)}
    assert widths == {inputs.MESH_WIDTH}


def test_churn_rounds_insert_fresh_keys_and_delete_old_batches():
    rounds = [inputs.churn_round(9, r, 32, 3) for r in range(6)]
    inserted = np.concatenate([r["insert_keys"] for r in rounds])
    assert len(set(inserted.tolist())) == len(inserted)
    assert len(rounds[2]["delete_keys"]) == 0
    assert rounds[4]["delete_keys"].tolist() == \
        rounds[1]["insert_keys"].tolist()
    alive = set(np.concatenate(
        [r["insert_keys"] for r in rounds[3:6]]).tolist())
    assert set(rounds[5]["add_keys"].tolist()) <= alive


# --- tracer on == tracer off ----------------------------------------------------


def _figures(result, solution):
    return workloads.run_figures(result, solution=workloads.sha(solution))


def _sim_jacobi():
    from repro.apps import jacobi
    from repro.distributions.custom import Custom
    from repro.meshes import partition

    mesh, points = inputs.unstructured_mesh(600, 2)
    owners = partition.coordinate_bisection(points, 8)
    prog = jacobi.build_jacobi(mesh, 8, dist=Custom(owners),
                               initial=inputs.initial_values(600, 2))
    result = prog.run(4)
    return _figures(result.engine, prog.solution), result.engine.clocks


def _sim_kali_and_dht():
    from repro.lang import interp
    from repro.structs import dhash

    mesh, _points = inputs.unstructured_mesh(300, 4)
    got = interp.compile_kali(inputs.KALI_JACOBI).run(
        nprocs=4, consts={"n": 300, "width": mesh.width, "nsweeps": 2},
        inputs={"a": inputs.initial_values(300, 4), "count": mesh.count,
                "adj": mesh.adj + 1, "coef": mesh.coef})
    keys, vals = inputs.table_entries(500, 4)
    table = dhash.DHash(4, nbuckets=9)
    table.insert_many(keys, vals)
    table.add_many(keys[:100], np.ones(100))
    found = table.lookup_many(inputs.lookup_batches(keys, 4, 200, 1)[0])
    table.delete_many(keys[:50])
    snap = table.snapshot()
    return (_figures(got.timing.engine, got.arrays["a"]),
            workloads.run_figures(table.merged_result()),
            workloads.sha(found.found, found.values, snap["keys"],
                          snap["values"], snap["owners"]))


def test_tracer_is_invisible_on_the_simulator(clean_tracer):
    plain = (_sim_jacobi(), _sim_kali_and_dht())
    layers.install()
    try:
        traced = (_sim_jacobi(), _sim_kali_and_dht())
    finally:
        TRACER.uninstall()
    assert traced == plain
    # ... and it did see the layers at work
    for name in ("runtime.executor", "runtime.inspector", "comm.crystal",
                 "machine.engine.run", "lang.run", "structs.dhash.apply",
                 "structs.exchange.route", "runtime.executor.kernel", "rank"):
        assert TRACER.acc[name][0] > 0, name
    assert TRACER.counts["engine.ops"] > 0
    assert TRACER.counts["executor.msgs"] > 0
    assert TRACER.counts["count.inspector_runs"] > 0


def _pool_jacobi(cache_dir):
    from repro.apps import jacobi
    from repro.meshes import regular
    from repro.serve.pool import RankPool

    mesh = regular.five_point_grid(24, 24)
    init = inputs.initial_values(mesh.n, 8)
    out = []
    with RankPool(2) as pool:
        for _ in range(2):      # cold (inspect + store), then disk hits
            prog = jacobi.build_jacobi(mesh, 2, initial=init, pool=pool,
                                       schedule_cache_dir=cache_dir)
            engine = prog.run(3).engine
            figures = workloads.run_figures(engine)
            del figures["virtual_s"]           # wall seconds on real ranks
            for name in [c for c in figures["counters"] if "shm_hwm" in c]:
                del figures["counters"][name]  # arena high-water mark
            out.append((figures, workloads.sha(prog.solution),
                        [type(v).__name__ for v in engine.values]))
    return out


def test_tracer_is_invisible_on_a_two_rank_pool(clean_tracer, tmp_path):
    plain = _pool_jacobi(str(tmp_path / "plain"))
    layers.install()
    try:
        traced = _pool_jacobi(str(tmp_path / "traced"))
    finally:
        TRACER.uninstall()
    assert traced == plain
    # the ranks' share came home through the harvest
    assert TRACER.remote_s > 0
    assert TRACER.acc["runtime.executor"][0] > 0
    assert TRACER.counts["count.executor_elems_sent"] > 0
    pool_runs = [i for i, s in enumerate(TRACER.spans)
                 if s[0] == "serve.pool.run"]
    ranks = [s for s in TRACER.spans if s[0] == "rank"]
    assert len(ranks) == 2 * len(pool_runs)
    assert {s[3] for s in ranks} == set(pool_runs)


def test_install_rebinds_and_uninstall_restores(clean_tracer):
    import repro.core.context as context
    import repro.serve.server as server
    from repro.machine.engine import Engine
    from repro.serve.pool import RankPool
    from repro.structs.dhash import LocalStore

    def bindings():
        return (context.run_executor, context.run_inspector,
                vars(Engine)["run"], vars(RankPool)["run"],
                vars(LocalStore)["apply"], vars(server.JobServer)["submit"],
                dict(server.JOB_KINDS))

    before = bindings()
    layers.install()
    during = bindings()
    assert TRACER.installed
    assert all(a is not b for a, b in zip(before[:-1], during[:-1]))
    assert all(during[-1][k] is not v for k, v in before[-1].items())
    TRACER.uninstall()
    assert not TRACER.installed
    after = bindings()
    assert all(a is b for a, b in zip(before[:-1], after[:-1]))
    assert after[-1] == before[-1]


def test_patch_of_a_missing_target_fails_loudly(clean_tracer):
    import repro.core.context as context

    with pytest.raises(KeyError):
        TRACER.patch(context, "no_such_entry_point", lambda orig: orig)
    assert not TRACER.installed


# --- the contract files ----------------------------------------------------------


def test_benchmark_json_repeats_the_harness_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert doc["paths"] == ["benchmarks/perf"]
    assert doc["run_seconds"] == cli.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(name, workloads.WHY[name]) for name in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] == [
                row for row in harness.END_TO_END
                if row[0] not in harness.UNGATED]
    assert set(harness.UNGATED) <= {name for name, _u, _b in layers.PER_LAYER}
    assert [(m["name"], m["unit"], m["better"])
            for m in doc["per_layer"]] == layers.PER_LAYER
    assert "setup_s" in [row[0] for row in harness.END_TO_END]
    assert set(harness.load_expected()) == set(workloads.WORKLOADS)


def _result(values, spread=0.01):
    metrics = {name: {"value": values.get(name, 10.0), "spread": spread,
                      "passes": [values.get(name, 10.0)] * 3}
               for name, _u, _b, _bound in harness.END_TO_END}
    return {"comparable": True,
            "workloads": {"w": {"metrics": metrics, "fail_frac": 0.0}}}


def test_compare_verdicts(tmp_path, capsys):
    def verdicts(a, b):
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(a))
        pb.write_text(json.dumps(b))
        code = cli.compare(str(pa), str(pb))
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.startswith("w ")]
        return code, {row[1]: row[-1] for row in rows}

    bound = {name: b for name, _u, _better, b in harness.END_TO_END}
    base = _result({})
    code, got = verdicts(base, _result({}))
    assert code == 0 and set(got.values()) == {"ok"}

    # lower-is-better beyond its bound, higher-is-better beyond its bound
    code, got = verdicts(base, _result({
        "op_p50_ms": 10.0 * (1 + bound["op_p50_ms"] + 0.05),
        "ops_per_s": 10.0 * (1 - bound["ops_per_s"] - 0.05)}))
    assert code == 1
    assert got["op_p50_ms"] == "worse" and got["ops_per_s"] == "worse"
    assert got["op_p90_ms"] == "ok"

    # better, or worse within the bound, is ok
    code, got = verdicts(base, _result({
        "op_p50_ms": 10.0 * (1 + bound["op_p50_ms"] - 0.05),
        "ops_per_s": 20.0, "setup_s": 5.0}))
    assert code == 0 and set(got.values()) == {"ok"}

    # runner-up far from the best pass: unresolved, not ok and not worse
    noisy = _result({"op_p50_ms": 14.0}, spread=0.5)
    code, got = verdicts(base, noisy)
    assert code == 0 and got["op_p50_ms"] == "unresolved"
    # ... unless every pass of B beats every pass of A
    clear = _result({"op_p50_ms": 5.0}, spread=0.5)
    code, got = verdicts(base, clear)
    assert got["op_p50_ms"] == "ok"

    worse_fail = _result({})
    worse_fail["workloads"]["w"]["fail_frac"] = 0.01
    code, got = verdicts(base, worse_fail)
    assert code == 1 and got["fail_frac"] == "worse"


def test_benchmark_without_the_program_exits_nonzero(tmp_path):
    """In a directory holding only BENCHMARK.json and benchmarks/perf the
    command must fail without printing a result."""
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        command = json.load(fh)["command"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        command + ["--workload", "kali-cold-sim", "--seed", "1",
                   "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
