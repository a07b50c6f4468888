"""``python -m repro.serve`` — sharded job-server CLI over the unix socket.

::

    python -m repro.serve start  --nranks 4 --shards 2 \\
                                 --socket /tmp/repro.sock \\
                                 --cache-dir /tmp/schedcache
    python -m repro.serve submit --socket /tmp/repro.sock --kind jacobi \\
                                 --spec '{"rows": 16, "sweeps": 10}' \\
                                 --tenant alice
    python -m repro.serve stat   --socket /tmp/repro.sock
    python -m repro.serve scale  --socket /tmp/repro.sock --shards 4
    python -m repro.serve drain  --socket /tmp/repro.sock
    python -m repro.serve stop   --socket /tmp/repro.sock

``start`` runs in the foreground (background it with ``&`` or a service
manager) behind the asyncio front end.  Every other command is a thin
JSON-lines client; ``--json`` prints raw responses for scripting.
"""

from __future__ import annotations

import argparse
import json
import sys


def _add_socket(p: argparse.ArgumentParser) -> None:
    p.add_argument("--socket", required=True,
                   help="unix socket path of the server")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="sharded warm rank-pool job server",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("start", help="run a server in the foreground")
    _add_socket(p)
    p.add_argument("--nranks", type=int, default=4)
    p.add_argument("--shards", type=int, default=1,
                   help="rank-pool shards behind the router")
    p.add_argument("--policy", choices=("fifo", "priority"), default="fifo")
    p.add_argument("--cache-dir", default=None,
                   help="root of the persistent schedule cache "
                        "(each shard keeps a subdirectory)")
    p.add_argument("--metrics-dir", default=None,
                   help="write one repro-run-v1 file per job here")
    p.add_argument("--tune-dir", default=None,
                   help="directory of the learned layout-plan store "
                        "(repro.tune warm starts, shared by the fleet)")
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--job-timeout", type=float, default=120.0,
                   help="watchdog bound of every job on a shard, seconds")
    p.add_argument("--retry-budget", type=int, default=2,
                   help="re-dispatches allowed per job after pool crashes")
    p.add_argument("--max-pending", type=int, default=None,
                   help="fleet-wide queued-job bound (shed past it)")
    p.add_argument("--shard-depth", type=int, default=None,
                   help="per-shard queue-depth bound (shed past it)")
    p.add_argument("--tenant-weight", action="append", default=[],
                   metavar="TENANT=W",
                   help="fair-queueing weight for a tenant (repeatable)")
    p.add_argument("--tenant-quota", action="append", default=[],
                   metavar="TENANT=N",
                   help="max queued jobs for a tenant (repeatable)")
    p.add_argument("--autoscale", action="store_true",
                   help="grow/shrink the fleet on sustained queue depth")
    p.add_argument("--max-shards", type=int, default=4,
                   help="autoscaler ceiling (with --autoscale)")
    p.add_argument("--autopilot", action="store_true",
                   help="run the online tuning daemon (drift detection, "
                        "shadow re-planning, A/B plan promotion; needs "
                        "--tune-dir)")

    p = sub.add_parser("submit", help="submit one job")
    _add_socket(p)
    p.add_argument("--kind", required=True,
                   help="job kind (jacobi, cg, kali, ...)")
    p.add_argument("--spec", default="{}",
                   help="job parameters as a JSON object")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--tenant", default="default",
                   help="fair-queueing lane / quota bucket for the job")
    p.add_argument("--no-wait", action="store_true",
                   help="enqueue and return instead of waiting")
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("scale", help="set the shard count")
    _add_socket(p)
    p.add_argument("--shards", type=int, required=True)
    p.add_argument("--json", action="store_true", dest="as_json")

    for name, help_ in (("stat", "show server/queue/cache state"),
                        ("metrics", "dump the serve./shard. registry"),
                        ("drain", "wait for every queued job"),
                        ("stop", "shut the server down"),
                        ("ping", "check the server is answering")):
        p = sub.add_parser(name, help=help_)
        _add_socket(p)
        p.add_argument("--json", action="store_true", dest="as_json")

    return parser


def _parse_kv(pairs, cast, what):
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise SystemExit(f"bad {what} {pair!r} (expected TENANT=VALUE)")
        out[name] = cast(value)
    return out


def _cmd_start(args) -> int:
    from repro.serve.server import JobServer

    tenants = {}
    for t, w in _parse_kv(args.tenant_weight, float, "--tenant-weight").items():
        tenants.setdefault(t, {})["weight"] = w
    for t, q in _parse_kv(args.tenant_quota, int, "--tenant-quota").items():
        tenants.setdefault(t, {})["quota"] = q

    autoscale = None
    if args.autoscale:
        from repro.serve.autoscale import AutoscalePolicy

        autoscale = AutoscalePolicy(min_shards=args.shards,
                                    max_shards=args.max_shards)

    server = JobServer(
        nranks=args.nranks,
        policy=args.policy,
        cache_dir=args.cache_dir,
        metrics_dir=args.metrics_dir,
        max_batch=args.max_batch,
        job_timeout=args.job_timeout,
        tune_dir=args.tune_dir,
        shards=args.shards,
        retry_budget=args.retry_budget,
        tenants=tenants or None,
        max_pending=args.max_pending,
        shard_depth=args.shard_depth,
        autoscale=autoscale,
        autopilot=args.autopilot,
    )
    print(f"repro.serve: {args.nranks} ranks x {args.shards} shards, "
          f"policy={args.policy}, "
          f"cache={args.cache_dir or '(memory only)'}, "
          f"socket={args.socket}", flush=True)
    try:
        from repro.serve.frontend import serve_async

        serve_async(server, args.socket)
    except KeyboardInterrupt:
        server.close()
    return 0


def _print_record(record: dict) -> None:
    state = "ok" if record.get("ok") else f"FAILED: {record.get('error')}"
    print(f"job {record['id']} [{record['kind']}] {state}  "
          f"wall={record.get('wall_s', 0):.3f}s "
          f"shard={record.get('shard')} "
          f"pool_reused={record.get('pool_reused')} "
          f"disk_hits={record.get('disk_hits', 0)} "
          f"inspector_runs={record.get('inspector_runs', 0)}")


def _print_stat(stat: dict) -> None:
    shards, disk = stat["shards"], stat["disk_cache"]

    def total(key: str) -> int:
        return sum(entry[key] for entry in shards)

    print(f"nranks={stat['nranks']} policy={stat['policy']} "
          f"shards={len(shards)} "
          f"queued={stat['queued']} done={stat['jobs_done']} "
          f"failures={stat['failures']} sheds={stat.get('sheds', 0)} "
          f"retries={stat.get('retries', 0)}")
    print(f"pool: warm={any(entry['warm'] for entry in shards)} "
          f"jobs={total('pool_jobs_done')} "
          f"rebuilds={total('rebuilds')} meshes={total('meshes_built')} "
          f"shm_ship_bytes={total('shm_ship_bytes')} "
          f"shm_reclaimed_bytes={total('shm_reclaimed_bytes')}")
    for entry in shards:
        print(f"  {entry['name']}: warm={entry['warm']} "
              f"queued={entry['queued']} done={entry['jobs_done']} "
              f"retries={entry['retries']} replays_in={entry['replays_in']} "
              f"disk_entries={entry['disk_entries']}")
    print(f"disk: dir={disk.get('dir')} entries={disk.get('entries', 0)} "
          f"bytes={disk.get('bytes', 0)} hits={disk.get('disk_hits', 0)} "
          f"stores={disk.get('disk_stores', 0)}")
    tune = stat.get("tune_store", {})
    print(f"tune: dir={tune.get('dir')} "
          f"plans={tune.get('entries', 0)}")
    if "autoscale" in stat:
        a = stat["autoscale"]
        print(f"autoscale: decisions={a['decisions']} "
              f"band=[{a['low_depth']}, {a['high_depth']}] "
              f"shards<=[{a['min_shards']}, {a['max_shards']}]")
    if "autopilot" in stat:
        ap = stat["autopilot"]
        print(f"autopilot: families={ap['families']} "
              f"drift={ap['drift_events']} shadow={ap['shadow_runs']} "
              f"ab_jobs={ap['ab_jobs']} promoted={ap['promoted']} "
              f"rejected={ap['rejected']} rolled_back={ap['rolled_back']}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "start":
        return _cmd_start(args)

    from repro.serve.server import ServeClient

    client = ServeClient(args.socket)
    if args.command == "submit":
        response = client.request(
            "submit", kind=args.kind, spec=json.loads(args.spec),
            priority=args.priority, tenant=args.tenant,
            wait=not args.no_wait,
        )
    elif args.command == "scale":
        response = client.request("scale", shards=args.shards)
    else:
        response = client.request(args.command)

    if getattr(args, "as_json", False):
        print(json.dumps(response, indent=2))
    elif args.command == "submit" and "job" in response:
        _print_record(response["job"])
    elif args.command == "submit" and response.get("shed"):
        print(f"SHED [{response.get('reason')}] tenant={response.get('tenant')} "
              f"depth={response.get('depth')} limit={response.get('limit')} "
              f"shard={response.get('shard')}")
    elif args.command == "stat" and response.get("ok"):
        _print_stat(response["stat"])
    else:
        print(json.dumps(response))
    return 0 if response.get("ok") else 1


if __name__ == "__main__":
    sys.exit(main())
