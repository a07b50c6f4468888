"""repro.serve — sharded warm rank-pool job server with schedule caching.

The layers, composable independently:

* :class:`RankPool` (``serve.pool``) — the mp backend's forked pipe mesh,
  kept warm and reused across jobs, with health checks and crash-rebuild;
* :class:`ShardRouter` (``serve.router``) — rendezvous hashing of jobs
  onto pool shards by (kind, content fingerprint), so each shard's
  schedule caches and learned plans stay hot;
* :class:`JobServer` / :class:`JobQueue` (``serve.server`` / ``serve.queue``)
  — tenant-fair FIFO/priority scheduling with futures, quotas and load
  shedding (:class:`ShedError`), batching of same-shape jobs, per-job
  retry budgets with condemned-pool replay, and a unix-socket CLI
  (``python -m repro.serve``);
* :class:`AsyncFrontend` (``serve.frontend``) — the asyncio front end
  multiplexing many JSON-lines clients over one event loop;
* :class:`Autoscaler` (``serve.autoscale``) — fleet growth/shrink on
  sustained queue depth, with hysteresis;
* :class:`DiskScheduleCache` (``serve.diskcache``) — the on-disk,
  content-addressed second tier of the schedule cache, so a restarted
  server re-executes known foralls with zero inspector cost.

Attributes resolve lazily: ``repro.runtime.cache`` imports this package's
``diskcache`` module while ``serve.server`` imports ``repro.core.context``
— eager re-exports here would tie that knot into a cycle.
"""

from __future__ import annotations

_EXPORTS = {
    "RankPool": ("repro.serve.pool", "RankPool"),
    "DiskScheduleCache": ("repro.serve.diskcache", "DiskScheduleCache"),
    "schedule_content_key": ("repro.serve.diskcache", "schedule_content_key"),
    "SCHEDCACHE_FORMAT": ("repro.serve.diskcache", "SCHEDCACHE_FORMAT"),
    "JobQueue": ("repro.serve.queue", "JobQueue"),
    "Job": ("repro.serve.queue", "Job"),
    "JobFuture": ("repro.serve.queue", "JobFuture"),
    "ShedError": ("repro.serve.queue", "ShedError"),
    "QueueClosed": ("repro.serve.queue", "QueueClosed"),
    "PoolCrashError": ("repro.errors", "PoolCrashError"),
    "ShardRouter": ("repro.serve.router", "ShardRouter"),
    "route_key": ("repro.serve.router", "route_key"),
    "JobServer": ("repro.serve.server", "JobServer"),
    "Shard": ("repro.serve.server", "Shard"),
    "ServeClient": ("repro.serve.server", "ServeClient"),
    "AsyncFrontend": ("repro.serve.frontend", "AsyncFrontend"),
    "serve_async": ("repro.serve.frontend", "serve_async"),
    "Autoscaler": ("repro.serve.autoscale", "Autoscaler"),
    "AutoscalePolicy": ("repro.serve.autoscale", "AutoscalePolicy"),
    "shipping": ("repro.serve.shipping", None),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.serve' has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
