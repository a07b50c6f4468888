"""Per-kind planning-input profilers for shadow re-planning.

``tune.policy.plan()`` needs the *global* indirection data of a job
family — element count, adjacency table, reference counts, coordinates,
the incumbent owner map — none of which survives in the per-job record.
A **profiler** reconstructs those inputs deterministically from the job
spec (the same spec-seeded construction the job runner itself uses), so
a shadow job can re-plan a family it has only ever seen records of.

Registering a profiler is what makes a job kind *autopilot-actionable*;
families of kinds without one still get drift detection (the event
lands in the journal as unactionable) but no shadow/A-B campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.errors import KaliError


@dataclass
class PlanInputs:
    """Everything ``tune.policy.plan()`` needs for one family."""

    n: int
    table: np.ndarray                       # adjacency / indirection rows
    current: np.ndarray                     # incumbent owner map (absent a plan)
    arrays: Sequence[str]                   # arrays a plan re-lays-out
    counts: Optional[np.ndarray] = None
    points: Optional[np.ndarray] = None
    row_weights: Sequence[float] = (1.0,)
    table_offset: int = 0
    meta: Dict = field(default_factory=dict)


Profiler = Callable[[int, Dict], PlanInputs]

AUTOPILOT_PROFILERS: Dict[str, Profiler] = {}


def register_profiler(kind: str, profiler: Profiler) -> None:
    """Register (or replace) the planning-input profiler for a job kind.
    ``profiler(nranks, spec)`` must be deterministic in its arguments."""
    AUTOPILOT_PROFILERS[kind] = profiler


def profiler_for(kind: str) -> Profiler:
    profiler = AUTOPILOT_PROFILERS.get(kind)
    if profiler is None:
        raise KaliError(
            f"no autopilot profiler registered for job kind {kind!r} "
            f"(registered: {', '.join(sorted(AUTOPILOT_PROFILERS))})")
    return profiler


def has_profiler(kind: str) -> bool:
    return kind in AUTOPILOT_PROFILERS


def _jacobi_served_inputs(nranks: int, spec: Dict) -> PlanInputs:
    """Planning inputs for ``jacobi_served`` — the runner's own
    spec-seeded mesh and scrambled owner map (one shared constructor)."""
    from repro.apps.jacobi import (
        JACOBI_ARRAYS, jacobi_row_weights, scrambled_jacobi)

    nodes = int(spec.get("nodes", 400))
    seed = int(spec.get("seed", 7))
    mesh, points, owners = scrambled_jacobi(nodes, nranks, seed)
    return PlanInputs(
        n=mesh.n,
        table=mesh.adj,
        current=owners,
        arrays=JACOBI_ARRAYS,
        counts=mesh.count,
        points=points,
        row_weights=jacobi_row_weights(mesh),
        meta={"nodes": nodes, "seed": seed},
    )


register_profiler("jacobi_served", _jacobi_served_inputs)
