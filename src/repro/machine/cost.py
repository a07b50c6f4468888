"""Calibrated machine cost models.

The simulator charges virtual time from *operation counts*, so reproducing
the paper's tables reduces to choosing per-operation constants for each
machine.  The constants below were calibrated against the paper's own
measurements (its Figures 7-10); the derivation is documented in
``repro.bench.calibration`` and EXPERIMENTS.md.  In brief, from the
128x128-mesh runs:

* NCUBE/7 executor, P=2: 244.04 s / 100 sweeps / 8192 node-updates per rank
  gives ~298 us per node per sweep covering BOTH foralls of Figure 4 (the
  old_a copy plus the relaxation).  Per node that is 2 iteration bases,
  9 charged array references (4 neighbours + coef + a + write in the
  relaxation; read + write in the copy) and 8 flops:
  298 = 2*iter_base + 9*ref_local + 8*flop.
* The speedup deficit at large P is a *constant* ~85 ms/sweep independent
  of P — exactly the 2x128 boundary references each rank resolves through
  the O(log r) search structure, giving ~330 us per nonlocal access on the
  NCUBE (the paper blames slow procedure calls; §4).
* NCUBE/7 inspector time decomposes into a per-reference locality check
  (~55 us) plus a per-stage crystal-router combine cost (~190 ms/stage,
  log2 P stages) — this reproduces the U-shaped inspector curve with its
  minimum near P=16.
* iPSC/2 numbers decompose the same way with a ~4x faster node, ~6x faster
  locality check and a far cheaper combine stage, matching the paper's
  remark that small-message communication is much cheaper on the iPSC.

All times are in seconds; ``beta`` is seconds per byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import log2


@dataclass(frozen=True)
class MachineModel:
    """Per-operation virtual-time costs for one machine.

    Hardware parameters
    -------------------
    alpha_send / alpha_recv : message startup cost on sender / receiver.
    beta                    : per-byte transfer cost (charged to the sender).
    hop                     : per-hop wire latency added to arrival time.
    flop                    : one floating-point operation.

    Runtime (software) parameters
    -----------------------------
    ref_local      : executor cost of one local array reference (indexing,
                     address arithmetic; Fig. 6's local loop body overhead).
    iter_base      : per-iteration loop overhead in the executor.
    search_base    : fixed cost of resolving one nonlocal reference via the
                     sorted-range table (procedure calls etc.; §4).
    search_factor  : additional cost per level of the O(log r) binary search.
    inspect_ref    : inspector cost of one locality check (Fig. 6 first loop).
    insert_elem    : inspector cost of inserting one nonlocal element into
                     the sorted range arrays ("the disadvantage of sorted
                     arrays is the insertion time of O(r)"; §3.3).
    combine_stage  : fixed software cost of one crystal-router combine stage
                     (list merge + buffer management; §3.3).
    combine_byte   : per-byte cost during a combine stage.
    copy_elem      : per-element cost of packing/unpacking message buffers.
    """

    name: str
    alpha_send: float
    alpha_recv: float
    beta: float
    hop: float
    flop: float
    ref_local: float
    iter_base: float
    search_base: float
    search_factor: float
    inspect_ref: float
    insert_elem: float
    combine_stage: float
    combine_byte: float
    copy_elem: float

    # --- communication -----------------------------------------------------

    def send_busy(self, nbytes: int) -> float:
        """Time the *sender* is occupied injecting a message."""
        return self.alpha_send + self.beta * nbytes

    def transit(self, nbytes: int, hops: int) -> float:
        """Extra wire time before the message is available at the receiver."""
        return self.hop * max(hops, 0)

    def recv_busy(self, nbytes: int) -> float:
        """Time the *receiver* is occupied draining a matched message."""
        return self.alpha_recv

    # --- runtime operations ---------------------------------------------------

    def search_cost(self, num_ranges: int) -> float:
        """Cost of one nonlocal-element lookup among ``num_ranges`` ranges."""
        levels = log2(num_ranges) if num_ranges > 1 else 0.0
        return self.search_base + self.search_factor * levels

    def with_overrides(self, **kwargs) -> "MachineModel":
        """A copy with some parameters replaced (for ablations)."""
        return replace(self, **kwargs)


# --- presets -------------------------------------------------------------------
#
# Calibration targets (paper Figures 7-10) are reproduced in
# tests/test_calibration.py; see repro/bench/calibration.py for the full
# derivation of each constant.

NCUBE7 = MachineModel(
    name="NCUBE/7",
    alpha_send=384e-6,
    alpha_recv=150e-6,
    beta=2.6e-6,
    hop=5e-6,
    flop=10e-6,
    ref_local=17.6e-6,
    iter_base=30e-6,
    search_base=318e-6,
    search_factor=8e-6,
    inspect_ref=55e-6,
    insert_elem=200e-6,
    combine_stage=0.190,
    combine_byte=2.6e-6,
    copy_elem=2e-6,
)

IPSC2 = MachineModel(
    name="iPSC/2",
    alpha_send=350e-6,
    alpha_recv=100e-6,
    beta=0.4e-6,
    hop=2e-6,
    flop=2.5e-6,
    ref_local=4.2e-6,
    iter_base=8e-6,
    search_base=53e-6,
    search_factor=2e-6,
    inspect_ref=9.8e-6,
    insert_elem=20e-6,
    combine_stage=3.5e-3,
    combine_byte=0.4e-6,
    copy_elem=0.5e-6,
)

# A 2020s commodity cluster node (per-core figures; ~2 us RDMA-ish startup,
# 25 GbE bandwidth, superscalar core).  Not calibrated against any paper —
# it exists for the "then vs now" extension benchmark, which shows how the
# trade-offs the paper agonised over (inspector overhead, O(log r) search
# cost) all but vanish when compute and messaging get 4-6 orders of
# magnitude faster while the *algorithmic structure* stays identical.
MODERN = MachineModel(
    name="modern-cluster",
    alpha_send=2e-6,
    alpha_recv=1e-6,
    beta=4e-11,
    hop=2e-7,
    flop=5e-10,
    ref_local=1.5e-9,
    iter_base=2e-9,
    search_base=2.5e-8,
    search_factor=2e-9,
    inspect_ref=3e-9,
    insert_elem=8e-9,
    combine_stage=6e-6,
    combine_byte=4e-11,
    copy_elem=1e-9,
)

# A zero-latency, unit-cost machine for unit tests: virtual times become
# simple operation counts, which makes assertions exact.
IDEAL = MachineModel(
    name="ideal",
    alpha_send=0.0,
    alpha_recv=0.0,
    beta=0.0,
    hop=0.0,
    flop=1.0,
    ref_local=1.0,
    iter_base=1.0,
    search_base=1.0,
    search_factor=0.0,
    inspect_ref=1.0,
    insert_elem=0.0,
    combine_stage=0.0,
    combine_byte=0.0,
    copy_elem=0.0,
)

PRESETS = {m.name: m for m in (NCUBE7, IPSC2, MODERN, IDEAL)}
