"""Block-cyclic distribution (paper §2.2: "Kali also supports block-cyclic
distributions").

Deals *blocks* of ``block_size`` elements round-robin: global index ``i``
belongs to block ``i // b``, and block ``k`` lives on processor
``k mod P``.  ``BlockCyclic(1)`` degenerates to cyclic; a block size of
``ceil(N/P)`` degenerates to block.  Local storage packs a processor's
blocks contiguously in block order.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.distributions.base import DimDistribution, IndexLike
from repro.errors import DistributionError
from repro.util.sections import Section


class BlockCyclic(DimDistribution):
    kind = "block_cyclic"

    def __init__(self, block_size: int = 1):
        super().__init__()
        if int(block_size) < 1:
            raise DistributionError(f"block_size must be >= 1, got {block_size}")
        self.block_size = int(block_size)

    def _clone(self) -> "BlockCyclic":
        return BlockCyclic(self.block_size)

    def _layout_params(self) -> tuple:
        return (self.block_size,)

    def owner(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        arr = self._check_index(index)
        own = (arr // self.block_size) % self.nprocs
        return own if isinstance(index, np.ndarray) else int(own)

    def to_local(self, index: IndexLike) -> IndexLike:
        self._require_bound()
        arr = self._check_index(index)
        block = arr // self.block_size
        local_block = block // self.nprocs
        loc = local_block * self.block_size + arr % self.block_size
        return loc if isinstance(index, np.ndarray) else int(loc)

    def _locate(self, arr: np.ndarray):
        size = self.block_size
        block = arr // size
        local_block = block // self.nprocs
        # offset: local_block * size + (arr - block * size)
        return block - local_block * self.nprocs, arr - (block - local_block) * size

    def to_global(self, proc: int, offset: IndexLike) -> IndexLike:
        self._require_bound()
        off = np.asarray(offset)
        local_block = off // self.block_size
        block = local_block * self.nprocs + proc
        out = block * self.block_size + off % self.block_size
        return out if isinstance(offset, np.ndarray) else int(out)

    def local_count(self, proc: int) -> int:
        self._require_bound()
        b, p = self.block_size, self.nprocs
        nblocks = -(-self.extent // b) if self.extent else 0
        full, rem = divmod(nblocks, p)
        mine = full + (1 if proc < rem else 0)
        if mine == 0:
            return 0
        count = mine * b
        # The globally-last block may be short; subtract the shortfall if ours.
        last_block = nblocks - 1
        if last_block % p == proc:
            count -= nblocks * b - self.extent
        return count

    def local_indices(self, proc: int) -> np.ndarray:
        self._require_bound()
        b, p = self.block_size, self.nprocs
        starts = np.arange(proc * b, self.extent, p * b, dtype=np.int64)
        chunks = [
            np.arange(s, min(s + b, self.extent), dtype=np.int64) for s in starts
        ]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    #: analysis stays closed-form while each processor owns at most this
    #: many blocks; beyond that the run-time inspector is cheaper.
    MAX_ANALYSIS_SECTIONS = 16

    def analysis_sections(self, proc: int) -> List[Section]:
        self._require_bound()
        b, p = self.block_size, self.nprocs
        out = []
        start = proc * b
        while start < self.extent:
            out.append(Section(start, min(start + b, self.extent) - 1))
            start += p * b
        return out

    def supports_closed_form(self) -> bool:
        if not self.bound:
            return False
        nblocks = -(-self.extent // self.block_size) if self.extent else 0
        per_proc = -(-nblocks // self.nprocs) if nblocks else 0
        return per_proc <= self.MAX_ANALYSIS_SECTIONS
