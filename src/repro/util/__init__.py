"""Small self-contained utilities: integer set algebra, Gray codes,
formatting, and the content-addressed entry store (``util.store``)."""

from repro.util.intsets import IntervalSet
from repro.util.sections import Section
from repro.util.gray import gray_encode, gray_decode, hypercube_neighbors

__all__ = [
    "IntervalSet",
    "Section",
    "gray_encode",
    "gray_decode",
    "hypercube_neighbors",
]
