"""Small self-contained utilities: strided sections, Gray codes,
formatting, and the content-addressed entry store (``util.store``)."""

from repro.util.sections import Section
from repro.util.gray import gray_encode, gray_decode, hypercube_neighbors

__all__ = [
    "Section",
    "gray_encode",
    "gray_decode",
    "hypercube_neighbors",
]
