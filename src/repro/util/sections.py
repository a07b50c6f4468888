"""Strided regular sections and their algebra.

A *regular section* is an arithmetic progression ``{lo, lo+step, …, <= hi}``
— the natural description of the elements a cyclic distribution places on a
processor (paper §2.2: ``local_B(p) = {i : i ≡ p (mod P)}``) and of the
index sets touched by affine subscripts inside triangular/strided loops.

Closed-form intersection of two sections reduces to solving a pair of
congruences (CRT over non-coprime moduli); that is what lets the
compile-time analysis of cyclic distributions stay symbolic instead of
enumerating elements.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Tuple

import numpy as np


def unique_ints(values) -> np.ndarray:
    """Sorted distinct values of an integer array, as int64 — ``np.unique``
    by sort and neighbour mask, about 10x cheaper at a few thousand
    elements than numpy's hash-based default on the hot index paths."""
    s = np.sort(np.asarray(values, dtype=np.int64), axis=None)
    if s.size < 2:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _extended_gcd(a: int, b: int) -> Tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


class Section:
    """An arithmetic progression ``lo, lo+step, …`` capped at ``hi``.

    Canonical form: ``step >= 1``; ``hi`` is the *last member* (so
    ``(hi - lo) % step == 0``) or the section is empty (``lo > hi``).
    """

    __slots__ = ("lo", "hi", "step")

    def __init__(self, lo: int, hi: int, step: int = 1):
        lo, hi, step = int(lo), int(hi), int(step)
        if step < 1:
            raise ValueError(f"Section step must be >= 1, got {step}")
        if lo > hi:
            # Canonical empty section.
            lo, hi, step = 0, -1, 1
        else:
            hi = lo + ((hi - lo) // step) * step
            if lo == hi:
                step = 1
        self.lo, self.hi, self.step = lo, hi, step

    # --- constructors -----------------------------------------------------

    @classmethod
    def empty(cls) -> "Section":
        return cls(0, -1)

    @classmethod
    def point(cls, value: int) -> "Section":
        return cls(value, value)

    # --- protocol -----------------------------------------------------------

    def __len__(self) -> int:
        if self.lo > self.hi:
            return 0
        return (self.hi - self.lo) // self.step + 1

    def __bool__(self) -> bool:
        return self.lo <= self.hi

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1, self.step))

    def __contains__(self, value: int) -> bool:
        value = int(value)
        return self.lo <= value <= self.hi and (value - self.lo) % self.step == 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Section):
            return NotImplemented
        return (self.lo, self.hi, self.step) == (other.lo, other.hi, other.step)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.step))

    def __repr__(self) -> str:
        if not self:
            return "Section(empty)"
        return f"Section({self.lo}:{self.hi}:{self.step})"

    # --- algebra ------------------------------------------------------------

    def intersect(self, other: "Section") -> "Section":
        """Closed-form intersection of two arithmetic progressions.

        Solves ``x ≡ lo₁ (mod s₁)`` and ``x ≡ lo₂ (mod s₂)``; the solution,
        when it exists, is a progression with step ``lcm(s₁, s₂)`` clipped
        to the overlap of the two ranges.
        """
        if not self or not other:
            return Section.empty()
        s1, s2 = self.step, other.step
        g, x, _ = _extended_gcd(s1, s2)
        diff = other.lo - self.lo
        if diff % g != 0:
            return Section.empty()
        lcm = s1 // g * s2
        # One solution: self.lo + s1 * x * (diff / g), then canonicalise mod lcm.
        sol = self.lo + s1 * (x * (diff // g))
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return Section.empty()
        # Smallest member of the solution class that is >= lo.
        first = lo + (sol - lo) % lcm
        if first > hi:
            return Section.empty()
        return Section(first, hi, lcm)

    def clip(self, lo: int, hi: int) -> "Section":
        """Restrict to the window ``[lo, hi]``."""
        return self.intersect(Section(lo, hi, 1)) if self else Section.empty()

    def shift(self, offset: int) -> "Section":
        if not self:
            return Section.empty()
        return Section(self.lo + offset, self.hi + offset, self.step)

    def affine_preimage(self, a: int, b: int) -> "Section":
        """``{i : a*i + b ∈ self}`` for ``a != 0`` — stays a section.

        Membership needs ``a*i + b ≡ lo (mod step)`` and range containment;
        the solutions in ``i`` form a progression with step
        ``step / gcd(a, step)``.
        """
        a, b = int(a), int(b)
        if a == 0:
            raise ValueError("affine_preimage requires a != 0")
        if not self:
            return Section.empty()
        if a < 0:
            # Reflect: a*i + b in S  <=>  (-a)*i + ... handled by negating i.
            mirrored = Section(-self.hi, -self.lo, self.step) if self.step else Section.empty()
            # (-a)*i - b in mirrored  <=>  a*i + b in self
            return mirrored.affine_preimage(-a, -b)
        g = gcd(a, self.step)
        if (self.lo - b) % g != 0:
            return Section.empty()
        # Solve a*i ≡ lo - b (mod step).
        step_i = self.step // g
        _, inv, _ = _extended_gcd(a // g, step_i)
        i0 = ((self.lo - b) // g * inv) % step_i if step_i > 1 else 0
        # Range bounds on i from lo <= a*i + b <= hi.
        ilo = -((-(self.lo - b)) // a)  # ceil
        ihi = (self.hi - b) // a        # floor
        if ilo > ihi:
            return Section.empty()
        # First i >= ilo congruent to i0 mod step_i.
        first = ilo + (i0 - ilo) % step_i
        if first > ihi:
            return Section.empty()
        return Section(first, ihi, step_i)

    # --- conversions ----------------------------------------------------------

    def to_array(self) -> np.ndarray:
        if not self:
            return np.empty(0, dtype=np.int64)
        return np.arange(self.lo, self.hi + 1, self.step, dtype=np.int64)

