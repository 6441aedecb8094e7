"""A fixed unit of pure-Python exact arithmetic that uses no elemop code.

It is run between workload items so that a run can state its cost in
units of this loop as well as in seconds: on a shared host whose speed
drifts by tens of percent over minutes, the ratio of the two times
cancels most of the drift, because both slow down together.  Nothing a
change to elemop does can make this loop faster or slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter


@dataclass(frozen=True)
class _Gauss:
    """A Gaussian rational, as small immutable objects in the style of
    the program's own scalars."""

    re: Fraction
    im: Fraction

    def __add__(self, other):
        return _Gauss(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _Gauss(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _Gauss(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        return _Gauss(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    @property
    def is_zero(self):
        return not self.re and not self.im


SIZE = 7
# A fixed full-rank matrix with small entries; the constants never change.
_ROWS = [
    [_Gauss(Fraction((3 * i + 5 * j) % 7 - 3), Fraction((i * j + 2) % 5 - 2)) for j in range(SIZE)]
    for i in range(SIZE)
]


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(SIZE):
        pivot = next((r for r in range(rank, SIZE) if not rows[r][col].is_zero), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(SIZE):
            if r != rank and not rows[r][col].is_zero:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def unit() -> float:
    """Run the reference unit once; its wall time in seconds."""
    start = perf_counter()
    for _ in range(4):
        if _rank(_ROWS) != SIZE:
            raise AssertionError("reference matrix lost full rank")
    return perf_counter() - start
