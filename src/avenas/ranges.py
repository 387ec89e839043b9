"""Allowed ranges of settings, each declared once on a dataclass field
(``ranged``) and read there by both ``check_ranges`` and the config loader."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class Interval:
    """lo <= x <= hi, or lo < x <= hi if ``lo_open``; NaN lies in none."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False

    def __contains__(self, x) -> bool:
        return (self.lo < x if self.lo_open else self.lo <= x) and x <= self.hi

    def __str__(self) -> str:
        if self.hi == math.inf:
            return f"{'>' if self.lo_open else '>='} {self.lo:g}"
        return f"in {'(' if self.lo_open else '['}{self.lo:g}, {self.hi:g}]"


AT_LEAST_1, NONNEGATIVE, UNIT = Interval(1), Interval(0), Interval(0, 1)
POSITIVE = Interval(0, lo_open=True)


def ranged(default, within: Interval):
    """A dataclass field whose value must lie in ``within``."""
    return field(default=default, metadata={"range": within})


def check_ranges(obj) -> None:
    """Raise ``ValueError`` naming the first field of ``obj`` out of its range."""
    for f in fields(obj):
        within = f.metadata.get("range")     # a field without one may be unset yet
        if within is not None and (value := getattr(obj, f.name)) not in within:
            raise ValueError(f"{f.name} must be {within}, got {value!r}")
