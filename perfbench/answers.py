"""Comparing a query's rows with an independently computed answer.

An :class:`Expected` answer maps each result key (the exact columns of a
row: licences, ids) to the list of approximate values the rows with that
key carry (positions, distances, instants, span bounds).  Keys in
``optional`` are undecided by the reference (see
:mod:`perfbench.geometry`) and may be present or absent.  Rows must also
come in the order the query's ORDER BY asks for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

#: Absolute tolerance on positions and distances (m) and the relative
#: tolerance added for long lengths.
TOL_M = 1e-6
TOL_REL = 1e-9
#: Tolerance on instants and span bounds (microseconds): the program
#: rounds interpolated times to whole microseconds.
TOL_US = 2.0


def close_float(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= TOL_M + TOL_REL * abs(b)


def close_time(a, b) -> bool:
    return abs(float(a) - float(b)) <= TOL_US


def close_point(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return math.hypot(a[0] - b[0], a[1] - b[1]) <= TOL_M


def close_windows(a: list[tuple[float, float]],
                  b: list[tuple[float, float]]) -> bool:
    return len(a) == len(b) and all(
        close_time(x[0], y[0]) and close_time(x[1], y[1])
        for x, y in zip(a, b)
    )


def exact(a, b) -> bool:
    return a == b


@dataclass
class Expected:
    """The answer of one query (or lookup)."""

    #: key -> list of values of the rows with that key
    rows: dict[Any, list[Any]]
    #: splits a canonical result row into (key, value)
    split: Callable[[tuple], tuple[Any, Any]]
    #: compares one value with its expected counterpart
    close: Callable[[Any, Any], bool] = exact
    #: sorts the values that share a key before pairing them up
    value_order: Callable[[Any], Any] = repr
    #: canonical row -> ORDER BY key (None: no order required)
    order_by: Callable[[tuple], Any] | None = None
    optional: set = field(default_factory=set)
    #: evidence worth reporting (e.g. the minimum distance of an empty
    #: answer)
    notes: dict = field(default_factory=dict)

    def check(self, rows: list[tuple]) -> str | None:
        """None when ``rows`` (canonical) match, else the first problem."""
        got: dict[Any, list[Any]] = {}
        for row in rows:
            key, value = self.split(row)
            got.setdefault(key, []).append(value)
        missing = [k for k in self.rows if k not in got]
        if missing:
            return f"missing {len(missing)} key(s), e.g. {missing[0]!r}"
        extra = [k for k in got if k not in self.rows
                 and k not in self.optional]
        if extra:
            return f"{len(extra)} unexpected key(s), e.g. {extra[0]!r}"
        for key, want in self.rows.items():
            have = got[key]
            if len(have) != len(want):
                return (f"key {key!r}: {len(have)} row(s), expected "
                        f"{len(want)}")
            for h, w in zip(sorted(have, key=self.value_order),
                            sorted(want, key=self.value_order)):
                if not self.close(h, w):
                    return f"key {key!r}: got {h!r}, expected {w!r}"
        if self.order_by is not None:
            keys = [self.order_by(row) for row in rows]
            for i in range(1, len(keys)):
                if keys[i] < keys[i - 1]:
                    return f"rows out of order at position {i}"
        return None


def set_answer(required, optional=(), order_by=None, notes=None
               ) -> Expected:
    """An answer that is a set of exact rows."""
    return Expected(
        rows={row: [None] for row in required},
        split=lambda row: (row, None),
        optional=set(optional) - set(required),
        order_by=order_by,
        notes=notes or {},
    )


class TriSet:
    """Collects the keys of a DISTINCT answer from evidence that is
    true, false or undecided; a key is required when any evidence is
    true and optional when the best evidence is undecided."""

    def __init__(self):
        self.required: set = set()
        self.maybe: set = set()

    def add(self, key, state: int) -> None:
        if state == TRUE:
            self.required.add(key)
        elif state == MAYBE:
            self.maybe.add(key)

    def answer(self, order_by=None, notes=None) -> Expected:
        return set_answer(self.required, self.maybe, order_by, notes)


TRUE, FALSE, MAYBE = 1, 0, -1


def decide_le(value: float | None, threshold: float, band: float) -> int:
    """``value <= threshold`` with an undecided band around it."""
    if value is None:
        return FALSE
    if value < threshold - band:
        return TRUE
    if value > threshold + band:
        return FALSE
    return MAYBE


def tri_and(*states: int) -> int:
    if any(s == FALSE for s in states):
        return FALSE
    if all(s == TRUE for s in states):
        return TRUE
    return MAYBE


def tri_not(state: int) -> int:
    return {TRUE: FALSE, FALSE: TRUE, MAYBE: MAYBE}[state]
