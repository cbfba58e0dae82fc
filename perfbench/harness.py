"""What a workload receives and returns, and the injected faults with
which the benchmark's own tests show that its checks can fail."""

from __future__ import annotations

from dataclasses import dataclass, field

from .measure import Tally

#: Faults the tests inject into the outputs the checks see.
FAULTS = ("drop_row", "perturb_float", "swap_licence",
          "lose_row_after_attach")


@dataclass
class RunConfig:
    workload: str
    seed: int
    seconds: float
    trace: bool = False
    #: "bench" for measured runs, "tiny" for the benchmark's own tests
    size: str = "bench"
    fault: str | None = None
    #: scratch directory of this run (inside the checkout)
    workdir: str = ""
    #: directory for artifacts kept after the run (span dumps)
    outdir: str = ""


@dataclass
class RunOutput:
    tally: Tally
    #: end-to-end metrics (untraced) or per-layer metrics (traced)
    metrics: dict
    #: diagnostics printed before the result line (not metrics)
    details: dict = field(default_factory=dict)


class FaultInjector:
    """Corrupts the first eligible output once, the way a faulty program
    would; ``fired`` tells whether it found one."""

    def __init__(self, kind: str | None):
        if kind is not None and kind not in FAULTS:
            raise ValueError(f"unknown fault {kind!r}")
        self.kind = kind
        self.fired = False

    def active(self, kind: str) -> bool:
        return self.kind == kind and not self.fired

    def rows(self, rows: list[tuple]) -> list[tuple]:
        """Apply drop_row / perturb_float / swap_licence to canonical
        result rows."""
        if self.fired or self.kind is None:
            return rows
        if self.kind == "drop_row" and rows:
            self.fired = True
            return rows[:-1]
        if self.kind == "perturb_float":
            for r, row in enumerate(rows):
                for c, value in enumerate(row):
                    bumped = _bump(value)
                    if bumped is not None:
                        self.fired = True
                        out = list(rows)
                        out[r] = row[:c] + (bumped,) + row[c + 1:]
                        return out
        if self.kind == "swap_licence":
            return self._swap_licence(rows)
        return rows

    def licence(self, licence: str, others: list[str]) -> str:
        """swap_licence on a query parameter: ask about another vehicle."""
        if not self.active("swap_licence"):
            return licence
        self.fired = True
        return next(o for o in others if o != licence)

    def _swap_licence(self, rows: list[tuple]) -> list[tuple]:
        for c in range(len(rows[0]) if rows else 0):
            for a in range(len(rows)):
                for b in range(a + 1, len(rows)):
                    va, vb = rows[a][c], rows[b][c]
                    if not (_is_licence(va) and _is_licence(vb)) or va == vb:
                        continue
                    out = list(rows)
                    out[a] = rows[a][:c] + (vb,) + rows[a][c + 1:]
                    out[b] = rows[b][:c] + (va,) + rows[b][c + 1:]
                    if sorted(map(repr, out)) != sorted(map(repr, rows)):
                        self.fired = True
                        return out
        return rows


def _is_licence(value) -> bool:
    return isinstance(value, str) and value.startswith("HN-")


def _bump(value):
    """The value moved well beyond every tolerance, or None when it is
    not a measured quantity."""
    if isinstance(value, float):
        return value + 1e-3 * max(1.0, abs(value))
    if (isinstance(value, tuple) and len(value) == 2
            and all(isinstance(v, float) for v in value)):
        return (value[0] + 1e-3, value[1])
    if isinstance(value, list) and value and isinstance(value[0], tuple):
        lo, hi = value[0]
        return [(lo + 1000.0, hi)] + value[1:]
    return None
