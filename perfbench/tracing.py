"""The traced run: spans around calls into each layer of the program.

:class:`Tracer` wraps public entry points of each layer from outside the
program (module attributes and class methods, swapped in by
:meth:`Tracer.install` and restored by :meth:`Tracer.remove`), keeps
every span in memory, and writes them to a ``.npz`` file at the end.  A
layer's self time is its spans' durations minus the part covered by
their child spans; counts come from the program's own counters
(``Result.stats()``), gathered by the workloads.

Wrapped entry points, by layer:

=====================  ====================================================
``quack.sql``          ``parse_sql`` (as called by ``Connection``)
``quack.binder``       ``Binder.bind_select``
``quack.optimizer``    ``optimize`` (as called by ``Connection``)
``quack.executor``     ``execute_plan`` (as called by ``Connection``)
``core`` (payload)     ``ScalarFunction.evaluate`` and ``CastFunction.apply``
                       of extension functions; extension aggregates'
                       ``step`` / ``step_batch`` / ``final``
``index``              ``RTree.search`` / ``RTree.search_batch``
``quack.io``           ``read_csv``
``quack.catalog``      ``Table.append_rows``
``quack.stats``        ``analyze_table``
``quack.storage``      ``write_database`` / ``read_database``,
                       ``encode_segment`` / ``decode_segment``
``observability``      ``Connection.execute`` (its self time is the
                       per-query bookkeeping around the phases)
=====================  ====================================================

Builtin engine functions (comparisons, arithmetic) are not wrapped: their
time stays in the executor's self time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

#: layer of each span-name prefix
LAYERS = {
    "parse": "quack.sql",
    "bind": "quack.binder",
    "optimize": "quack.optimizer",
    "execute": "quack.executor",
    "fn": "core",
    "cast": "core",
    "agg": "core",
    "rtree": "index",
    "read_csv": "quack.io",
    "append_rows": "quack.catalog",
    "analyze_table": "quack.stats",
    "write_database": "quack.storage.write",
    "read_database": "quack.storage.read",
    "encode_segment": "quack.storage.encode",
    "decode_segment": "quack.storage.decode",
    "query": "observability",
}


class EngineFunctions:
    """Signatures the bare engine registers; every other function, cast
    or aggregate a connection knows is extension payload."""

    def __init__(self):
        from repro.quack import Database

        registry = Database().functions
        self.scalars = {
            (name, tuple(t.name for t in fn.arg_types))
            for name, overloads in registry._scalars.items()
            for fn in overloads
        }
        self.casts = set(registry._casts)
        self.aggregates = set(registry._aggregates)
        self._memo: dict[int, bool] = {}

    def scalar_is_payload(self, fn) -> bool:
        key = id(fn)
        hit = self._memo.get(key)
        if hit is None:
            hit = (fn.name.lower(), tuple(t.name for t in fn.arg_types)
                   ) not in self.scalars
            self._memo[key] = hit
        return hit

    def cast_is_payload(self, cast) -> bool:
        return (cast.source.name, cast.target.name) not in self.casts


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.name_of: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.name_id: list[int] = []
        self.rows: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.codec_bytes: dict[str, int] = defaultdict(int)
        self.engine = EngineFunctions()
        #: program counters summed over the traced queries
        self.counters: dict[str, int] = defaultdict(int)
        #: result rows of the traced queries that probed an index
        self.index_hits = 0

    # -- recording -------------------------------------------------------------

    def _begin(self, name: str) -> int:
        nid = self.names.get(name)
        if nid is None:
            nid = self.names[name] = len(self.name_of)
            self.name_of.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.rows.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _end(self, index: int, rows: int = 0) -> None:
        self.end[index] = time.perf_counter_ns()
        self.rows[index] = rows
        while self._stack and self._stack.pop() != index:
            pass

    def span(self, name: str, fn, rows_of=None):
        """``fn`` wrapped in a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._begin(name)
            rows = 0
            try:
                result = fn(*args, **kwargs)
                if rows_of is not None:
                    rows = rows_of(args, result)
                return result
            finally:
                tracer._end(index, rows)

        return wrapper

    def span_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._begin(name)
            try:
                yield from fn(*args, **kwargs)
            finally:
                tracer._end(index)

        return wrapper

    def _absorb(self, args, result) -> int:
        """Fold one query's ``Result.stats()`` counters into the run's."""
        stats = result.stats()
        if stats is not None:
            for name, value in stats.counters.items():
                self.counters[name] += value
            if stats.counters.get("index.trtree.probes"):
                self.index_hits += len(result)
        return len(result)

    # -- installing the wrappers ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self, registries=()) -> None:
        """Wrap every entry point; ``registries`` are the function
        registries whose extension aggregates are wrapped too."""
        from repro.index import rtree
        from repro.quack import binder, catalog, database, functions, io
        from repro.quack import stats, storage

        tracer = self
        engine = self.engine
        self._patch(database, "parse_sql",
                    self.span("parse", database.parse_sql))
        self._patch(binder.Binder, "bind_select",
                    self.span("bind", binder.Binder.bind_select))
        self._patch(database, "optimize",
                    self.span("optimize", database.optimize))
        self._patch(database, "execute_plan",
                    self.span_generator("execute", database.execute_plan))
        self._patch(database.Connection, "execute",
                    self.span("query", database.Connection.execute,
                              rows_of=self._absorb))

        evaluate = functions.ScalarFunction.evaluate

        @functools.wraps(evaluate)
        def traced_evaluate(fn, args, count):
            if not engine.scalar_is_payload(fn):
                return evaluate(fn, args, count)
            index = tracer._begin(f"fn:{fn.name}")
            try:
                return evaluate(fn, args, count)
            finally:
                tracer._end(index, count)

        self._patch(functions.ScalarFunction, "evaluate", traced_evaluate)

        apply = functions.CastFunction.apply

        @functools.wraps(apply)
        def traced_apply(cast, value):
            if not engine.cast_is_payload(cast):
                return apply(cast, value)
            index = tracer._begin(f"cast:{cast.target.name}")
            try:
                return apply(cast, value)
            finally:
                tracer._end(index, 1)

        self._patch(functions.CastFunction, "apply", traced_apply)

        for registry in registries:
            for overloads in registry._aggregates.values():
                for agg in overloads:
                    if agg.name.lower() in engine.aggregates:
                        continue
                    for attr in ("step", "step_batch", "final"):
                        if getattr(agg, attr) is not None:
                            self._patch(agg, attr, self.span(
                                f"agg:{agg.name}", getattr(agg, attr)))

        self._patch(rtree.RTree, "search",
                    self.span("rtree.search", rtree.RTree.search))
        self._patch(rtree.RTree, "search_batch",
                    self.span("rtree.search_batch", rtree.RTree.search_batch))
        self._patch(io, "read_csv", self.span("read_csv", io.read_csv))
        self._patch(catalog.Table, "append_rows",
                    self.span("append_rows", catalog.Table.append_rows,
                              rows_of=lambda a, r: len(a[1])))
        self._patch(stats, "analyze_table",
                    self.span("analyze_table", stats.analyze_table))
        self._patch(storage, "write_database",
                    self.span("write_database", storage.write_database))
        self._patch(storage, "read_database",
                    self.span("read_database", storage.read_database))

        def encoded(args, result):
            codec, payload, _ = result
            tracer.codec_bytes[codec] += len(payload)
            return len(payload)

        self._patch(storage, "encode_segment",
                    self.span("encode_segment", storage.encode_segment,
                              rows_of=encoded))
        self._patch(storage, "decode_segment",
                    self.span("decode_segment", storage.decode_segment,
                              rows_of=lambda a, r: len(a[1])))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        covered = np.zeros(len(start), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return {
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "name_id": np.array(self.name_id, dtype=np.int64),
            "rows": np.array(self.rows, dtype=np.int64),
            "self_ns": duration - covered,
        }

    def summary(self, scale=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, and self time in ms; ``scale``
        maps span start times (perf_counter seconds) to the factors that
        normalize them to the reference speed."""
        arrays = self.arrays()
        self_ms = arrays["self_ns"] / 1e6
        if scale is not None and len(self_ms):
            self_ms = self_ms * scale(arrays["start_ns"] / 1e9)
        out: dict[str, dict[str, float]] = {}
        ids = arrays["name_id"]
        for nid, name in enumerate(self.name_of):
            mask = ids == nid
            out[name] = {
                "calls": float(mask.sum()),
                "rows": float(arrays["rows"][mask].sum()),
                "self_ms": float(self_ms[mask].sum()),
            }
        return out

    def write(self, path: str) -> None:
        """Write every span (and the name table) as a compressed .npz."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.name_of),
                            **self.arrays())


def layer_of(name: str) -> str:
    return LAYERS.get(name.split(":", 1)[0].split(".", 1)[0], "other")


def layer_self_ms(summary: dict) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, entry in summary.items():
        out[layer_of(name)] += entry["self_ms"]
    return dict(out)
