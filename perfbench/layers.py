"""Per-layer metrics of a traced run.

Times are self times in milliseconds per operation (a grid query, a
lookup, or an ingest pipeline step, by workload); counts are per operation;
shares and ratios are taken over the whole traced part of the run.  A
layer a workload does not reach reports 0.
"""

from __future__ import annotations

from .measure import SpeedProbe, metric
from .tracing import Tracer, layer_self_ms

#: Extension functions timed one by one (the BerlinMOD hot set).
HOT_FUNCTIONS = (
    "atTime", "valueAtTimestamp", "eIntersects", "ST_DWithin", "eDwithin",
    "tDwithin", "expandSpace", "trajectory", "length", "ST_Intersects",
    "ST_Contains", "tgeompoint", "tgeompointSeq",
)
#: Casts timed one by one: metric stem -> target type.
HOT_CASTS = {"cast_tstzspan": "TSTZSPAN", "cast_stbox": "STBOX"}
#: Segment codecs of the storage layer.
CODECS = ("bitpack", "delta", "raw", "dict", "pickle")


def _stems() -> list[str]:
    return [*HOT_FUNCTIONS, *HOT_CASTS]


#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("berlinmod.generate_s", "s", "lower"),
    ("berlinmod.load_s", "s", "lower"),
    ("quack.sql.parse_ms", "ms/op", "lower"),
    ("quack.binder.bind_ms", "ms/op", "lower"),
    ("quack.optimizer.optimize_ms", "ms/op", "lower"),
    ("quack.optimizer.plans_without_stats", "count/op", "lower"),
    ("quack.stats.analyze_ms", "ms/op", "lower"),
    ("quack.executor.self_ms", "ms/op", "lower"),
    ("quack.executor.payload_rows_per_result_row", "ratio", "lower"),
    ("quack.kernels.batch_share", "share", "higher"),
    ("quack.kernels.fallback_ops", "count/op", "lower"),
    ("quack.kernels.bbox_decided_share", "share", "higher"),
    ("quack.kernels.join_probe_rows", "count/op", "lower"),
    ("quack.kernels.memo_rows", "count/op", "higher"),
    ("core.payload_ms", "ms/op", "lower"),
    ("core.payload_calls", "count/op", "lower"),
    ("core.payload_rows", "count/op", "lower"),
    *[(f"core.fn.{stem}.{kind}", unit, "lower")
      for stem in _stems()
      for kind, unit in (("ms", "ms/op"), ("rows", "count/op"))],
    ("index.rtree.search_ms", "ms/op", "lower"),
    ("index.rtree.nodes_per_search", "ratio", "lower"),
    ("index.rtree.candidates_per_hit", "ratio", "lower"),
    ("quack.io.read_csv_ms", "ms/op", "lower"),
    ("quack.catalog.append_ms", "ms/op", "lower"),
    ("quack.storage.write_ms", "ms/op", "lower"),
    ("quack.storage.encode_ms", "ms/op", "lower"),
    *[(f"quack.storage.bytes_written.{codec}", "bytes/op", "lower")
      for codec in CODECS],
    ("quack.storage.read_ms", "ms/op", "lower"),
    ("quack.storage.decode_ms", "ms/op", "lower"),
    ("quack.storage.segments_decoded", "count/op", "lower"),
    ("quack.storage.bytes_read", "bytes/op", "lower"),
    ("quack.storage.rowgroups_skipped_share", "share", "higher"),
    ("observability.per_query_ms", "ms/query", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, probe: SpeedProbe, ops: int,
                  generate_s: float, load_s: float,
                  overhead_share: float) -> dict:
    """Every per-layer metric from the spans and counters of the traced
    operations (``ops`` of them); times are normalized to the probe's
    reference speed."""
    summary = tracer.summary(probe.scale)
    layer_ms = layer_self_ms(summary)
    c = tracer.counters
    values: dict[str, float] = {
        "berlinmod.generate_s": generate_s,
        "berlinmod.load_s": load_s,
        "quack.optimizer.plans_without_stats":
            c["optimizer.cbo.stats_missing"] / ops,
        "quack.kernels.fallback_ops": c["quack.fallback_ops"] / ops,
        "quack.kernels.join_probe_rows": c["executor.join_probe_rows"] / ops,
        "quack.kernels.memo_rows":
            (c["quack.scalar_memo_rows"] + c["quack.cast_memo_rows"]) / ops,
        "trace.overhead_share": overhead_share,
    }
    for name, layer in (
        ("quack.sql.parse_ms", "quack.sql"),
        ("quack.binder.bind_ms", "quack.binder"),
        ("quack.optimizer.optimize_ms", "quack.optimizer"),
        ("quack.stats.analyze_ms", "quack.stats"),
        ("quack.executor.self_ms", "quack.executor"),
        ("core.payload_ms", "core"),
        ("index.rtree.search_ms", "index"),
        ("quack.io.read_csv_ms", "quack.io"),
        ("quack.catalog.append_ms", "quack.catalog"),
        ("quack.storage.write_ms", "quack.storage.write"),
        ("quack.storage.encode_ms", "quack.storage.encode"),
        ("quack.storage.read_ms", "quack.storage.read"),
        ("quack.storage.decode_ms", "quack.storage.decode"),
    ):
        values[name] = layer_ms.get(layer, 0.0) / ops

    payload = {n: e for n, e in summary.items()
               if n.split(":", 1)[0] in ("fn", "cast", "agg")}
    payload_rows = sum(e["rows"] for e in payload.values())
    values["core.payload_calls"] = sum(
        e["calls"] for e in payload.values()) / ops
    values["core.payload_rows"] = payload_rows / ops
    values["quack.executor.payload_rows_per_result_row"] = _ratio(
        payload_rows, c["executor.rows_returned"])
    by_lower = {n.lower(): e for n, e in payload.items()}
    for stem in HOT_FUNCTIONS:
        entry = by_lower.get(f"fn:{stem.lower()}",
                             {"self_ms": 0.0, "rows": 0.0})
        values[f"core.fn.{stem}.ms"] = entry["self_ms"] / ops
        values[f"core.fn.{stem}.rows"] = entry["rows"] / ops
    for stem, target in HOT_CASTS.items():
        entry = payload.get(f"cast:{target}", {"self_ms": 0.0, "rows": 0.0})
        values[f"core.fn.{stem}.ms"] = entry["self_ms"] / ops
        values[f"core.fn.{stem}.rows"] = entry["rows"] / ops

    batch = c["quack.kernel_ops"] + c["quack.function_batch_ops"]
    values["quack.kernels.batch_share"] = _ratio(
        batch, batch + c["quack.fallback_ops"])
    values["quack.kernels.bbox_decided_share"] = _ratio(
        c["quack.bbox_rows_decided"],
        c["quack.bbox_rows_decided"] + c["quack.bbox_rows_scalar"])
    values["index.rtree.nodes_per_search"] = _ratio(
        c["rtree.nodes_visited"] + c["rtree.batch_nodes_visited"],
        c["rtree.searches"] + c["rtree.batch_probes"])
    values["index.rtree.candidates_per_hit"] = _ratio(
        c["index.trtree.candidates"], tracer.index_hits)
    for codec in CODECS:
        values[f"quack.storage.bytes_written.{codec}"] = (
            tracer.codec_bytes.get(codec, 0) / ops)
    values["quack.storage.segments_decoded"] = (
        c["storage.segments_decoded"] / ops)
    values["quack.storage.bytes_read"] = c["storage.bytes_read"] / ops
    values["quack.storage.rowgroups_skipped_share"] = _ratio(
        c["storage.rowgroups_skipped"],
        c["storage.rowgroups_skipped"] + c["storage.rowgroups_scanned"])
    query = summary.get("query", {"self_ms": 0.0, "calls": 0.0})
    values["observability.per_query_ms"] = _ratio(query["self_ms"],
                                                  query["calls"])
    return {name: metric(values[name], unit) for name, unit, _ in PER_LAYER}
