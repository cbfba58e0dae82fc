"""``gps-ingest``: the §6.2 load-analyse-export pipeline on a GPS feed.

Set-up generates the dataset and exports its trips as noisy, time-ordered
GPS observations in two CSV files (the noise is drawn from the seed).
One round, on a fresh database each time:

1. ``read_csv`` the first file and assemble ``tgeompoint`` trips in SQL
   (``tgeompointSeq(list(tgeompoint(ST_Point(x, y), ts)))``);
2. ``ATTACH`` a new ``.quackdb`` file and ``CHECKPOINT`` to it;
3. ``ATTACH`` it in a fresh connection and run two cold queries: the
   07:00-08:00 window of the first day on the observations (zone maps
   prune it; the step's time includes the ``ATTACH``) and
   ``sum(length(Trip))`` over every trip;
4. append the second file (the trips of the last day) to the attached
   tables and ``CHECKPOINT`` to a second new file.

Rounds repeat until the steps have run for ``--seconds``, whether or not
they succeed; a round stops at its first failed step.
Each step is one checked operation: the read-back must match plain NumPy
over the exported observations, and the attached file must answer
exactly as the in-memory tables did before ``CHECKPOINT``.

The second ``CHECKPOINT`` names a new file: checkpointing an attached
database onto the file it was attached from destroys that file (see
CHANGES.md).
"""

from __future__ import annotations

import os
import time

import numpy as np

from .answers import close_float
from .data import DATASET_SEED, SCALE, format_ts, gps_feed, raw_from_dataset
from .harness import FaultInjector, RunConfig, RunOutput
from .layers import layer_metrics
from .measure import (
    Samples,
    SpeedProbe,
    Tally,
    WALL_LIMIT,
    end_to_end,
    keep_going,
    median,
    raw_figures,
    settle,
    timed_setups,
)
from .tracing import Tracer

SETUP_REPEATS = 7
HOUR_US = 3600 * 1_000_000

BUILD_TRIPS = (
    "{verb} trips{columns} SELECT vehicle, tripid, "
    "tgeompointSeq(list(tgeompoint(ST_Point(x, y), ts))) AS Trip "
    "FROM {source} GROUP BY vehicle, tripid"
)
READ_BACK = ("SELECT tripid, vehicle, numInstants(Trip), length(Trip) "
             "FROM trips ORDER BY tripid")


class FeedReference:
    """Counts, per-trip instants and lengths, and window counts computed
    from the exported observations alone."""

    def __init__(self, batches: list[np.ndarray], window: tuple[int, int]):
        self.after_load = self._trips(batches[:1])
        self.after_append = self._trips(batches)
        self.rows_load = len(batches[0])
        self.rows_total = sum(len(b) for b in batches)
        ts = batches[0]["ts"]
        self.window_count = int(((ts >= window[0]) & (ts <= window[1])).sum())
        self.length_load = sum(v[2] for v in self.after_load.values())

    @staticmethod
    def _trips(batches) -> dict[int, tuple[int, int, float]]:
        rows = np.concatenate(batches)
        rows = rows[np.lexsort((rows["ts"], rows["tripid"]))]
        out = {}
        starts = np.flatnonzero(np.r_[True, np.diff(rows["tripid"]) != 0])
        for lo, hi in zip(starts, np.r_[starts[1:], len(rows)]):
            part = rows[lo:hi]
            length = float(np.hypot(np.diff(part["x"]),
                                    np.diff(part["y"])).sum())
            out[int(part["tripid"][0])] = (int(part["vehicle"][0]),
                                           hi - lo, length)
        return out

    @staticmethod
    def check_trips(rows, expected) -> str | None:
        if len(rows) != len(expected):
            return f"{len(rows)} trips read back, expected {len(expected)}"
        for trip_id, vehicle, instants, length in rows:
            want = expected.get(trip_id)
            if want is None:
                return f"unexpected trip {trip_id}"
            if (vehicle, instants) != want[:2]:
                return (f"trip {trip_id}: vehicle/instants "
                        f"{(vehicle, instants)}, expected {want[:2]}")
            if not close_float(length, want[2]):
                return f"trip {trip_id}: length {length}, expected {want[2]}"
        return None


def _first_problem(*problems: str | None) -> str | None:
    return next((p for p in problems if p is not None), None)


def run(cfg: RunConfig) -> RunOutput:
    from repro import core
    from repro.berlinmod import generate
    from repro.quack import io as quack_io

    scale_factor = SCALE[cfg.size]["ingest"]
    probe = SpeedProbe()
    generated, exported = Samples(), Samples()

    def setup():
        start = time.perf_counter()
        dataset = generate(scale_factor, seed=DATASET_SEED)
        middle = time.perf_counter()
        feed = gps_feed(raw_from_dataset(dataset), cfg.seed, cfg.workdir)
        generated.add("generate", middle - start, start)
        exported.add("export", time.perf_counter() - middle, middle)
        return feed

    feed, setup_s, setup_raw = timed_setups(setup, SETUP_REPEATS, probe)
    # The morning commute hour (07:00-08:00) of the first day: the same
    # window, and so the same row groups, in every run.
    day = int(feed.batches[0]["ts"][0]) // (24 * HOUR_US) * (24 * HOUR_US)
    window = (day + 7 * HOUR_US, day + 8 * HOUR_US)
    reference = FeedReference(feed.batches, window)
    window_sql = ("SELECT count(*) FROM obs WHERE ts BETWEEN "
                  f"'{format_ts(window[0])}'::TIMESTAMP AND "
                  f"'{format_ts(window[1])}'::TIMESTAMP")
    total_sql = "SELECT sum(length(Trip)) FROM trips"
    tally = Tally()
    fault = FaultInjector(cfg.fault)
    tracer = Tracer() if cfg.trace else None

    def fresh_path(name: str) -> str:
        path = os.path.join(cfg.workdir, name)
        if os.path.exists(path):
            os.remove(path)
        return path

    def step(record: dict, label: str, action, verify) -> bool:
        """Run and time one step, then check what ``action`` returned.
        A step that raises, in the action or in its check, is a failed
        operation; its time still counts towards the run length."""
        probe.maybe()
        start = time.perf_counter()
        try:
            value = action()
        except Exception as exc:  # counted, the round stops
            record["spent"] += time.perf_counter() - start
            tally.raised(label, exc)
            return False
        elapsed = time.perf_counter() - start
        record["spent"] += elapsed
        record["steps"].append((label, elapsed, start))
        try:
            problem = verify(value)
        except Exception as exc:  # counted, the round stops
            tally.raised(label, exc)
            return False
        return tally.check(label, problem)

    def one_round(record: dict) -> bool:
        record["steps"] = []
        record["spent"] = 0.0
        first_path = fresh_path("round.quackdb")
        second_path = fresh_path("round-appended.quackdb")
        con = core.connect()
        attached = core.connect()

        def load():
            quack_io.read_csv(con, feed.paths[0], "obs")
            con.execute(BUILD_TRIPS.format(verb="CREATE TABLE", columns=" AS",
                                           source="obs"))

        in_memory: dict = {}

        def check_load(_):
            in_memory["rows"] = con.execute(READ_BACK).fetchall()
            in_memory["count"] = con.execute(
                "SELECT count(*) FROM obs").fetchall()
            return _first_problem(
                reference.check_trips(in_memory["rows"],
                                      reference.after_load),
                None if in_memory["count"] == [(reference.rows_load,)]
                else f"{in_memory['count']} observations loaded",
            )

        def checkpoint():
            con.execute(f"ATTACH '{first_path}'")
            con.execute("CHECKPOINT")

        def cold_window():
            attached.execute(f"ATTACH '{first_path}'")
            if fault.active("lose_row_after_attach"):
                fault.fired = True
                attached.database.catalog.get_table("obs").delete_rows([0])
            return attached.execute(window_sql)

        if not step(record, "load", load, check_load):
            return False
        if not step(record, "checkpoint", checkpoint,
                    lambda _: None if os.path.getsize(first_path) > 0
                    else "empty file"):
            return False

        def check_window(result):
            got = result.fetchall()
            return (None if got == [(reference.window_count,)]
                    else f"window count {got}, expected "
                         f"{reference.window_count}")

        def check_total(result):
            total = result.fetchall()[0][0]
            back = attached.execute(READ_BACK).fetchall()
            count = attached.execute("SELECT count(*) FROM obs").fetchall()
            return _first_problem(
                None if close_float(total, reference.length_load)
                else f"total length {total}, expected "
                     f"{reference.length_load}",
                None if back == in_memory["rows"]
                else "attached trips differ from the in-memory tables",
                None if count == in_memory["count"]
                else f"attached file holds {count} observations, "
                     f"in memory {in_memory['count']}",
            )

        if not step(record, "cold-window", cold_window, check_window):
            return False
        if not step(record, "cold-total",
                    lambda: attached.execute(total_sql), check_total):
            return False

        def append():
            start = time.perf_counter()
            quack_io.read_csv(attached, feed.paths[1], "obs_new")
            attached.execute("INSERT INTO obs SELECT * FROM obs_new")
            attached.execute(BUILD_TRIPS.format(verb="INSERT INTO",
                                                columns="", source="obs_new"))
            attached.execute("DROP TABLE obs_new")
            middle = time.perf_counter()
            attached.execute(f"CHECKPOINT '{second_path}'")
            record["append_ingest_s"] = middle - start
            record["append_checkpoint_s"] = time.perf_counter() - middle

        def check_append(_):
            record["file_bytes"] = os.path.getsize(second_path)
            reopened = core.connect()
            reopened.execute(f"ATTACH '{second_path}'")
            back = reopened.execute(READ_BACK).fetchall()
            count = reopened.execute("SELECT count(*) FROM obs").fetchall()
            return _first_problem(
                reference.check_trips(back, reference.after_append),
                None if count == [(reference.rows_total,)]
                else f"{count} observations after append, expected "
                     f"{reference.rows_total}",
            )

        return step(record, "append-checkpoint", append, check_append)

    one_round({})
    records: dict[bool, list[dict]] = {False: [], True: []}
    spent = 0.0
    rounds = 0
    began = time.perf_counter()
    deadline = began + WALL_LIMIT * cfg.seconds
    while keep_going(rounds, 2, spent, cfg.seconds, deadline):
        traced = cfg.trace and rounds % 2 == 1
        record: dict = {}
        settle()
        if traced:
            tracer.install()
        try:
            complete = one_round(record)
        finally:
            if traced:
                tracer.remove()
        spent += record["spent"]
        rounds += 1
        if complete:
            records[traced].append(record)
    wall_s = time.perf_counter() - began

    details = {
        "scale_factor": scale_factor,
        "dataset_seed": DATASET_SEED,
        "observations": [len(b) for b in feed.batches],
        "csv_bytes": feed.csv_bytes(),
        "window": [format_ts(window[0]), format_ts(window[1])],
        "window_count": reference.window_count,
        "rounds": rounds,
        "timed_s": spent,
        "wall_s": wall_s,
        "setup_s_all": setup_s,
        "failures": tally.reasons,
    }
    probe.probe()
    if not records[False] or (cfg.trace and not records[True]):
        return RunOutput(tally, {}, details)  # no round completed
    samples = {traced: Samples() for traced in records}
    for traced, rounds_done in records.items():
        for record in rounds_done:
            for label, seconds, start in record["steps"]:
                samples[traced].add(label, seconds, start)
    if cfg.trace:
        overhead = (samples[False].ops_per_s(probe)
                    / samples[True].ops_per_s(probe) - 1)
        tracer.write(f"{cfg.outdir}/trace-gps-ingest-seed{cfg.seed}.npz")
        details["spans"] = len(tracer.start)
        # The set-up step after generation here is the CSV export.
        metrics = layer_metrics(tracer, probe, len(samples[True]),
                                median(generated.values(probe)),
                                median(exported.values(probe)), overhead)
        return RunOutput(tally, metrics, details)
    details.update(workload_figures(records[False], probe, reference,
                                    feed.csv_bytes()))
    details["per_step_median_ms"] = samples[False].kind_medians_ms(probe)
    details["raw"] = raw_figures(samples[False], setup_raw)
    return RunOutput(tally, end_to_end(samples[False], probe, setup_s),
                     details)


def workload_figures(records: list[dict], probe: SpeedProbe,
                     reference: FeedReference, csv_bytes: int) -> dict:
    """The pipeline's own figures, normalized like the metrics: rows
    ingested per second (CSV to assembled trips, both batches), seconds
    checkpointing per round, the mean cold-query latency, and file bytes
    per CSV byte."""
    ingest, checkpoint, cold, size = [], [], [], []
    for record in records:
        steps = {label: (seconds, float(probe.scale(start + seconds / 2.0)))
                 for label, seconds, start in record["steps"]}
        load, load_scale = steps["load"]
        first, first_scale = steps["checkpoint"]
        _, append_scale = steps["append-checkpoint"]
        ingest.append(reference.rows_total / (
            load * load_scale + record["append_ingest_s"] * append_scale))
        checkpoint.append(first * first_scale
                          + record["append_checkpoint_s"] * append_scale)
        cold.append(500.0 * sum(steps[k][0] * steps[k][1]
                                for k in ("cold-window", "cold-total")))
        size.append(record["file_bytes"] / csv_bytes)
    return {"ingest_rows_per_s": median(ingest),
            "checkpoint_s": median(checkpoint),
            "cold_query_ms": median(cold),
            "bytes_per_input_byte": median(size)}
