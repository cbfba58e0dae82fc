"""``trip-lookups``: short questions about single vehicles.

Closed loop, one client, on the same BerlinMOD-Hanoi database as the grid
plus a ``TRTREE`` index on one ``stbox`` per trip.  The run makes whole
rounds of four questions, one of each kind in an order drawn from the
seed, with parameters drawn from the seed:

* ``licence``  -- licence -> vehicle id and model;
* ``position`` -- a vehicle's position at an instant during one of its
  trips (``valueAtTimestamp``);
* ``distance`` -- the distance a vehicle travelled in a period of 15 to
  120 minutes (``length(atTime(...))``);
* ``window``   -- trips whose box meets a square window of 200 to 1600 m
  (``&&`` through the TRTREE index).

Each answer is checked against plain NumPy over the raw trips.
"""

from __future__ import annotations

import random
import time

import numpy as np

from .answers import (
    Expected,
    close_float,
    close_point,
    set_answer,
)
from .berlin import load_berlinmod
from .data import DATASET_SEED, format_ts, raw_from_dataset
from .geometry import BAND, clip, position_at, track_of
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
    percentile,
    raw_figures,
    settle,
)
from .reference import canonical_row
from .tracing import Tracer

KINDS = ("licence", "position", "distance", "window")
WARMUP_ROUNDS = 25
#: The traced run alternates blocks of this many untraced and traced
#: rounds.
TRACE_BLOCK = 50
HOUR_US = 3600 * 1_000_000


class Stream:
    """Draws lookups and their independent answers from the seed."""

    def __init__(self, raw, seed: int):
        self.rng = random.Random(seed)
        self.vehicles = sorted(raw.vehicles.values(),
                               key=lambda v: v.vehicle_id)
        self.licences = [v.licence for v in self.vehicles]
        self.trips = raw.trips
        self.tracks = [track_of(t) for t in raw.trips]
        self.by_vehicle: dict[int, list[int]] = {}
        for i, trip in enumerate(raw.trips):
            self.by_vehicle.setdefault(trip.vehicle_id, []).append(i)
        self.boxes = np.array([t.bbox() for t in raw.trips])
        self.trip_ids = np.array([t.trip_id for t in raw.trips])

    def round(self) -> list[tuple[str, str, Expected, str | None]]:
        kinds = self.rng.sample(KINDS, len(KINDS))
        return [getattr(self, kind)() for kind in kinds]

    def licence(self):
        vehicle = self.rng.choice(self.vehicles)
        sql = ("SELECT VehicleId, Model FROM Vehicles "
               f"WHERE Licence = '{vehicle.licence}'")
        answer = set_answer({(vehicle.vehicle_id, vehicle.model)})
        return "licence", sql, answer, vehicle.licence

    def position(self):
        i = self.rng.randrange(len(self.trips))
        trip = self.trips[i]
        ts = self.rng.randint(trip.t0, trip.t1)
        positions = [position_at(self.tracks[j], ts)
                     for j in self.by_vehicle[trip.vehicle_id]]
        literal = f"'{format_ts(ts)}'::TIMESTAMPTZ"
        sql = (f"SELECT valueAtTimestamp(Trip, {literal})::GEOMETRY "
               f"FROM Trips WHERE VehicleId = {trip.vehicle_id} "
               f"AND Trip::tstzspan @> {literal}")
        found = [p for p in positions if p is not None]
        answer = Expected({(): found} if found else {},
                          split=lambda r: ((), r[0]), close=close_point)
        return "position", sql, answer, None

    def distance(self):
        trip = self.trips[self.rng.randrange(len(self.trips))]
        lo = self.rng.randint(trip.t0 - HOUR_US, trip.t1)
        hi = lo + self.rng.randint(15, 120) * 60 * 1_000_000
        pieces = [clip(self.tracks[j], lo, hi)
                  for j in self.by_vehicle[trip.vehicle_id]]
        pieces = [p for p in pieces if p is not None]
        total = sum(p.length() for p in pieces) if pieces else None
        span = f"'[{format_ts(lo)}, {format_ts(hi)}]'::TSTZSPAN"
        sql = (f"SELECT SUM(length(atTime(Trip, {span}))) FROM Trips "
               f"WHERE VehicleId = {trip.vehicle_id} AND Trip && {span}")
        answer = Expected({(): [total]}, split=lambda r: ((), r[0]),
                          close=close_float)
        return "distance", sql, answer, None

    def window(self):
        track = self.tracks[self.rng.randrange(len(self.tracks))]
        k = self.rng.randrange(len(track.t))
        half = self.rng.uniform(100.0, 800.0)
        corners = [f"{v:.1f}" for v in (track.x[k] - half, track.y[k] - half,
                                         track.x[k] + half, track.y[k] + half)]
        x1, y1, x2, y2 = (float(c) for c in corners)
        b = self.boxes
        gap = np.maximum.reduce([b[:, 0] - x2, x1 - b[:, 2],
                                 b[:, 1] - y2, y1 - b[:, 3]])
        sure = {(int(t),) for t in self.trip_ids[gap < -BAND]}
        maybe = {(int(t),) for t in self.trip_ids[np.abs(gap) <= BAND]}
        sql = ("SELECT TripId FROM TripBoxes WHERE Box && "
               f"STBOX('STBOX X(({corners[0]},{corners[1]}),"
               f"({corners[2]},{corners[3]}))')")
        return "window", sql, set_answer(sure, maybe), None


def run(cfg: RunConfig) -> RunOutput:
    probe = SpeedProbe()
    loaded = load_berlinmod(cfg.size, with_index=True, probe=probe)
    con = loaded.con
    stream = Stream(raw_from_dataset(loaded.dataset), cfg.seed)
    tally = Tally()
    fault = FaultInjector(cfg.fault)
    #: the timed lookups, untraced and traced, and their phases
    samples = {False: Samples(), True: Samples()}
    phases = Samples()
    tracer = Tracer() if cfg.trace else None

    def one_round(timed: bool, traced: bool) -> float:
        spent = 0.0
        for kind, sql, answer, licence in stream.round():
            if licence is not None:
                sql = sql.replace(licence,
                                  fault.licence(licence, stream.licences))
            probe.maybe()
            start = time.perf_counter()
            try:
                result = con.execute(sql)
            except Exception as exc:  # counted, the run goes on
                spent += time.perf_counter() - start
                tally.raised(kind, exc)
                continue
            elapsed = time.perf_counter() - start
            spent += elapsed
            if timed:
                samples[traced].add(kind, elapsed, start)
                if not traced:
                    stats = result.stats()
                    for phase, seconds in stats.phase_seconds().items():
                        phases.add(f"{kind}.{phase}", seconds, start)
            rows = fault.rows([canonical_row(r) for r in result.fetchall()])
            tally.check(kind, answer.check(rows))
        return spent

    for _ in range(WARMUP_ROUNDS):
        one_round(timed=False, traced=False)
    settle()
    rounds = 0
    spent = 0.0
    began = time.perf_counter()
    deadline = began + WALL_LIMIT * cfg.seconds
    minimum = 2 * TRACE_BLOCK if cfg.trace else 2
    while keep_going(rounds, minimum, spent, cfg.seconds, deadline):
        traced = cfg.trace and (rounds // TRACE_BLOCK) % 2 == 1
        if traced:
            tracer.install([con.database.functions])
        try:
            spent += one_round(timed=True, traced=traced)
        finally:
            if traced:
                tracer.remove()
        rounds += 1
    wall_s = time.perf_counter() - began
    probe.probe()

    details = {
        "scale_factor": loaded.scale_factor,
        "dataset_seed": DATASET_SEED,
        "rounds": rounds,
        "timed_s": spent,
        "wall_s": wall_s,
        "setup_s_all": loaded.setup_s,
        "failures": tally.reasons,
    }
    if not samples[False] or (cfg.trace and not samples[True]):
        return RunOutput(tally, {}, details)  # no timed operation completed
    if cfg.trace:
        overhead = (samples[False].ops_per_s(probe)
                    / samples[True].ops_per_s(probe) - 1)
        tracer.write(f"{cfg.outdir}/trace-trip-lookups-seed{cfg.seed}.npz")
        details["spans"] = len(tracer.start)
        metrics = layer_metrics(tracer, probe, len(samples[True]),
                                median(loaded.generate_s),
                                median(loaded.load_s), overhead)
        return RunOutput(tally, metrics, details)
    details["samples"] = len(samples[False])
    details["latency_p99_ms"] = percentile(
        samples[False].values(probe), 99) * 1000.0
    details["per_kind_median_ms"] = samples[False].kind_medians_ms(probe)
    details["phase_median_ms"] = phases.kind_medians_ms(probe)
    details["raw"] = raw_figures(samples[False], loaded.setup_raw)
    return RunOutput(tally,
                     end_to_end(samples[False], probe, loaded.setup_s),
                     details)
