"""Inputs of the benchmark: the BerlinMOD-Hanoi dataset, its raw arrays,
the query parameters, and the GPS feed of the ingest workload.

The city, road network and trips come from the program's generator with
a fixed dataset seed (:data:`DATASET_SEED`, the seed of the Figure 12
benchmark), so every run measures the same data.  The ``--seed`` of a run
draws everything the workload asks of that data: the order of the grid
passes, the stream of lookups, and the GPS noise of the ingest feed.

The raw arrays (:class:`RawTrip`) are read from the generator's instants
before anything is loaded into the program; the reference answers are
computed from them alone.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

#: Generator seed of the measured dataset (the Figure 12 default).
DATASET_SEED = 4711

#: Scale factors of the measured runs and of the benchmark's own tests.
SCALE = {
    "bench": {"berlinmod": 0.001, "ingest": 0.002},
    "tiny": {"berlinmod": 0.0002, "ingest": 0.0002},
}

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def format_ts(usecs: int) -> str:
    """``YYYY-MM-DD HH:MM:SS.ffffff+00`` for integer microseconds."""
    moment = _EPOCH + timedelta(microseconds=int(usecs))
    return moment.strftime("%Y-%m-%d %H:%M:%S.%f") + "+00"


@dataclass
class RawTrip:
    trip_id: int
    vehicle_id: int
    day: int
    t: np.ndarray  # int64 microseconds, strictly increasing
    x: np.ndarray
    y: np.ndarray

    @property
    def t0(self) -> int:
        return int(self.t[0])

    @property
    def t1(self) -> int:
        return int(self.t[-1])

    def bbox(self) -> tuple[float, float, float, float]:
        return (float(self.x.min()), float(self.y.min()),
                float(self.x.max()), float(self.y.max()))


@dataclass
class RawVehicle:
    vehicle_id: int
    licence: str
    vehicle_type: str
    model: str


@dataclass
class RawData:
    """What the generator produced, as plain arrays."""

    vehicles: dict[int, RawVehicle]
    trips: list[RawTrip]


def raw_from_dataset(dataset) -> RawData:
    vehicles = {
        v.vehicle_id: RawVehicle(v.vehicle_id, v.licence, v.vehicle_type,
                                 v.model)
        for v in dataset.vehicles
    }
    epoch = datetime(1970, 1, 1).date()
    trips = []
    for trip in dataset.trips:
        instants = trip.trip.instants()
        trips.append(RawTrip(
            trip.trip_id, trip.vehicle_id, (trip.day - epoch).days,
            np.array([i.t for i in instants], dtype=np.int64),
            np.array([i.value.x for i in instants], dtype=np.float64),
            np.array([i.value.y for i in instants], dtype=np.float64),
        ))
    return RawData(vehicles, trips)


# ---------------------------------------------------------------------------
# Query parameters (read back from the loaded parameter tables)
# ---------------------------------------------------------------------------


@dataclass
class Params:
    licences1: list[tuple[str, int]]
    licences2: list[tuple[str, int]]
    instants1: list[tuple[int, int]]
    periods1: list[tuple[int, int, int]]
    periods: list[tuple[int, int, int]]
    points1: list[tuple[int, float, float]]
    points: list[tuple[int, float, float]]
    regions1: list[tuple[int, np.ndarray]]


def read_params(con) -> Params:
    """The BerlinMOD parameter tables as plain values.

    They are inputs of the queries, drawn by the loader; reading them is
    a plain scan and no part of any answer being checked."""

    def rows(sql: str) -> list[tuple]:
        return con.execute(sql).fetchall()

    def periods(table: str) -> list[tuple[int, int, int]]:
        out = []
        for pid, span in rows(f"SELECT PeriodId, Period FROM {table}"):
            if not (span.lower_inc and span.upper_inc):
                raise ValueError(f"{table}: expected closed periods")
            out.append((int(pid), int(span.lower), int(span.upper)))
        return out

    def points(table: str) -> list[tuple[int, float, float]]:
        return [(int(pid), float(g.x), float(g.y))
                for pid, g in rows(f"SELECT PointId, Geom FROM {table}")]

    return Params(
        licences1=[(lic, int(vid)) for _, lic, vid in
                   rows("SELECT LicenceId, Licence, VehicleId "
                        "FROM Licences1")],
        licences2=[(lic, int(vid)) for _, lic, vid in
                   rows("SELECT LicenceId, Licence, VehicleId "
                        "FROM Licences2")],
        instants1=[(int(i), int(t)) for i, t in
                   rows("SELECT InstantId, Instant FROM Instants1")],
        periods1=periods("Periods1"),
        periods=periods("Periods"),
        points1=points("Points1"),
        points=points("Points"),
        regions1=[(int(rid), np.array(g.shell, dtype=np.float64))
                  for rid, g in
                  rows("SELECT RegionId, Geom FROM Regions1")],
    )


# ---------------------------------------------------------------------------
# The GPS feed of the ingest workload
# ---------------------------------------------------------------------------

#: Standard deviation of the GPS noise added to every coordinate (m).
GPS_NOISE_M = 2.0

CSV_HEADER = ("vehicle", "tripid", "ts", "x", "y")


@dataclass
class GpsFeed:
    """Time-ordered observations, split into the initial load and the
    appended batch (the trips of the last observation day)."""

    batches: list[np.ndarray]  # structured rows per batch
    paths: list[str]

    def csv_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in self.paths)


_OBS_DTYPE = np.dtype([("vehicle", np.int64), ("tripid", np.int64),
                       ("ts", np.int64), ("x", np.float64),
                       ("y", np.float64)])


def gps_feed(raw: RawData, seed: int, workdir: str) -> GpsFeed:
    """Export the trips as noisy, time-ordered GPS observations in two
    CSV files; the noise is drawn from ``seed``."""
    rng = np.random.default_rng([seed, 17])
    last_day = max(trip.day for trip in raw.trips)
    parts: list[list[np.ndarray]] = [[], []]
    for trip in raw.trips:
        rows = np.empty(len(trip.t), dtype=_OBS_DTYPE)
        rows["vehicle"] = trip.vehicle_id
        rows["tripid"] = trip.trip_id
        rows["ts"] = trip.t
        rows["x"] = trip.x + rng.normal(0.0, GPS_NOISE_M, len(trip.t))
        rows["y"] = trip.y + rng.normal(0.0, GPS_NOISE_M, len(trip.t))
        parts[1 if trip.day == last_day else 0].append(rows)
    batches = []
    paths = []
    for index, part in enumerate(parts):
        rows = np.concatenate(part)
        rows = rows[np.lexsort((rows["tripid"], rows["ts"]))]
        path = os.path.join(workdir, f"gps_batch{index}.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            for v, trip_id, ts, x, y in rows.tolist():
                writer.writerow((v, trip_id, format_ts(ts), repr(x),
                                 repr(y)))
        batches.append(rows)
        paths.append(path)
    return GpsFeed(batches, paths)
