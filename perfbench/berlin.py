"""Set-up shared by the workloads that query a loaded BerlinMOD-Hanoi
database: generate, load, and (for lookups) build the TRTREE index."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .data import DATASET_SEED, SCALE
from .measure import Samples, SpeedProbe, timed_setups

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7

#: One stbox per trip, indexed with the paper's TRTREE (§4).
INDEX_DDL = (
    "CREATE TABLE TripBoxes AS "
    "SELECT TripId, VehicleId, Trip::STBOX AS Box FROM Trips",
    "CREATE INDEX tripboxes_box_rtree ON TripBoxes USING TRTREE(Box)",
)


@dataclass
class Loaded:
    dataset: object
    con: object
    scale_factor: float
    #: set-up durations, normalized and as measured
    setup_s: list[float]
    setup_raw: list[float]
    #: per set-up: generator and loader seconds (normalized)
    generate_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)


def load_berlinmod(size: str, with_index: bool, probe: SpeedProbe) -> Loaded:
    """Generate and load the dataset ``SETUP_REPEATS`` times from a
    settled heap; keeps the last database.  All durations are normalized
    to the probe's reference speed."""
    from repro import core
    from repro.berlinmod import generate, load_dataset

    scale_factor = SCALE[size]["berlinmod"]
    generated, loaded = Samples(), Samples()

    def once():
        start = time.perf_counter()
        dataset = generate(scale_factor, seed=DATASET_SEED)
        middle = time.perf_counter()
        con = core.connect()
        load_dataset(con, dataset)
        if with_index:
            for ddl in INDEX_DDL:
                con.execute(ddl)
        generated.add("generate", middle - start, start)
        loaded.add("load", time.perf_counter() - middle, middle)
        return dataset, con

    (dataset, con), durations, raw = timed_setups(once, SETUP_REPEATS,
                                                  probe)
    return Loaded(dataset, con, scale_factor, durations, raw,
                  generated.values(probe).tolist(),
                  loaded.values(probe).tolist())
