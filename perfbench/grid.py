"""``fig12-grid``: the 17 BerlinMOD-Hanoi queries of Figure 12.

Closed loop, one client.  After one pass that warms the connection, the
run makes whole passes over all 17 queries, each pass in an order drawn
from the seed, until the queries have run for ``--seconds``.  No ANALYZE
runs, as in Figure 12.  Every result is checked against the independent
answers of :mod:`perfbench.reference` (outside the timed intervals).
"""

from __future__ import annotations

import random
import time

from .berlin import load_berlinmod
from .data import DATASET_SEED, raw_from_dataset, read_params
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
)
from .reference import GridReference, canonical_row, describe
from .tracing import Tracer


def run(cfg: RunConfig) -> RunOutput:
    from repro.berlinmod import QUERIES

    probe = SpeedProbe()
    loaded = load_berlinmod(cfg.size, with_index=False, probe=probe)
    con = loaded.con
    reference = GridReference(raw_from_dataset(loaded.dataset),
                              read_params(con))
    tally = Tally()
    fault = FaultInjector(cfg.fault)
    rng = random.Random(cfg.seed)
    #: the timed queries, untraced and traced
    samples = {False: Samples(), True: Samples()}
    tracer = Tracer() if cfg.trace else None

    def one_pass(timed: bool, traced: bool) -> float:
        order = rng.sample(QUERIES, len(QUERIES))
        settle()
        if traced:
            tracer.install([con.database.functions])
        spent = 0.0
        try:
            for query in order:
                label = f"Q{query.number}"
                probe.maybe()
                start = time.perf_counter()
                try:
                    rows = con.execute(query.sql).fetchall()
                except Exception as exc:  # counted, the run goes on
                    spent += time.perf_counter() - start
                    tally.raised(label, exc)
                    continue
                elapsed = time.perf_counter() - start
                spent += elapsed
                if timed:
                    samples[traced].add(label, elapsed, start)
                canonical = fault.rows([canonical_row(r) for r in rows])
                tally.check(label,
                            reference.answers[query.number].check(canonical))
        finally:
            if traced:
                tracer.remove()
        return spent

    one_pass(timed=False, traced=False)
    passes = 0
    spent = 0.0
    began = time.perf_counter()
    deadline = began + WALL_LIMIT * cfg.seconds
    while keep_going(passes, 2, spent, cfg.seconds, deadline):
        spent += one_pass(timed=True, traced=cfg.trace and passes % 2 == 1)
        passes += 1
    wall_s = time.perf_counter() - began
    probe.probe()

    details = {
        "scale_factor": loaded.scale_factor,
        "dataset_seed": DATASET_SEED,
        "passes": passes,
        "timed_s": spent,
        "wall_s": wall_s,
        "setup_s_all": loaded.setup_s,
        "reference": describe(reference),
        "failures": tally.reasons,
    }
    if not samples[False] or (cfg.trace and not samples[True]):
        return RunOutput(tally, {}, details)  # no timed operation completed
    if cfg.trace:
        overhead = (samples[False].ops_per_s(probe)
                    / samples[True].ops_per_s(probe) - 1)
        tracer.write(f"{cfg.outdir}/trace-fig12-grid-seed{cfg.seed}.npz")
        details["spans"] = len(tracer.start)
        metrics = layer_metrics(tracer, probe, len(samples[True]),
                                median(loaded.generate_s),
                                median(loaded.load_s), overhead)
        return RunOutput(tally, metrics, details)
    details["per_query_median_ms"] = samples[False].kind_medians_ms(probe)
    details["raw"] = raw_figures(samples[False], loaded.setup_raw)
    return RunOutput(tally,
                     end_to_end(samples[False], probe, loaded.setup_s),
                     details)
