"""Independent answers to the 17 BerlinMOD-Hanoi queries.

Each answer is computed with plain NumPy from the generator's raw trip
arrays and the parameter tables (:mod:`perfbench.data`), following the
query's SQL literally: interpolation at instants, clipping to closed
periods, point-segment, segment-segment and segment-polygon distances,
and the synchronized distance of two moving points (per synchronized
segment the separation is linear in time, so its minimum and the times
it stays under a threshold have closed forms).  Decisions within
:data:`~perfbench.geometry.BAND` of their threshold are left undecided.

:func:`canonical_row` turns a program row into plain values (points to
``(x, y)``, spans to bounds) before comparison.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from .answers import (
    FALSE,
    MAYBE,
    TRUE,
    Expected,
    TriSet,
    close_float,
    close_point,
    close_time,
    close_windows,
    decide_le,
    set_answer,
    tri_and,
    tri_not,
)
from .data import Params, RawData
from .geometry import (
    BAND,
    HIT,
    ConvexPolygon,
    Sync,
    Track,
    clip,
    first_time_at,
    point_segment_distance,
    point_track_distance,
    position_at,
    segment_set_distance,
    track_of,
)


def canonical_value(value: Any) -> Any:
    """Plain Python values for program outputs (duck-typed)."""
    if hasattr(value, "spans"):
        return [(float(s.lower), float(s.upper)) for s in value.spans]
    if hasattr(value, "lower_inc") and hasattr(value, "upper"):
        return (int(value.lower), int(value.upper))
    if hasattr(value, "x") and hasattr(value, "y") and not isinstance(
            value, (int, float)):
        return (float(value.x), float(value.y))
    return value


def canonical_row(row: tuple) -> tuple:
    return tuple(canonical_value(v) for v in row)


def _point_state(d: float) -> int:
    if d <= HIT:
        return TRUE
    if d <= BAND:
        return MAYBE
    return FALSE


def _depth_state(depth: float) -> int:
    """Polygon membership from a depth (see ConvexPolygon): inside when
    deeper than the band, outside when further out than it."""
    if depth > BAND:
        return TRUE
    if depth < -BAND:
        return FALSE
    return MAYBE


class GridReference:
    """Reference answers for one dataset; ``answers[q]`` for q in 1..17."""

    def __init__(self, raw: RawData, params: Params):
        self.raw = raw
        self.p = params
        self.tracks = [track_of(t) for t in raw.trips]
        self.vehicle_of = np.array([t.vehicle_id for t in raw.trips])
        self.t0 = np.array([t.t0 for t in raw.trips], dtype=np.int64)
        self.t1 = np.array([t.t1 for t in raw.trips], dtype=np.int64)
        self.by_vehicle: dict[int, list[int]] = {}
        for i, trip in enumerate(raw.trips):
            self.by_vehicle.setdefault(trip.vehicle_id, []).append(i)
        self.licence = {v.vehicle_id: v.licence
                        for v in raw.vehicles.values()}
        self.vtype = {v.vehicle_id: v.vehicle_type
                      for v in raw.vehicles.values()}
        self.regions1 = [(rid, ConvexPolygon(ring))
                         for rid, ring in params.regions1]
        self._clips: dict[tuple[int, int, int], Track | None] = {}
        self._build_segments()
        self.answers: dict[int, Expected] = {}
        for number in range(1, 18):
            self.answers[number] = getattr(self, f"q{number}")()

    # -- shared pieces -----------------------------------------------------------

    def _build_segments(self) -> None:
        segs = [track.segments() for track in self.tracks]
        self.seg_owner = np.concatenate(
            [np.full(len(s), i) for i, s in enumerate(segs)])
        self.seg_start = np.cumsum([0] + [len(s) for s in segs[:-1]])
        self.segs = np.concatenate(segs)

    def _distances_to_trips(self, px: float, py: float) -> np.ndarray:
        """Distance from a point to every trip's polyline."""
        s = self.segs
        d = point_segment_distance(px, py, s[:, 0], s[:, 1], s[:, 2],
                                   s[:, 3])
        return np.minimum.reduceat(d, self.seg_start)

    def _clip(self, i: int, lo: int, hi: int) -> Track | None:
        key = (i, lo, hi)
        if key not in self._clips:
            self._clips[key] = clip(self.tracks[i], lo, hi)
        return self._clips[key]

    def _overlapping(self, lo: int, hi: int) -> np.ndarray:
        return np.nonzero((self.t0 <= hi) & (self.t1 >= lo))[0]

    def _containing(self, ts: int) -> np.ndarray:
        return np.nonzero((self.t0 <= ts) & (self.t1 >= ts))[0]

    def _lic(self, i: int) -> str:
        return self.licence[int(self.vehicle_of[i])]

    # -- the queries ---------------------------------------------------------------

    def q1(self) -> Expected:
        by_licence = {v.licence: v for v in self.raw.vehicles.values()}
        rows = {(lic, by_licence[lic].model)
                for lic, _ in self.p.licences1 if lic in by_licence}
        return set_answer(rows, order_by=lambda r: r[0])

    def q2(self) -> Expected:
        n = sum(1 for v in self.raw.vehicles.values()
                if v.vehicle_type == "passenger")
        return set_answer({(n,)})

    def q3(self) -> Expected:
        rows: dict[tuple, list] = {}
        for lic, vid in self.p.licences1:
            for iid, ts in self.p.instants1:
                for i in self.by_vehicle.get(vid, []):
                    pos = position_at(self.tracks[i], ts)
                    if pos is None:
                        continue
                    values = rows.setdefault((lic, iid, ts), [])
                    if not any(close_point(pos, v) for v in values):
                        values.append(pos)
        return Expected(rows, split=lambda r: (r[:3], r[3]),
                        close=close_point, order_by=lambda r: r[:2])

    def q4(self) -> Expected:
        found = TriSet()
        for pid, px, py in self.p.points1:
            d = self._distances_to_trips(px, py)
            for i in np.nonzero(d <= BAND)[0]:
                found.add((pid, self._lic(i)), _point_state(float(d[i])))
        return found.answer(order_by=lambda r: r)

    def q5(self) -> Expected:
        def segments(vid: int) -> np.ndarray | None:
            idx = self.by_vehicle.get(vid)
            if not idx:
                return None
            return np.concatenate([self.tracks[i].segments() for i in idx])

        rows = {}
        for lic1, v1 in self.p.licences1:
            s1 = segments(v1)
            for lic2, v2 in self.p.licences2:
                s2 = segments(v2)
                if s1 is None or s2 is None:
                    continue
                rows[(lic1, lic2)] = [segment_set_distance(s1, s2)]
        return Expected(rows, split=lambda r: (r[:2], r[2]),
                        close=close_float, order_by=lambda r: r[:2])

    def _pair_within(self, i: int, j: int, r: float) -> tuple[int, float]:
        """eDwithin of two whole trips: state and minimum distance."""
        if self.t0[i] > self.t1[j] or self.t0[j] > self.t1[i]:
            return FALSE, math.inf
        d = Sync(self.tracks[i], self.tracks[j]).min_distance()
        return decide_le(d, r, BAND), (math.inf if d is None else d)

    def q6(self) -> Expected:
        trucks = sorted(v for v, kind in self.vtype.items()
                        if kind == "truck")
        found = TriSet()
        nearest = math.inf
        for a in trucks:
            for b in trucks:
                if a >= b:
                    continue
                for i in self.by_vehicle.get(a, []):
                    for j in self.by_vehicle.get(b, []):
                        state, d = self._pair_within(i, j, 10.0)
                        nearest = min(nearest, d)
                        found.add((self.licence[a], self.licence[b]), state)
        return found.answer(order_by=lambda r: r,
                            notes={"min_truck_sync_distance_m": nearest})

    def q7(self) -> Expected:
        first: dict[tuple[int, str], float] = {}
        undecided_points: set[int] = set()
        geoms = {pid: (px, py) for pid, px, py in self.p.points1}
        for pid, px, py in self.p.points1:
            d = self._distances_to_trips(px, py)
            for i in np.nonzero(d <= BAND)[0]:
                vid = int(self.vehicle_of[i])
                if self.vtype[vid] != "passenger":
                    continue
                t, undecided = first_time_at(self.tracks[i], px, py)
                if undecided:
                    undecided_points.add(pid)
                if t is None:
                    continue
                key = (pid, self.licence[vid])
                first[key] = min(first.get(key, math.inf), t)
        rows: dict[tuple, list] = {}
        optional = set()
        for pid in geoms:
            times = {lic: t for (p, lic), t in first.items() if p == pid}
            if not times:
                continue
            earliest = min(times.values())
            for lic, t in times.items():
                key = (lic, pid, geoms[pid])
                if pid in undecided_points or (
                        t != earliest and close_time(t, earliest)):
                    optional.add(key)
                elif t == earliest:
                    rows[key] = [t]
        return Expected(rows, split=lambda r: (r[:3], r[3]),
                        close=close_time, order_by=lambda r: (r[1], r[0]),
                        optional=optional)

    def _period_lengths(self, vids, lo: int, hi: int) -> dict[int, float]:
        out: dict[int, float] = {}
        for i in self._overlapping(lo, hi):
            vid = int(self.vehicle_of[i])
            if vids is not None and vid not in vids:
                continue
            piece = self._clip(int(i), lo, hi)
            out[vid] = out.get(vid, 0.0) + piece.length()
        return out

    def q8(self) -> Expected:
        rows = {}
        for pid, lo, hi in self.p.periods1:
            vids = {vid for _, vid in self.p.licences1}
            lengths = self._period_lengths(vids, lo, hi)
            for lic, vid in self.p.licences1:
                if vid in lengths:
                    rows[(lic, pid, (lo, hi))] = [lengths[vid]]
        return Expected(rows, split=lambda r: (r[:3], r[3]),
                        close=close_float, order_by=lambda r: r[:2])

    def q9(self) -> Expected:
        rows = {}
        for pid, lo, hi in self.p.periods:
            lengths = self._period_lengths(None, lo, hi)
            if lengths:
                rows[pid] = [max(lengths.values())]
        return Expected(rows, split=lambda r: (r[0], r[1]),
                        close=close_float, order_by=lambda r: r[0])

    def q10(self) -> Expected:
        rows: dict[tuple, list] = {}
        optional = set()
        boxes = np.array([t.bbox() for t in self.raw.trips])
        for lic, vid in self.p.licences1:
            for i in self.by_vehicle.get(vid, []):
                xmin, ymin, xmax, ymax = boxes[i]
                near = np.nonzero(
                    (self.vehicle_of != vid)
                    & (self.t0 <= self.t1[i]) & (self.t1 >= self.t0[i])
                    & (boxes[:, 0] <= xmax + 3.0 + BAND)
                    & (boxes[:, 2] >= xmin - 3.0 - BAND)
                    & (boxes[:, 1] <= ymax + 3.0 + BAND)
                    & (boxes[:, 3] >= ymin - 3.0 - BAND))[0]
                for j in near:
                    sync = Sync(self.tracks[i], self.tracks[int(j)])
                    if sync.empty:
                        continue
                    minima = sync.segment_minima()
                    key = (lic, int(self.vehicle_of[j]))
                    if np.any(np.abs(minima - 3.0) <= BAND):
                        optional.add(key)
                    if minima.min() < 3.0:
                        rows.setdefault(key, []).append(
                            sync.windows_within(3.0))
        for key in optional:
            rows.pop(key, None)
        return Expected(rows, split=lambda r: (r[:2], r[2]),
                        close=close_windows,
                        value_order=lambda w: (w[0][0], len(w)),
                        order_by=lambda r: r[:2], optional=optional)

    def _instant_positions(self, ts: int):
        """(trip index, x, y) of every trip defined at ``ts``."""
        out = []
        for i in self._containing(ts):
            pos = position_at(self.tracks[int(i)], ts)
            out.append((int(i), pos[0], pos[1]))
        return out

    def q11(self) -> Expected:
        found = TriSet()
        nearest = math.inf
        for pid, px, py in self.p.points1:
            for iid, ts in self.p.instants1:
                for i, x, y in self._instant_positions(ts):
                    d = math.hypot(x - px, y - py)
                    nearest = min(nearest, d)
                    found.add((pid, iid, self._lic(i)),
                              decide_le(d, 30.0, BAND))
        return found.answer(order_by=lambda r: r,
                            notes={"min_point_distance_m": nearest})

    def q12(self) -> Expected:
        found = TriSet()
        nearest = math.inf
        for pid, px, py in self.p.points1:
            for iid, ts in self.p.instants1:
                near: dict[int, int] = {}
                for i, x, y in self._instant_positions(ts):
                    d = math.hypot(x - px, y - py)
                    nearest = min(nearest, d)
                    state = decide_le(d, 30.0, BAND)
                    vid = int(self.vehicle_of[i])
                    if state == TRUE or near.get(vid) == TRUE:
                        near[vid] = TRUE
                    elif state == MAYBE:
                        near[vid] = MAYBE
                for a, sa in near.items():
                    for b, sb in near.items():
                        if a < b:
                            found.add((pid, iid, self.licence[a],
                                       self.licence[b]), tri_and(sa, sb))
        return found.answer(order_by=lambda r: r,
                            notes={"min_point_distance_m": nearest})

    def _clip_in_region(self, i: int, lo: int, hi: int,
                        poly: ConvexPolygon, cache: dict) -> int:
        key = (i, lo, hi, id(poly))
        if key not in cache:
            piece = self._clip(i, lo, hi)
            cache[key] = (FALSE if piece is None else
                          _depth_state(poly.max_depth(piece)))
        return cache[key]

    def q13(self) -> Expected:
        found = TriSet()
        cache: dict = {}
        for rid, poly in self.regions1:
            for pid, lo, hi in self.p.periods1:
                for i in self._overlapping(lo, hi):
                    state = self._clip_in_region(int(i), lo, hi, poly, cache)
                    found.add((rid, pid, self._lic(i)), state)
        self._region_cache = cache
        return found.answer(order_by=lambda r: r)

    def q14(self) -> Expected:
        found = TriSet()
        for rid, poly in self.regions1:
            for iid, ts in self.p.instants1:
                for i, x, y in self._instant_positions(ts):
                    state = _depth_state(float(poly.depth(x, y)))
                    found.add((rid, iid, self._lic(i)), state)
        return found.answer(order_by=lambda r: r)

    def q15(self) -> Expected:
        found = TriSet()
        for ptid, px, py in self.p.points1:
            for pid, lo, hi in self.p.periods1:
                for i in self._overlapping(lo, hi):
                    piece = self._clip(int(i), lo, hi)
                    d = point_track_distance(px, py, piece)
                    found.add((ptid, pid, self._lic(i)), _point_state(d))
        return found.answer(order_by=lambda r: r)

    def q16(self) -> Expected:
        found = TriSet()
        cache = self._region_cache
        for pid, lo, hi in self.p.periods1:
            overlapping = set(int(i) for i in self._overlapping(lo, hi))
            for lic1, v1 in self.p.licences1:
                trips1 = [i for i in self.by_vehicle.get(v1, [])
                          if i in overlapping]
                for lic2, v2 in self.p.licences2:
                    if v1 == v2:
                        continue
                    trips2 = [j for j in self.by_vehicle.get(v2, [])
                              if j in overlapping]
                    if not trips1 or not trips2:
                        continue
                    meets = {}
                    for i in trips1:
                        for j in trips2:
                            sync = Sync(self._clip(i, lo, hi),
                                        self._clip(j, lo, hi))
                            meets[(i, j)] = decide_le(
                                sync.min_distance(), 3.0, BAND)
                    for rid, poly in self.regions1:
                        for (i, j), meet in meets.items():
                            state = tri_and(
                                self._clip_in_region(i, lo, hi, poly, cache),
                                self._clip_in_region(j, lo, hi, poly, cache),
                                tri_not(meet),
                            )
                            found.add((rid, pid, lic1, lic2), state)
        return found.answer(order_by=lambda r: r)

    def q17(self) -> Expected:
        lower: dict[int, int] = {}
        upper: dict[int, int] = {}
        for pid, px, py in self.p.points:
            d = self._distances_to_trips(px, py)
            states: dict[int, int] = {}
            for i in np.nonzero(d <= 1.0 + BAND)[0]:
                vid = int(self.vehicle_of[i])
                state = decide_le(float(d[i]), 1.0, BAND)
                if states.get(vid) != TRUE:
                    states[vid] = state
            sure = sum(1 for s in states.values() if s == TRUE)
            maybe = sum(1 for s in states.values() if s == MAYBE)
            if sure + maybe:
                lower[pid], upper[pid] = sure, sure + maybe
        if not lower:
            return set_answer(set())
        if lower == upper:
            best = max(lower.values())
            return set_answer({(pid, h) for pid, h in lower.items()
                               if h == best}, order_by=lambda r: r[0])
        optional = {(pid, h) for pid in lower
                    for h in range(max(1, lower[pid]), upper[pid] + 1)}
        return set_answer(set(), optional, order_by=lambda r: r[0])


def describe(reference: GridReference) -> dict:
    """Sizes of the reference answers, and the evidence behind the empty
    ones, for the run's details."""
    out = {}
    for number, answer in reference.answers.items():
        entry = {"rows": sum(len(v) for v in answer.rows.values()),
                 "undecided": len(answer.optional)}
        entry.update(answer.notes)
        out[f"Q{number}"] = entry
    return out
