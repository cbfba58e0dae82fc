"""Plain NumPy geometry over raw trip arrays, for the reference answers.

Nothing here calls the program.  Trips are linear interpolations between
their instants (integer microseconds, float metres); periods and spans are
closed.  Functions that decide a predicate against a threshold also
return how far the deciding quantity lies from it, so that the caller
can treat decisions inside :data:`BAND` as undetermined: the program and
this module round differently, and a distance within a micrometre of its
threshold may go either way.
"""

from __future__ import annotations

import numpy as np

#: Width (m) of the undecided band around a distance threshold or a
#: polygon boundary.
BAND = 1e-6

#: A point lies on a line when closer than this (m); the program uses
#: 1e-9.  Values between HIT and BAND are undecided.
HIT = 1e-10


class Track:
    """A piece of a trip: strictly increasing times with positions."""

    __slots__ = ("t", "x", "y")

    def __init__(self, t: np.ndarray, x: np.ndarray, y: np.ndarray):
        self.t = t
        self.x = x
        self.y = y

    @property
    def t0(self) -> float:
        return float(self.t[0])

    @property
    def t1(self) -> float:
        return float(self.t[-1])

    def length(self) -> float:
        if len(self.t) < 2:
            return 0.0
        return float(np.hypot(np.diff(self.x), np.diff(self.y)).sum())

    def segments(self) -> np.ndarray:
        """(n, 4) array of segment endpoints ``ax, ay, bx, by``; a single
        instant gives one zero-length segment."""
        if len(self.t) == 1:
            return np.array([[self.x[0], self.y[0], self.x[0], self.y[0]]])
        return np.column_stack((self.x[:-1], self.y[:-1],
                                self.x[1:], self.y[1:]))


def track_of(trip) -> Track:
    return Track(trip.t, trip.x, trip.y)


def position_at(track: Track, ts: int) -> tuple[float, float] | None:
    """Interpolated position at ``ts``; None outside the closed span."""
    if ts < track.t[0] or ts > track.t[-1]:
        return None
    k = int(np.searchsorted(track.t, ts, side="right")) - 1
    if k >= len(track.t) - 1 or track.t[k] == ts:
        k = min(k, len(track.t) - 1)
        return float(track.x[k]), float(track.y[k])
    frac = (ts - track.t[k]) / (track.t[k + 1] - track.t[k])
    return (float(track.x[k] + (track.x[k + 1] - track.x[k]) * frac),
            float(track.y[k] + (track.y[k + 1] - track.y[k]) * frac))


def clip(track: Track, lo: int, hi: int) -> Track | None:
    """The part of ``track`` inside the closed period ``[lo, hi]``."""
    if hi < track.t[0] or lo > track.t[-1]:
        return None
    a = max(lo, int(track.t[0]))
    b = min(hi, int(track.t[-1]))
    t = track.t
    if a == b:
        times = np.array([a], dtype=np.float64)
    else:
        inner = t[(t > a) & (t < b)]
        times = np.concatenate(([a], inner, [b])).astype(np.float64)
    tf = t.astype(np.float64)
    return Track(times, np.interp(times, tf, track.x),
                 np.interp(times, tf, track.y))


def point_segment_distance(px, py, ax, ay, bx, by):
    """Broadcasting distance from points to segments."""
    dx = bx - ax
    dy = by - ay
    len2 = dx * dx + dy * dy
    safe = np.where(len2 > 0.0, len2, 1.0)
    s = np.clip(((px - ax) * dx + (py - ay) * dy) / safe, 0.0, 1.0)
    s = np.where(len2 > 0.0, s, 0.0)
    return np.hypot(px - (ax + s * dx), py - (ay + s * dy))


def point_track_distance(px: float, py: float, track: Track) -> float:
    seg = track.segments()
    return float(point_segment_distance(px, py, seg[:, 0], seg[:, 1],
                                        seg[:, 2], seg[:, 3]).min())


def first_time_at(track: Track, px: float, py: float
                  ) -> tuple[float | None, bool]:
    """First time the track is at the point, and whether a pass within
    the undecided band exists (then the answer may differ)."""
    seg = track.segments()
    d = point_segment_distance(px, py, seg[:, 0], seg[:, 1], seg[:, 2],
                               seg[:, 3])
    undecided = bool(((d > HIT) & (d <= BAND)).any())
    hits = np.nonzero(d <= HIT)[0]
    if len(hits) == 0:
        return None, undecided
    k = int(hits[0])
    if len(track.t) == 1:
        return track.t0, undecided
    ax, ay, bx, by = seg[k]
    len2 = (bx - ax) ** 2 + (by - ay) ** 2
    s = 0.0 if len2 == 0.0 else min(1.0, max(
        0.0, ((px - ax) * (bx - ax) + (py - ay) * (by - ay)) / len2))
    if np.hypot(px - ax, py - ay) <= HIT:
        s = 0.0
    t0 = float(track.t[k])
    return t0 + s * (float(track.t[k + 1]) - t0), undecided


def segment_set_distance(a: np.ndarray, b: np.ndarray,
                         block: int = 256) -> float:
    """Minimum distance between two sets of segments ((n, 4) arrays)."""
    best = np.inf
    bx0, by0, bx1, by1 = (b[:, i][None, :] for i in range(4))
    for start in range(0, len(a), block):
        part = a[start:start + block]
        ax0, ay0, ax1, ay1 = (part[:, i][:, None] for i in range(4))
        d = np.minimum.reduce([
            point_segment_distance(ax0, ay0, bx0, by0, bx1, by1),
            point_segment_distance(ax1, ay1, bx0, by0, bx1, by1),
            point_segment_distance(bx0, by0, ax0, ay0, ax1, ay1),
            point_segment_distance(bx1, by1, ax0, ay0, ax1, ay1),
        ])
        o1 = _orient(ax0, ay0, ax1, ay1, bx0, by0)
        o2 = _orient(ax0, ay0, ax1, ay1, bx1, by1)
        o3 = _orient(bx0, by0, bx1, by1, ax0, ay0)
        o4 = _orient(bx0, by0, bx1, by1, ax1, ay1)
        crossing = (o1 * o2 < 0) & (o3 * o4 < 0)
        d = np.where(crossing, 0.0, d)
        best = min(best, float(d.min()))
    return best


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


class ConvexPolygon:
    """A convex polygon as inward half-planes; depth is the signed
    distance to the nearest edge line (positive inside)."""

    def __init__(self, ring: np.ndarray):
        pts = np.asarray(ring, dtype=np.float64)
        if len(pts) > 1 and np.array_equal(pts[0], pts[-1]):
            pts = pts[:-1]
        if len(pts) < 3:
            raise ValueError("polygon needs three vertices")
        nxt = np.roll(pts, -1, axis=0)
        edge = nxt - pts
        area2 = float(np.sum(pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]))
        sign = 1.0 if area2 > 0 else -1.0
        normal = sign * np.column_stack((-edge[:, 1], edge[:, 0]))
        normal /= np.hypot(normal[:, 0], normal[:, 1])[:, None]
        cross = edge[:, 0] * np.roll(edge[:, 1], -1) - edge[:, 1] * np.roll(
            edge[:, 0], -1)
        if not (np.all(sign * cross > 0)):
            raise ValueError("reference polygons must be convex")
        self.normal = normal
        self.offset = np.sum(normal * pts, axis=1)

    def depth(self, px, py):
        px = np.asarray(px, dtype=np.float64)[..., None]
        py = np.asarray(py, dtype=np.float64)[..., None]
        return (self.normal[:, 0] * px + self.normal[:, 1] * py
                - self.offset).min(axis=-1)

    def max_depth(self, track: Track) -> float:
        """Largest depth reached anywhere along the track (>= 0 means the
        track intersects the closed polygon)."""
        if len(track.t) == 1:
            return float(self.depth(track.x[0], track.y[0]))
        n = self.normal
        ax, ay = track.x[:-1, None], track.y[:-1, None]
        alpha = n[:, 0] * ax + n[:, 1] * ay - self.offset  # (s, k)
        beta = (n[:, 0] * (track.x[1:, None] - ax)
                + n[:, 1] * (track.y[1:, None] - ay))
        i, j = np.triu_indices(n.shape[0], 1)
        denom = beta[:, i] - beta[:, j]
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (alpha[:, j] - alpha[:, i]) / denom
        s = np.where(np.isfinite(s), np.clip(s, 0.0, 1.0), 0.0)
        cands = np.concatenate(
            (np.zeros((len(alpha), 1)), np.ones((len(alpha), 1)), s), axis=1)
        values = (alpha[:, None, :] + beta[:, None, :] * cands[:, :, None])
        return float(values.min(axis=2).max())


class Sync:
    """Two tracks aligned on the union of their instants over their
    common closed period; ``dx, dy`` is their separation."""

    def __init__(self, a: Track, b: Track):
        lo = max(a.t0, b.t0)
        hi = min(a.t1, b.t1)
        self.empty = lo > hi
        if self.empty:
            return
        if lo == hi:
            times = np.array([lo])
        else:
            times = np.unique(np.concatenate((
                [lo, hi],
                a.t[(a.t > lo) & (a.t < hi)],
                b.t[(b.t > lo) & (b.t < hi)],
            )).astype(np.float64))
        at = a.t.astype(np.float64)
        bt = b.t.astype(np.float64)
        self.t = times
        self.dx = np.interp(times, at, a.x) - np.interp(times, bt, b.x)
        self.dy = np.interp(times, at, a.y) - np.interp(times, bt, b.y)

    def segment_minima(self) -> np.ndarray:
        if len(self.t) == 1:
            return np.hypot(self.dx, self.dy)
        d0x, d0y = self.dx[:-1], self.dy[:-1]
        ddx, ddy = np.diff(self.dx), np.diff(self.dy)
        a = ddx * ddx + ddy * ddy
        safe = np.where(a > 0.0, a, 1.0)
        s = np.where(a > 0.0,
                     np.clip(-(d0x * ddx + d0y * ddy) / safe, 0.0, 1.0), 0.0)
        return np.hypot(d0x + s * ddx, d0y + s * ddy)

    def min_distance(self) -> float | None:
        if self.empty:
            return None
        return float(self.segment_minima().min())

    def windows_within(self, r: float) -> list[tuple[float, float]]:
        """Closed time intervals during which the separation is <= r,
        merged across segment boundaries."""
        if self.empty:
            return []
        if len(self.t) == 1:
            within = np.hypot(self.dx[0], self.dy[0]) <= r
            return [(self.t[0], self.t[0])] if within else []
        out: list[tuple[float, float]] = []
        d0x, d0y = self.dx[:-1], self.dy[:-1]
        ddx, ddy = np.diff(self.dx), np.diff(self.dy)
        qa = ddx * ddx + ddy * ddy
        qb = 2.0 * (d0x * ddx + d0y * ddy)
        qc = d0x * d0x + d0y * d0y - r * r
        for k in range(len(qa)):
            t0, t1 = self.t[k], self.t[k + 1]
            if qa[k] <= 1e-18:
                if qc[k] <= 0.0:
                    _merge(out, t0, t1)
                continue
            disc = qb[k] * qb[k] - 4.0 * qa[k] * qc[k]
            if disc < 0.0:
                continue
            root = np.sqrt(disc)
            s_lo = max(0.0, (-qb[k] - root) / (2.0 * qa[k]))
            s_hi = min(1.0, (-qb[k] + root) / (2.0 * qa[k]))
            if s_lo > s_hi:
                continue
            _merge(out, t0 + s_lo * (t1 - t0), t0 + s_hi * (t1 - t0))
        return out


def _merge(windows: list[tuple[float, float]], lo: float, hi: float) -> None:
    if windows and lo <= windows[-1][1] + 1.0:
        windows[-1] = (windows[-1][0], max(windows[-1][1], hi))
    else:
        windows.append((lo, hi))
