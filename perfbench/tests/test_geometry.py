"""The reference geometry on cases small enough to work out by hand."""

import math

import numpy as np
import pytest

from perfbench.geometry import (
    ConvexPolygon,
    Sync,
    Track,
    clip,
    first_time_at,
    position_at,
    segment_set_distance,
)


def track(points):
    t, x, y = zip(*points)
    return Track(np.array(t, dtype=np.int64), np.array(x, dtype=float),
                 np.array(y, dtype=float))


def test_position_interpolates_and_respects_closed_bounds():
    a = track([(0, 0.0, 0.0), (10, 10.0, 0.0), (20, 10.0, 10.0)])
    assert position_at(a, 5) == (5.0, 0.0)
    assert position_at(a, 20) == (10.0, 10.0)
    assert position_at(a, 0) == (0.0, 0.0)
    assert position_at(a, 21) is None


def test_clip_keeps_the_period_and_its_length():
    a = track([(0, 0.0, 0.0), (10, 10.0, 0.0), (20, 10.0, 10.0)])
    piece = clip(a, 5, 15)
    assert list(piece.t) == [5, 10, 15]
    assert piece.length() == pytest.approx(10.0)
    assert clip(a, 20, 30).length() == 0.0
    assert clip(a, 21, 30) is None


def test_synchronized_distance_of_crossing_movers():
    # Two points moving towards each other along x meet at t=5.
    a = track([(0, 0.0, 0.0), (10, 10.0, 0.0)])
    b = track([(0, 10.0, 3.0), (10, 0.0, 3.0)])
    sync = Sync(a, b)
    assert sync.min_distance() == pytest.approx(3.0)
    lo, hi = sync.windows_within(5.0)[0]
    # |10 - 2t| <= 4 -> t in [3, 7]
    assert (lo, hi) == (pytest.approx(3.0), pytest.approx(7.0))
    assert Sync(a, track([(11, 0.0, 0.0), (12, 1.0, 0.0)])).empty


def test_segment_sets_touching_and_apart():
    a = np.array([[0.0, 0.0, 10.0, 10.0]])
    b = np.array([[0.0, 10.0, 10.0, 0.0]])
    assert segment_set_distance(a, b) == 0.0
    c = np.array([[20.0, 0.0, 20.0, 10.0]])
    assert segment_set_distance(a, c) == pytest.approx(10.0)


def test_convex_polygon_depth_inside_outside_and_along_a_track():
    square = ConvexPolygon(np.array([(0, 0), (10, 0), (10, 10), (0, 10),
                                     (0, 0)], dtype=float))
    assert square.depth(5.0, 5.0) == pytest.approx(5.0)
    assert square.depth(12.0, 5.0) < 0
    passing = track([(0, -5.0, 5.0), (10, 15.0, 5.0)])
    assert square.max_depth(passing) == pytest.approx(5.0)
    missing = track([(0, -5.0, 20.0), (10, 15.0, 20.0)])
    assert square.max_depth(missing) < 0
    with pytest.raises(ValueError):
        ConvexPolygon(np.array([(0, 0), (10, 0), (5, 1), (10, 10), (0, 10)],
                               dtype=float))


def test_first_time_at_a_vertex_and_inside_a_segment():
    a = track([(0, 0.0, 0.0), (10, 10.0, 0.0), (30, 10.0, 20.0)])
    assert first_time_at(a, 10.0, 0.0) == (10.0, False)
    t, _ = first_time_at(a, 10.0, 10.0)
    assert t == pytest.approx(20.0)
    assert first_time_at(a, 3.0, 3.0)[0] is None
    assert not math.isnan(first_time_at(a, 0.0, 0.0)[0])
