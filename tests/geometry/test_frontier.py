"""Property tests: the frontier index vs its scalar oracles.

The sparse wave frontier is only sound if every one of its batch answers
matches the brute-force scalar computation it replaces:

* hot-stop classification == a plain closed-disk distance loop, including
  stops engineered exactly on the ``reach`` boundary (the ``radius ± EPS``
  band where squared-distance rounding could flip a decision);
* wave-cell cohort membership == per-point ``CellGrid.cell_of``, including
  coordinates landing exactly on half-open cell boundaries, and with
  crash-on-wake decimation (excluded robots drop out, nobody else moves);
* the batched deadline table (:func:`repro.core.awave.awave_schedule`) ==
  the scalar window arithmetic *bit-for-bit*, including ``speed_floor <
  1`` worlds — a single ulp of drift would shift ``WaitUntil`` deadlines
  and break the differential equivalence contract.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agrid import CellGrid
from repro.core.awave import (
    awave_round_start,
    awave_schedule,
    awave_window_start,
)
from repro.core.explore import exploration_stops
from repro.geometry import FrontierIndex, Point, Rect, frontier_for

COORD = st.floats(
    min_value=-300.0, max_value=300.0, allow_nan=False, allow_infinity=False
)
POINTS = st.lists(st.tuples(COORD, COORD), min_size=0, max_size=60)


def brute_any_within(points, stop, reach):
    return any(math.hypot(px - stop[0], py - stop[1]) <= reach for px, py in points)


class TestHotStops:
    @given(points=POINTS, stops=st.lists(st.tuples(COORD, COORD), max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_matches_scalar_oracle(self, points, stops):
        index = FrontierIndex([Point(*p) for p in points], reach=2.5)
        mask = index.hot_stops([Point(*s) for s in stops])
        assert mask == [brute_any_within(points, s, 2.5) for s in stops]

    @given(
        points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=20),
        angle=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        offset=st.sampled_from([-1e-7, -1e-12, 0.0, 1e-12, 1e-7, 1e-3]),
    )
    @settings(max_examples=120, deadline=None)
    def test_reach_boundary(self, points, angle, offset):
        """Stops placed at distance ``reach + offset`` from a point."""
        reach = 1.0 + 1e-6
        index = FrontierIndex([Point(*p) for p in points], reach=reach)
        px, py = points[0]
        stop = Point(
            px + (reach + offset) * math.cos(angle),
            py + (reach + offset) * math.sin(angle),
        )
        assert index.any_within(stop) == brute_any_within(points, stop, reach)

    @given(points=POINTS)
    @settings(max_examples=60, deadline=None)
    def test_rect_rejection_is_conservative(self, points):
        """A rejected rect must contain no point within reach of it."""
        index = FrontierIndex([Point(*p) for p in points], reach=2.0)
        rect = (-10.0, -10.0, 10.0, 10.0)
        if not index.rect_overlaps(*rect):
            for px, py in points:
                assert not (
                    rect[0] - 2.0 <= px <= rect[2] + 2.0
                    and rect[1] - 2.0 <= py <= rect[3] + 2.0
                )

    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=-15.0, max_value=15.0),
                st.floats(min_value=-15.0, max_value=15.0),
            ),
            max_size=30,
        ),
        xmin=st.floats(min_value=-20.0, max_value=10.0),
        ymin=st.floats(min_value=-20.0, max_value=10.0),
        width=st.floats(min_value=0.0, max_value=25.0),
        height=st.floats(min_value=0.0, max_value=25.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_hot_lattice_matches_hot_stops(self, points, xmin, ymin, width, height):
        """Coordinate classification == the per-Point mask, in walk order."""
        rect = Rect(xmin, ymin, xmin + width, ymin + height)
        stops = exploration_stops(rect)
        xs = sorted({s[0] for s in stops})
        ys = sorted({s[1] for s in stops})
        index = frontier_for([Point(*p) for p in points], 1.0)
        mask = index.hot_stops(stops)
        assert index.hot_lattice(xs, ys) == [i for i, hot in enumerate(mask) if hot]

    def test_empty_index(self):
        index = frontier_for([], 1.0)
        assert index.hot_stops([Point(0, 0)]) == [False]
        assert index.hot_lattice([0.0, 1.0], [0.0]) == []
        assert not index.any_within(Point(0, 0))
        assert not index.rect_overlaps(-5, -5, 5, 5)


class TestCohorts:
    @given(
        points=POINTS,
        width=st.floats(min_value=0.5, max_value=64.0),
        ox=COORD,
        oy=COORD,
    )
    @settings(max_examples=120, deadline=None)
    def test_cells_match_cellgrid(self, points, width, ox, oy):
        """Vectorized cell assignment == per-point CellGrid.cell_of."""
        pts = [Point(*p) for p in points]
        keys = list(range(1, len(pts) + 1))
        index = FrontierIndex(pts, reach=1.0, keys=keys)
        grid = CellGrid(source=Point(ox, oy), width=width)
        assert index.cells(width, Point(ox, oy)) == [grid.cell_of(p) for p in pts]

    @given(
        coords=st.lists(
            st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
            min_size=1, max_size=40,
        ),
        crashed=st.sets(st.integers(min_value=1, max_value=40)),
    )
    @settings(max_examples=120, deadline=None)
    def test_cohort_decimation(self, coords, crashed):
        """Exact half-open boundaries + crash-on-wake decimation.

        Integer coordinates with width=2 put points exactly on cell
        boundaries; membership must follow the half-open convention, and
        excluding the crashed set removes exactly those robots.
        """
        pts = [Point(float(x), float(y)) for x, y in coords]
        keys = list(range(1, len(pts) + 1))
        index = FrontierIndex(pts, reach=1.0, keys=keys)
        grid = CellGrid(source=Point(0.0, 0.0), width=2.0)
        buckets = index.bucket(2.0, Point(0.0, 0.0))
        oracle = {}
        for key, p in zip(keys, pts):
            oracle.setdefault(grid.cell_of(p), []).append(key)
        assert buckets == {c: tuple(sorted(ks)) for c, ks in oracle.items()}
        for cell, members in buckets.items():
            survivors = index.cohort(cell, 2.0, Point(0.0, 0.0), exclude=crashed)
            assert survivors == tuple(k for k in members if k not in crashed)


class TestWindowArithmetic:
    @given(
        ell=st.integers(min_value=1, max_value=9),
        speed_floor=st.floats(min_value=0.05, max_value=1.0),
        max_round=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_schedule_matches_scalar_bit_for_bit(self, ell, speed_floor, max_round):
        rounds, windows = awave_schedule(ell, max_round, speed_floor)
        assert len(rounds) == max_round
        for r in range(1, max_round + 1):
            assert rounds[r - 1] == awave_round_start(ell, r, speed_floor)
            for i in range(1, 9):
                assert windows[r - 1][i - 1] == awave_window_start(
                    ell, r, i, speed_floor
                )

    def test_empty_schedule(self):
        assert awave_schedule(2, 0) == ([], [])
