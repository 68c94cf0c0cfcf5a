"""Explore (Lemma 1): coverage completeness and time bound."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SQRT2,
    exploration_stops,
    exploration_time_bound,
    explore_rect,
    explore_rect_team,
)
from repro.core.explore import _lattice_axis
from repro.geometry import Point, Rect, distance
from repro.sim import Engine, LatticeRun, SOURCE_ID, World

dims = st.floats(0.5, 20.0)


class TestStops:
    @given(dims, dims)
    def test_lattice_covers_rectangle(self, w, h):
        rect = Rect(0, 0, w, h)
        stops = exploration_stops(rect)
        # Sample a grid of probe points; each must be within 1 of a stop.
        probes = [
            Point(rect.xmin + fx * w, rect.ymin + fy * h)
            for fx in (0.0, 0.17, 0.5, 0.93, 1.0)
            for fy in (0.0, 0.31, 0.5, 0.77, 1.0)
        ]
        for p in probes:
            assert min(distance(p, s) for s in stops) <= 1.0 + 1e-9

    @given(dims, dims)
    def test_stops_inside_rect(self, w, h):
        rect = Rect(0, 0, w, h)
        assert all(rect.contains(s) for s in exploration_stops(rect))

    @given(dims, dims)
    def test_consecutive_stops_close(self, w, h):
        stops = exploration_stops(Rect(0, 0, w, h))
        for a, b in zip(stops, stops[1:]):
            assert distance(a, b) <= math.hypot(w, SQRT2) + 1e-9

    def test_tiny_rect_single_stop(self):
        stops = exploration_stops(Rect(0, 0, 1, 1))
        assert stops == [Point(0.5, 0.5)]

    @given(dims, dims)
    @settings(max_examples=60, deadline=None)
    def test_lattice_run_describes_the_same_walk(self, w, h):
        """The batched walk's described lattice == the per-stop lattice."""
        rect = Rect(1.5, -2.0, 1.5 + w, -2.0 + h)
        x_axis = _lattice_axis(rect.xmin, rect.xmax)
        y_axis = _lattice_axis(rect.ymin, rect.ymax)
        count = len(x_axis.stops) * len(y_axis.stops)
        run = LatticeRun(x_axis, y_axis, 0, count)
        assert list(run) == exploration_stops(rect)


class TestSingleRobot:
    def _run(self, rect, sleepers, budget_check=None):
        world = World(source=Point(rect.xmin, rect.ymin), positions=sleepers)
        engine = Engine(world)
        reports = []

        def program(proc):
            report = yield from explore_rect(proc, rect)
            reports.append(report)

        engine.spawn(program, [SOURCE_ID])
        result = engine.run()
        return reports[0], result

    def test_finds_every_sleeper(self):
        rng = random.Random(3)
        rect = Rect(0, 0, 12, 7)
        sleepers = [
            Point(rng.uniform(0, 12), rng.uniform(0, 7)) for _ in range(30)
        ]
        report, _ = self._run(rect, sleepers)
        assert sorted(report.sleeping) == list(range(1, 31))
        # Observed positions are the true homes (sleepers do not move).
        for rid, pos in report.sleeping.items():
            assert pos == sleepers[rid - 1]

    def test_time_within_lemma1_bound(self):
        rect = Rect(0, 0, 10, 10)
        _, result = self._run(rect, [])
        assert result.termination_time <= exploration_time_bound(10, 10, 1)

    def test_arrive_at(self):
        rect = Rect(0, 0, 4, 4)
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)

        def program(proc):
            yield from explore_rect(proc, rect, arrive_at=Point(2, 2))

        engine.spawn(program, [SOURCE_ID])
        engine.run()
        assert world.source.position == Point(2, 2)

    def test_report_counts_snapshots(self):
        rect = Rect(0, 0, 5, 5)
        report, result = self._run(rect, [])
        assert report.snapshots == len(exploration_stops(rect))
        assert result.snapshots == report.snapshots


class TestTeam:
    def _run_team(self, rect, k, sleepers):
        world = World(source=Point(rect.xmin, rect.ymin), positions=list(sleepers) + [Point(rect.xmin, rect.ymin)] * (k - 1))
        for rid in range(len(sleepers) + 1, len(sleepers) + k):
            world.mark_awake(rid, 0.0, waker_id=SOURCE_ID)
        engine = Engine(world)
        reports = []

        def program(proc):
            report = yield from explore_rect_team(
                proc, rect, meet_at=rect.center, barrier_key=("t", k)
            )
            reports.append(report)

        team = [SOURCE_ID] + list(range(len(sleepers) + 1, len(sleepers) + k))
        engine.spawn(program, team)
        result = engine.run()
        return reports[0], result, world

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_team_finds_everything_and_regroups(self, k):
        rng = random.Random(k)
        rect = Rect(0, 0, 10, 8)
        sleepers = [
            Point(rng.uniform(0, 10), rng.uniform(0, 8)) for _ in range(15)
        ]
        report, result, world = self._run_team(rect, k, sleepers)
        assert sorted(report.sleeping) == list(range(1, 16))
        # Whole team regrouped at the meet point and is owned again.
        for rid in [SOURCE_ID] + list(range(16, 15 + k)):
            assert world.robots[rid].position == rect.center

    def test_team_speedup(self):
        rect = Rect(0, 0, 16, 16)
        _, solo, _ = self._run_team(rect, 1, [])
        _, team4, _ = self._run_team(rect, 4, [])
        # Lemma 1: wh/k term shrinks; demand a real speedup.
        assert team4.termination_time < 0.55 * solo.termination_time

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_team_time_within_bound(self, k):
        rect = Rect(0, 0, 12, 12)
        _, result, _ = self._run_team(rect, k, [])
        assert result.termination_time <= exploration_time_bound(12, 12, k)
