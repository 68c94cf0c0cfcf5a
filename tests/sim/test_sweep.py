"""The cohort-batched ``Sweep`` action: one event, Move-chain semantics.

A sweep must be observationally identical to issuing one ``Move`` per
waypoint — same per-segment odometer accounting (float-op order
included), same sequential arrival-time accumulation, same interpolated
positions for concurrent observers — while costing a single queue event.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.sim import (
    SOURCE_ID,
    Engine,
    LatticeAxis,
    LatticeRun,
    Look,
    Move,
    Sweep,
    Wait,
    WaitUntil,
    World,
)
from repro.sim.errors import EnergyBudgetExceeded, ProtocolError

STOPS = [Point(0.4 * i, 0.15 * (i % 3)) for i in range(1, 14)]


def run_walk(use_sweep, budget=math.inf, observer_at=None, observe_times=()):
    """Walk STOPS with one process; optionally observe from a second."""
    sleepers = [Point(50.0, 50.0)]
    world = World(source=Point(0, 0), positions=sleepers, budget=budget)
    engine = Engine(world)
    outcome = {}
    observations = []

    def walker(proc):
        if use_sweep:
            yield Sweep(STOPS)
        else:
            for s in STOPS:
                yield Move(s)
        outcome["time"] = proc.time
        outcome["position"] = proc.position

    engine.spawn(walker, [SOURCE_ID])
    if observer_at is not None:
        # Enlist the far-away sleeper as an awake observer at a fixed post.
        world.mark_awake(1, 0.0, None)
        world.robots[1].position = observer_at

        def watcher(proc):
            last = 0.0
            for t in observe_times:
                yield Wait(t - last)
                last = t
                snap = (yield Look()).value
                observations.append(
                    [(v.robot_id, v.position) for v in snap.robots if v.robot_id != 1]
                )

        engine.spawn(watcher, [1], position=observer_at)
    result = engine.run()
    return outcome, result, observations


class TestMoveChainEquivalence:
    def test_time_position_energy_identical(self):
        a, ra, _ = run_walk(use_sweep=False)
        b, rb, _ = run_walk(use_sweep=True)
        assert a == b
        assert ra.total_energy == rb.total_energy
        assert ra.max_energy == rb.max_energy
        assert ra.termination_time == rb.termination_time

    def test_single_event(self):
        _, ra, _ = run_walk(use_sweep=False)
        _, rb, _ = run_walk(use_sweep=True)
        assert ra.events_processed == len(STOPS) + 1
        assert rb.events_processed == 2

    def test_observer_sees_identical_interpolation(self):
        times = [0.3, 0.9, 1.7, 2.6, 3.4]
        _, _, seen_moves = run_walk(
            use_sweep=False, observer_at=Point(1.0, 0.0), observe_times=times
        )
        _, _, seen_sweep = run_walk(
            use_sweep=True, observer_at=Point(1.0, 0.0), observe_times=times
        )
        assert seen_moves == seen_sweep
        assert any(seen_moves)  # the walker actually passes through view

    def test_budget_charges_identically(self):
        _, ra, _ = run_walk(use_sweep=False, budget=100.0)
        _, rb, _ = run_walk(use_sweep=True, budget=100.0)
        assert ra.total_energy == rb.total_energy

    def test_budget_overrun_raises(self):
        with pytest.raises(EnergyBudgetExceeded):
            run_walk(use_sweep=True, budget=1.0)


class TestSweepEdges:
    def test_empty_sweep_rejected(self):
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)

        def program(proc):
            yield Sweep([])

        engine.spawn(program, [SOURCE_ID])
        with pytest.raises(ProtocolError):
            engine.run()

    def test_zero_length_sweep_completes_instantly(self):
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)
        seen = {}

        def program(proc):
            yield Sweep([Point(0.0, 0.0)])
            seen["time"] = proc.time

        engine.spawn(program, [SOURCE_ID])
        result = engine.run()
        assert seen["time"] == 0.0
        assert result.total_energy == 0.0

    def test_duplicate_waypoints_charge_once(self):
        """Tiny hops inside a sweep are teleports, exactly like Move."""
        stops = [Point(1.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0)]
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)

        def program(proc):
            yield Sweep(stops)

        engine.spawn(program, [SOURCE_ID])
        result = engine.run()
        assert result.total_energy == 2.0
        assert result.termination_time == 2.0

    def test_team_sweep_charges_every_robot(self):
        world = World(source=Point(0, 0), positions=[Point(0.0, 0.0)])
        engine = Engine(world)
        world.mark_awake(1, 0.0, None)

        def program(proc):
            yield Sweep([Point(3.0, 4.0)])

        engine.spawn(program, [SOURCE_ID, 1])
        result = engine.run()
        assert result.total_energy == 10.0
        assert result.max_energy == 5.0


# -- lattice runs: the described form of a Sweep ---------------------------

# Coordinates on a 1e-6 grid: two of them are equal or further apart than
# EPS, so the only sub-EPS hops are the ones a case builds on purpose (a
# Move chain resolves those by same-instant event order).
COORD = st.floats(min_value=-40.0, max_value=40.0).map(lambda v: round(v, 6))
AXIS = st.lists(COORD, min_size=1, max_size=6).map(sorted)


def boustrophedon(xs, ys):
    """The reference walk order: even rows left to right, odd rows back."""
    stops = []
    for j, y in enumerate(ys):
        row = xs if j % 2 == 0 else xs[::-1]
        stops += [Point(x, y) for x in row]
    return stops


@st.composite
def lattice_walks(draw):
    """A lattice run plus the world it is walked in.

    Axes may repeat a coordinate (an exact zero-length interior hop); the
    origin may sit on the first waypoint (a zero-length entry hop); the
    tail may be absent, anywhere, on the last stop or within EPS of it.
    """
    xs, ys = draw(AXIS), draw(AXIS)
    count = len(xs) * len(ys)
    start = draw(st.integers(0, count))
    stop = draw(st.integers(start, count))
    stops = boustrophedon(xs, ys)[start:stop]
    tail_kind = draw(st.sampled_from(["none", "point", "same", "eps"]))
    if not stops:
        tail_kind = "point"
    if tail_kind == "point":
        tail = Point(draw(COORD), draw(COORD))
    elif tail_kind == "same":
        tail = stops[-1]
    elif tail_kind == "eps":
        tail = Point(stops[-1][0] + 4e-10, stops[-1][1])
    else:
        tail = None
    run = LatticeRun(LatticeAxis(xs), LatticeAxis(ys), start, stop, tail)
    waypoints = stops + ([tail] if tail is not None else [])
    if draw(st.booleans()):
        origin = waypoints[0]
    else:
        origin = Point(draw(COORD), draw(COORD))
    return run, waypoints, origin, tail_kind


def walk_lattice(
    mode, waypoints, run, origin, *, speed=1.0, team=1, budgets=(math.inf,),
    start_odometers=(0.0,), observe_times=(), observer_at=None,
):
    """Walk the waypoints as a Move chain, a Point-list Sweep or a run.

    Returns ``(outcome, odometers, observations)``; ``outcome`` is the
    final ``(time, position)`` or the raised EnergyBudgetExceeded's robot,
    attempted total and budget.
    """
    sleepers = [origin] * (team - 1) + [Point(500.0, 500.0)]
    world = World(source=origin, positions=sleepers)
    ids = list(range(team))
    for rid in ids:
        robot = world.robots[rid]
        if rid:
            world.mark_awake(rid, 0.0, None)
        robot.speed = speed
        robot.budget = budgets[rid % len(budgets)]
        robot.odometer = start_odometers[rid % len(start_odometers)]
    engine = Engine(world)
    outcome = {}
    observations = []
    boundaries = []

    def walker(proc):
        if mode == "moves":
            for w in waypoints:
                yield Move(w)
                boundaries.append(proc.time)
        else:
            yield Sweep(run if mode == "run" else waypoints)
        outcome["end"] = (proc.time, proc.position)

    engine.spawn(walker, ids)
    if observer_at is not None:
        watcher_id = team
        world.mark_awake(watcher_id, 0.0, None)
        world.robots[watcher_id].position = observer_at

        def watcher(proc):
            for t in observe_times:
                yield WaitUntil(t)
                snap = (yield Look()).value
                observations.append(
                    [(v.robot_id, v.position) for v in snap.robots
                     if v.robot_id != watcher_id]
                )

        engine.spawn(watcher, [watcher_id], position=observer_at)
    try:
        engine.run()
    except EnergyBudgetExceeded as exc:
        outcome["overrun"] = (exc.robot_id, exc.attempted, exc.budget)
    odometers = [world.robots[rid].odometer for rid in ids]
    return outcome, odometers, observations, boundaries


class TestLatticeRun:
    @given(lattice_walks())
    @settings(max_examples=150, deadline=None)
    def test_sequence_matches_waypoints(self, case):
        run, waypoints, _origin, _ = case
        assert len(run) == len(waypoints)
        assert list(run) == waypoints
        assert [run[i] for i in range(len(run))] == waypoints
        assert run[-1] == waypoints[-1]
        xmin, ymin, xmax, ymax = run.extents()
        assert all(xmin <= w[0] <= xmax and ymin <= w[1] <= ymax for w in waypoints)

    @given(lattice_walks())
    @settings(max_examples=150, deadline=None)
    def test_segment_lengths_are_hypot(self, case):
        run, waypoints, origin, _ = case
        prevs = [origin] + waypoints[:-1]
        expected = [
            math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in zip(prevs, waypoints)
        ]
        assert run.segment_lengths(origin) == expected

    def test_out_of_range_rejected(self):
        axis = LatticeAxis([0.0, 1.0])
        with pytest.raises(ValueError):
            LatticeRun(axis, axis, 0, 5)
        with pytest.raises(IndexError):
            LatticeRun(axis, axis, 1, 3)[2]


class TestLatticeRunDifferential:
    """A run-form Sweep == the Point-list Sweep == the per-stop Move chain."""

    @given(
        lattice_walks(),
        st.sampled_from([1.0, 0.5]),
        st.sampled_from([1, 2]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_unbounded_walk_and_observers(self, case, speed, team, data):
        run, waypoints, origin, tail_kind = case
        reference = walk_lattice(
            "moves", waypoints, run, origin, speed=speed, team=team
        )
        boundaries = reference[3]
        end = boundaries[-1]
        times = sorted(set(
            data.draw(st.lists(st.sampled_from(boundaries), max_size=4))
            + data.draw(st.lists(
                st.floats(min_value=0.0, max_value=max(end, 0.0) + 1.0),
                max_size=4,
            ))
        ))
        if tail_kind == "eps":
            # Within-EPS teleports at the last instant resolve by event
            # order in a Move chain; observe strictly before it.
            times = [t for t in times if t < end]
        observer_at = data.draw(st.sampled_from(waypoints))
        results = [
            walk_lattice(
                mode, waypoints, run, origin, speed=speed, team=team,
                observe_times=times, observer_at=observer_at,
            )[:3]
            for mode in ("moves", "list", "run")
        ]
        assert results[0] == results[1] == results[2]

    @given(
        lattice_walks(),
        st.sampled_from([1, 2]),
        st.floats(min_value=0.0, max_value=1.2),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_finite_budget_overrun(self, case, team, fraction, head_start):
        run, waypoints, origin, _ = case
        total = 0.0
        prev = origin
        for w in waypoints:
            total += math.hypot(prev[0] - w[0], prev[1] - w[1])
            prev = w
        budgets = (total * fraction + head_start, total * fraction)
        starts = (head_start, 0.0)
        results = [
            walk_lattice(
                mode, waypoints, run, origin, team=team,
                budgets=budgets, start_odometers=starts,
            )[:2]
            for mode in ("moves", "list", "run")
        ]
        assert results[0] == results[1] == results[2]

    def test_overrun_mid_lattice_names_the_first_robot(self):
        xs = LatticeAxis([0.0, 1.0, 2.0, 3.0])
        ys = LatticeAxis([0.0, 1.0])
        run = LatticeRun(xs, ys, 0, 8)
        waypoints = list(run)
        outcome, odometers, _, _ = walk_lattice(
            "run", waypoints, run, Point(0.0, 0.0), team=2,
            budgets=(4.5, 4.5), start_odometers=(0.0, 0.0),
        )
        # Segments 0 (entry) to 4 have lengths 0, 1, 1, 1, 1; segment 5
        # would reach 5 > 4.5 for both robots, and robot 0 is named.
        assert outcome["overrun"] == (0, 5.0, 4.5)
        assert odometers == [4.0, 4.0]
