"""The ``Explore`` procedure (Lemma 1, Section 6.1).

A robot with distance-1 visibility explores a rectangle by zig-zagging rows
spaced ``sqrt(2)`` apart, taking a snapshot every ``sqrt(2)`` of travel: a
radius-1 disk contains the axis-parallel square of width ``sqrt(2)``
centered at the snapshot point, so the snapshot lattice covers the strip.
A team of ``k`` robots splits the rectangle into ``k`` horizontal strips
(Figure 4b), explores them in parallel, and regroups at a meeting point to
share findings — time ``O(w*h/k + w + h)``.

Implemented as engine program fragments (``yield from``-able generators):

* :func:`exploration_stops` — the snapshot lattice for one rectangle;
* :func:`explore_rect` — single-robot (or whole-process) exploration;
* :func:`explore_rect_team` — the fork / explore / barrier / absorb cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Any, Dict, Generator

from ..geometry import Point, Rect
from ..sim import Absorb, Barrier, Fork, Look, Move, Result, Snapshot, Sweep, Wait
from ..sim.actions import Action
from ..sim.engine import ProcessView
from ..sim.lattice import LatticeAxis, LatticeRun

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..geometry import FrontierIndex

__all__ = [
    "SQRT2",
    "ExplorationReport",
    "exploration_stops",
    "exploration_time_bound",
    "explore_rect",
    "explore_rect_team",
]

SQRT2 = math.sqrt(2.0)


@dataclass
class ExplorationReport:
    """Robots observed while exploring: id -> observed position."""

    sleeping: Dict[int, Point] = field(default_factory=dict)
    awake: Dict[int, Point] = field(default_factory=dict)
    snapshots: int = 0

    def merge(self, other: "ExplorationReport") -> None:
        self.sleeping.update(other.sleeping)
        # A robot seen awake anywhere overrides a sleeping sighting: wakes
        # are irreversible, so the awake observation is the newer fact.
        self.awake.update(other.awake)
        for rid in other.awake:
            self.sleeping.pop(rid, None)
        self.snapshots += other.snapshots


def _lattice_axis(lo: float, hi: float) -> LatticeAxis:
    """Snapshot coordinates covering the closed interval ``[lo, hi]``.

    Stops are spaced at most ``sqrt(2)`` apart with the first/last at most
    ``sqrt(2)/2`` from the ends, so every coordinate of the interval is
    within ``sqrt(2)/2`` of a stop.

    Memoized per axis, together with the axis's hop lengths (built on
    first use by a batched sweep): a team exploration splits a rectangle
    into one strip per robot, and every strip shares the parent's
    x-interval — at cohort sizes that is thousands of identical lattices
    per rectangle.  Callers never mutate the returned axis.
    """
    cached = _AXIS_MEMO.get((lo, hi))
    if cached is not None:
        return cached
    span = hi - lo
    if span <= SQRT2:
        stops = [(lo + hi) / 2.0]
    else:
        count = math.ceil(span / SQRT2)
        # ``count`` intervals of width span/count <= sqrt(2); stops at
        # interval midpoints.
        step = span / count
        stops = [lo + (i + 0.5) * step for i in range(count)]
    if len(_AXIS_MEMO) >= _AXIS_MEMO_MAX:
        _AXIS_MEMO.clear()
    axis = _AXIS_MEMO[(lo, hi)] = LatticeAxis(stops)
    return axis


_AXIS_MEMO: Dict[tuple, LatticeAxis] = {}
_AXIS_MEMO_MAX = 4096


def exploration_stops(rect: Rect) -> list[Point]:
    """Boustrophedon snapshot lattice covering ``rect``.

    Every point of ``rect`` lies within Chebyshev distance ``sqrt(2)/2`` of
    some stop, hence within Euclidean distance 1 — the Lemma 1 coverage
    invariant.  Rows alternate direction so consecutive stops are adjacent.
    """
    ys = _lattice_axis(rect.ymin, rect.ymax).stops
    xs = _lattice_axis(rect.xmin, rect.xmax).stops
    xs_reversed = xs[::-1]
    # Cohort explorations materialize millions of stops (one thin strip
    # per robot); skip the generated NamedTuple __new__ frame and build
    # the Points straight through tuple.__new__ — same objects, ~2x less
    # constructor overhead on the hottest allocation in a batched run.
    tuple_new = tuple.__new__
    point = Point
    stops: list[Point] = []
    for j, y in enumerate(ys):
        row = xs if j % 2 == 0 else xs_reversed
        stops += [tuple_new(point, (x, y)) for x in row]
    return stops


def exploration_time_bound(width: float, height: float, k: int = 1) -> float:
    """Safe upper bound on the travel of :func:`explore_rect` over a
    ``width x height`` rectangle split across ``k`` robots.

    Accounts for the strip path (``<= w*h/(k*sqrt(2)) + w + h`` per strip
    plus slack), the entry move and the exit move.  Used by the fixed
    window arithmetic of ``AGrid``/``AWave``; the engine asserts the bound
    at runtime, so a violation fails loudly in tests.
    """
    w, h = width, height
    strip_h = h / k
    path = (w + SQRT2) * (strip_h / SQRT2 + 1.0) + strip_h
    entry_exit = 2.0 * (w + h) + 2.0 * SQRT2
    return path + entry_exit


def explore_rect(
    proc: ProcessView,
    rect: Rect,
    arrive_at: Point | None = None,
    frontier: "FrontierIndex | None" = None,
) -> Generator[Action, Result, ExplorationReport]:
    """Explore ``rect`` with the whole process moving as one unit.

    Returns an :class:`ExplorationReport` of everything seen.  When
    ``arrive_at`` is given, the process finishes there.

    With a :class:`~repro.geometry.FrontierIndex` the walk is *batched*:
    stops whose snapshot provably contains no sleeping robot (no initial
    position within the closed visibility reach — sleeping robots never
    move, so the oracle is static) are swept through in single engine
    events, and only *hot* stops take real snapshots.  The batched walk
    never materializes the lattice: each cold stretch is a
    :class:`~repro.sim.lattice.LatticeRun` over the memoized axes, the
    rectangle test reads the axis extents and hot stops are classified
    from coordinates (:meth:`~repro.geometry.FrontierIndex.hot_lattice`).
    Travel path, per-segment energy accounting and arrival times are
    identical to the per-stop walk; what changes is the number of queue
    events and sleeper-free snapshots.  A skipped stop may miss an *awake
    transient* (a robot traveling far from every initial position); such
    sightings only ever cancel a same-report sleeping entry, and the
    differential suite pins that the omission never reaches a wake-time
    or energy observable on any tested instance.  Near an energy budget
    the batched path falls back to per-stop moves so an overrun aborts at
    exactly the legacy point.
    """
    report = ExplorationReport()
    if frontier is not None:
        x_axis = _lattice_axis(rect.xmin, rect.xmax)
        y_axis = _lattice_axis(rect.ymin, rect.ymax)
        if _sweep_admissible(proc, x_axis, y_axis, arrive_at):
            yield from _explore_lattice_batched(
                proc, x_axis, y_axis, arrive_at, frontier, report
            )
            return report
    for stop in exploration_stops(rect):
        yield Move(stop)
        snap = (yield Look()).value
        report.snapshots += 1
        _record(report, snap)
    if arrive_at is not None:
        yield Move(arrive_at)
    return report


def _record(report: ExplorationReport, snap: Snapshot) -> None:
    """Fold one snapshot into ``report`` (awake sightings override)."""
    for view in snap.robots:
        if view.awake:
            report.awake[view.robot_id] = view.position
            report.sleeping.pop(view.robot_id, None)
        elif view.robot_id not in report.awake:
            report.sleeping[view.robot_id] = view.position


def _sweep_admissible(
    proc: ProcessView,
    x_axis: LatticeAxis,
    y_axis: LatticeAxis,
    arrive_at: Point | None,
) -> bool:
    """Whether the whole walk clears every robot's remaining budget.

    Sweeping must never move the point (or simulation time) at which an
    :class:`~repro.sim.errors.EnergyBudgetExceeded` fires; when the walk
    could plausibly hit a budget, take the per-stop path whose abort
    semantics are the reference.  The total is the per-stop walk's
    sequential sum of segment lengths.
    """
    remaining = proc.min_remaining_budget
    if remaining == math.inf:
        return True
    count = len(x_axis.stops) * len(y_axis.stops)
    walk = LatticeRun(x_axis, y_axis, 0, count, arrive_at)
    total = reduce(add, walk.segment_lengths(proc.position), 0.0)
    return total < remaining - 1e-6


def _explore_lattice_batched(
    proc: ProcessView,
    x_axis: LatticeAxis,
    y_axis: LatticeAxis,
    arrive_at: Point | None,
    frontier: "FrontierIndex",
    report: ExplorationReport,
) -> Generator[Action, Result, None]:
    """The frontier-batched walk: sweep cold runs, snapshot hot stops.

    ``report.snapshots`` counts planned lattice stops (the legacy payload
    semantics), not materialized looks.  Distance travelled is charged by
    the engine odometer (the single authoritative energy record, on the
    per-stop and batched paths alike) — reports carry no travel tally.
    """
    xs, ys = x_axis.stops, y_axis.stops
    count = len(xs) * len(ys)
    report.snapshots += count
    # An entirely-cold rectangle needs no per-stop classification: one
    # sweep covers the whole lattice.
    hot: list[int] = []
    if frontier.rect_overlaps(xs[0], ys[0], xs[-1], ys[-1]):
        hot = frontier.hot_lattice(xs, ys)
    start = 0
    for k in hot:
        yield Sweep(LatticeRun(x_axis, y_axis, start, k + 1))
        start = k + 1
        _record(report, (yield Look()).value)
    if start < count or arrive_at is not None:
        yield Sweep(LatticeRun(x_axis, y_axis, start, count, arrive_at))


def explore_rect_team(
    proc: ProcessView,
    rect: Rect,
    meet_at: Point,
    barrier_key: Any,
    frontier: "FrontierIndex | None" = None,
) -> Generator[Action, Result, ExplorationReport]:
    """Team exploration: split rows, explore in parallel, regroup, merge.

    The calling process keeps the bottom strip and forks one process per
    additional robot; everyone regroups at ``meet_at`` through a barrier
    keyed by ``barrier_key`` (which must be globally unique per call) and
    the caller absorbs its teammates back.  Returns the merged report.
    ``frontier`` enables the batched walk on every strip (see
    :func:`explore_rect`).
    """
    k = proc.team_size
    if k == 1:
        report = yield from explore_rect(
            proc, rect, arrive_at=meet_at, frontier=frontier
        )
        return report

    strips = rect.split_rows(k)
    my_ids = list(proc.robot_ids)
    parties = k

    def strip_program(strip: Rect):
        def program(child: ProcessView):
            child_report = yield from explore_rect(
                child, strip, arrive_at=meet_at, frontier=frontier
            )
            yield Barrier(barrier_key, parties, payload=child_report)
            # Child ends here; its robot becomes idle at meet_at and is
            # absorbed by the caller.

        return program

    assignments = [
        ((my_ids[i],), strip_program(strips[i])) for i in range(1, k)
    ]
    yield Fork(assignments)
    my_report = yield from explore_rect(
        proc, strips[0], arrive_at=meet_at, frontier=frontier
    )
    payloads = (yield Barrier(barrier_key, parties, payload=my_report)).value
    # Let the other parties' processes finish (they return right after the
    # barrier); the Wait(0) resume is ordered after their release events.
    yield Wait(0.0)
    yield Absorb(my_ids[1:])
    merged = ExplorationReport()
    for child_report in payloads:
        merged.merge(child_report)
    return merged
