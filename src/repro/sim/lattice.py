"""Lazy boustrophedon lattice stretches: sweep waypoints described, not built.

Lemma 1's exploration lattice is the product of two sorted axis-stop
lists, walked row by row with alternating direction.  A batched
:class:`~repro.sim.actions.Sweep` through a cold stretch of it would
otherwise carry one :class:`~repro.geometry.Point` per stop; a
:class:`LatticeRun` carries only the two axes, a ``[start, stop)`` range
in walk order and an optional tail point, and produces stops (and the
segment lengths between them) on demand.

Segment lengths are bit-identical to the per-stop ``math.hypot`` the
engine takes for a :class:`~repro.sim.actions.Move`: consecutive lattice
stops differ in one coordinate only, and ``math.hypot(d, 0.0) ==
abs(d)`` exactly, so the interior hops are the per-axis ``abs``
differences memoized on :class:`LatticeAxis`.  Only the entry hop and the
tail hop, which may be diagonal, go through ``math.hypot``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from operator import sub

from ..geometry import Point

__all__ = ["LatticeAxis", "LatticeRun"]

_tuple_new = tuple.__new__


class LatticeAxis:
    """One sorted axis of a snapshot lattice plus its memoized hop lengths.

    ``hops[i]`` is ``abs(stops[i] - stops[i + 1])``; ``rhops`` is the same
    list reversed, for rows walked against the axis.  Both are built on
    first use, so an axis that only ever feeds a per-stop walk never pays
    for them.  Instances are shared through a memo and never mutated.
    """

    __slots__ = ("stops", "_hops", "_rhops")

    def __init__(self, stops: list[float]) -> None:
        self.stops = stops
        self._hops: list[float] | None = None
        self._rhops: list[float] | None = None

    @property
    def hops(self) -> list[float]:
        hops = self._hops
        if hops is None:
            stops = self.stops
            hops = self._hops = list(map(abs, map(sub, stops, stops[1:])))
        return hops

    @property
    def rhops(self) -> list[float]:
        rhops = self._rhops
        if rhops is None:
            rhops = self._rhops = self.hops[::-1]
        return rhops


class LatticeRun(Sequence[Point]):
    """Stops ``start .. stop - 1`` of the boustrophedon walk over
    ``x_axis x y_axis``, then ``tail`` when given.

    Walk order: row ``j`` (at ``y_axis.stops[j]``) runs left to right
    when ``j`` is even and right to left when odd — exactly the order of
    :func:`repro.core.explore.exploration_stops`.  Indexing (integers
    only) builds one :class:`~repro.geometry.Point`; nothing is
    materialized up front.
    """

    __slots__ = ("x_axis", "y_axis", "start", "stop", "tail", "_len")

    def __init__(
        self,
        x_axis: LatticeAxis,
        y_axis: LatticeAxis,
        start: int,
        stop: int,
        tail: Point | None = None,
    ) -> None:
        if not 0 <= start <= stop <= len(x_axis.stops) * len(y_axis.stops):
            raise ValueError(f"lattice range [{start}, {stop}) out of bounds")
        self.x_axis = x_axis
        self.y_axis = y_axis
        self.start = start
        self.stop = stop
        self.tail = tail
        self._len = stop - start + (tail is not None)

    def __len__(self) -> int:
        return self._len

    def _stop_at(self, k: int) -> Point:
        xs = self.x_axis.stops
        nx = len(xs)
        j, p = divmod(k, nx)
        return _tuple_new(Point, (xs[nx - 1 - p if j & 1 else p], self.y_axis.stops[j]))

    def __getitem__(self, index: int) -> Point:  # type: ignore[override]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("lattice run index out of range")
        k = self.start + index
        if k < self.stop:
            return self._stop_at(k)
        return self.tail

    def __iter__(self) -> Iterator[Point]:
        xs = self.x_axis.stops
        ys = self.y_axis.stops
        nx = len(xs)
        k, stop = self.start, self.stop
        while k < stop:
            j, p = divmod(k, nx)
            q = min(nx, p + stop - k)
            y = ys[j]
            if j & 1:
                for c in range(nx - 1 - p, nx - 1 - q, -1):
                    yield _tuple_new(Point, (xs[c], y))
            else:
                for c in range(p, q):
                    yield _tuple_new(Point, (xs[c], y))
            k += q - p
        if self.tail is not None:
            yield self.tail

    def __repr__(self) -> str:
        return (
            f"LatticeRun({len(self.x_axis.stops)}x{len(self.y_axis.stops)}, "
            f"[{self.start}, {self.stop}), tail={self.tail!r})"
        )

    def segment_lengths(self, origin: Point) -> list[float]:
        """Lengths of the ``len(self)`` segments walked from ``origin``.

        Entry ``i`` equals ``math.hypot`` of waypoint ``i - 1`` (``origin``
        for ``i == 0``) minus waypoint ``i``, bit for bit.
        """
        first = self[0]
        lengths = [math.hypot(origin[0] - first[0], origin[1] - first[1])]
        start, stop = self.start, self.stop
        if stop > start:
            nx = len(self.x_axis.stops)
            j, p = divmod(start, nx)
            last_row, last_p = divmod(stop - 1, nx)
            x_axis = self.x_axis
            yhops = self.y_axis.hops if last_row > j else None
            while j < last_row:
                lengths += (x_axis.rhops if j & 1 else x_axis.hops)[p:]
                lengths.append(yhops[j])
                j += 1
                p = 0
            lengths += (x_axis.rhops if j & 1 else x_axis.hops)[p:last_p]
            tail = self.tail
            if tail is not None:
                last = self._stop_at(stop - 1)
                lengths.append(math.hypot(last[0] - tail[0], last[1] - tail[1]))
        return lengths

    def extents(self) -> tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` containing every waypoint.

        Exact in ``y``; in ``x`` it spans the whole axis, a superset for
        runs that cover only part of a row.
        """
        xs = self.x_axis.stops
        ys = self.y_axis.stops
        if self.stop > self.start:
            nx = len(xs)
            xmin, xmax = xs[0], xs[-1]
            ymin, ymax = ys[self.start // nx], ys[(self.stop - 1) // nx]
            tail = self.tail
            if tail is not None:
                xmin, xmax = min(xmin, tail[0]), max(xmax, tail[0])
                ymin, ymax = min(ymin, tail[1]), max(ymax, tail[1])
            return xmin, ymin, xmax, ymax
        tail = self.tail
        return tail[0], tail[1], tail[0], tail[1]
