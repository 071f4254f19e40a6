"""Axis-aligned integer rectangle."""

from __future__ import annotations

from dataclasses import dataclass

from repro.geometry.interval import Interval
from repro.geometry.point import Point


@dataclass(frozen=True, slots=True, order=True)
class Rect:
    """Axis-aligned rectangle ``[xlo, xhi] x [ylo, yhi]`` in DBU."""

    xlo: int
    ylo: int
    xhi: int
    yhi: int

    def __post_init__(self) -> None:
        if self.xlo > self.xhi or self.ylo > self.yhi:
            raise ValueError(f"malformed Rect {self}")

    @classmethod
    def from_points(cls, a: Point, b: Point) -> "Rect":
        """Build the bounding rectangle of two points."""
        return cls(
            min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y)
        )

    @property
    def width(self) -> int:
        return self.xhi - self.xlo

    @property
    def height(self) -> int:
        return self.yhi - self.ylo

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def half_perimeter(self) -> int:
        """Half-perimeter (HPWL contribution of this bounding box)."""
        return self.width + self.height

    @property
    def x_interval(self) -> Interval:
        return Interval(self.xlo, self.xhi)

    @property
    def y_interval(self) -> Interval:
        return Interval(self.ylo, self.yhi)

    @property
    def center(self) -> Point:
        """Integer center (rounded down for odd extents)."""
        return Point((self.xlo + self.xhi) // 2, (self.ylo + self.yhi) // 2)

    def contains_point(self, p: Point) -> bool:
        """Closed containment test."""
        return self.xlo <= p.x <= self.xhi and self.ylo <= p.y <= self.yhi

    def contains_rect(self, other: "Rect") -> bool:
        """Return True when ``other`` lies fully inside this rectangle."""
        return (
            self.xlo <= other.xlo
            and other.xhi <= self.xhi
            and self.ylo <= other.ylo
            and other.yhi <= self.yhi
        )

    def overlaps(self, other: "Rect") -> bool:
        """Closed-rectangle intersection test (edge touch counts)."""
        return (
            self.xlo <= other.xhi
            and other.xlo <= self.xhi
            and self.ylo <= other.yhi
            and other.ylo <= self.yhi
        )

    def overlaps_open(self, other: "Rect") -> bool:
        """Open intersection test: touching edges do NOT count.

        This is the test used for cell-overlap legality, where two
        abutting cells share a boundary without overlapping.
        """
        return (
            self.xlo < other.xhi
            and other.xlo < self.xhi
            and self.ylo < other.yhi
            and other.ylo < self.yhi
        )

    def intersection(self, other: "Rect") -> "Rect | None":
        """Return the intersection rectangle, or None when disjoint."""
        xlo = max(self.xlo, other.xlo)
        ylo = max(self.ylo, other.ylo)
        xhi = min(self.xhi, other.xhi)
        yhi = min(self.yhi, other.yhi)
        if xlo > xhi or ylo > yhi:
            return None
        return Rect(xlo, ylo, xhi, yhi)

    def union_span(self, other: "Rect") -> "Rect":
        """Return the smallest rectangle containing both rectangles."""
        return Rect(
            min(self.xlo, other.xlo),
            min(self.ylo, other.ylo),
            max(self.xhi, other.xhi),
            max(self.yhi, other.yhi),
        )

    def expanded(self, margin: int) -> "Rect":
        """Return a copy grown by ``margin`` on all four sides."""
        return Rect(
            self.xlo - margin,
            self.ylo - margin,
            self.xhi + margin,
            self.yhi + margin,
        )

    def translated(self, dx: int, dy: int) -> "Rect":
        """Return a copy moved by ``(dx, dy)``."""
        return Rect(
            self.xlo + dx, self.ylo + dy, self.xhi + dx, self.yhi + dy
        )
