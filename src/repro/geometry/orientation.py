"""DEF placement orientations and their coordinate transforms.

Standard-cell rows alternate between ``N`` (R0) and ``FS`` (mirrored
about the x-axis) so that power rails of vertically adjacent rows abut.
The detailed-placement *flip* operation of the paper (binary ``fc``)
mirrors a cell about its own vertical center line, which maps ``N`` to
``FN`` and ``FS`` to ``S``.

Only the x-transform matters to the optimizer: ClosedM1 pins are 1-D
vertical shapes whose y-span always covers the cell, and OpenM1 pin
overlap is computed on x-projections.  The y mirroring between ``N`` and
``FS`` rows therefore does not change any pin x-extent.
"""

from __future__ import annotations

import enum

from repro.geometry.interval import Interval


class Orientation(enum.Enum):
    """The four row-legal DEF orientations for single-row-height cells."""

    N = "N"
    S = "S"
    FN = "FN"
    FS = "FS"

    @property
    def is_x_mirrored(self) -> bool:
        """Return True when the orientation mirrors x (the paper's flip)."""
        return self in X_MIRRORED

    @property
    def is_y_mirrored(self) -> bool:
        """Return True for orientations used in odd (flipped-south) rows."""
        return self in (Orientation.FS, Orientation.S)

    def flipped(self) -> "Orientation":
        """Return the orientation after mirroring about the cell's
        vertical center line (the ``fc`` operation of the MILP)."""
        return _FLIP[self]

    @classmethod
    def for_row(cls, row_index: int, flipped: bool = False) -> "Orientation":
        """Return the legal orientation for a cell in ``row_index``.

        Even rows place cells ``N``, odd rows ``FS``; ``flipped`` applies
        the detailed-placement x-mirror on top.
        """
        base = cls.FS if row_index % 2 else cls.N
        return base.flipped() if flipped else base

    def transform_x(self, x_rel: int, cell_width: int) -> int:
        """Map a pin's library x-offset into the placed cell frame."""
        return cell_width - x_rel if self.is_x_mirrored else x_rel

    def transform_x_interval(
        self, iv: Interval, cell_width: int
    ) -> Interval:
        """Map a pin's library x-extent into the placed cell frame."""
        if self.is_x_mirrored:
            return iv.mirrored_in(Interval(0, cell_width))
        return iv


#: The x-mirrored orientations.  ``orientation in X_MIRRORED`` is the
#: hot-path form of :attr:`Orientation.is_x_mirrored` (a tuple identity
#: scan, no property call).
X_MIRRORED = (Orientation.FN, Orientation.S)

_FLIP = {
    Orientation.N: Orientation.FN,
    Orientation.FN: Orientation.N,
    Orientation.S: Orientation.FS,
    Orientation.FS: Orientation.S,
}
