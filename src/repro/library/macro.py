"""Library macro: geometry + pins + timing/power model."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Orientation, Rect
from repro.library.pins import Pin, PinDirection
from repro.library.specs import CellSpec, VtClass
from repro.tech.arch import CellArchitecture

#: Cell-relative pin access geometry ``(x, y, x_lo, x_hi)``.
PinAccess = tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class TimingModel:
    """Linear delay/power model of a cell.

    Stage delay through the cell is modeled as
    ``intrinsic_ps + drive_resistance_kohm * load_ff`` (a one-segment
    NLDM approximation); it is what the paper's flow would read from
    Liberty tables.

    Attributes:
        intrinsic_ps: load-independent delay component.
        drive_resistance_kohm: output drive resistance (kohm, so that
            kohm x fF = ps).
        input_cap_ff: capacitance of each input pin.
        leakage_nw: static power.
        internal_energy_fj: internal switching energy per output toggle.
    """

    intrinsic_ps: float
    drive_resistance_kohm: float
    input_cap_ff: float
    leakage_nw: float
    internal_energy_fj: float


@dataclass(frozen=True)
class Macro:
    """A placed-and-routable standard cell master.

    Attributes:
        name: full macro name, e.g. ``NAND2_X1_RVT``.
        spec: the architecture-independent cell function.
        vt: threshold flavor.
        arch: cell architecture the geometry follows.
        width: cell width in DBU.
        height: cell height in DBU (one row).
        pins: all pins (signal + power), keyed by name.
        m1_blocked_columns: cell-relative site columns whose M1 track is
            blocked inside the cell (ClosedM1 pin stripes and power
            stripes; empty for OpenM1 whose M1 is open).
        timing: delay/power model.
        pin_access: per pin name, its access geometry in both x
            orientations, ``(plain, mirrored)`` with each an
            ``(x, y, x_lo, x_hi)`` cell-relative tuple (the access
            point and the access shape's x-extent).  Index it with
            ``Orientation.is_x_mirrored``.  Built once here, so placed
            instances resolve pins by one lookup instead of the
            ``pin -> access_shape -> rect`` property chain, and no
            reader ever mutates a shared macro.
    """

    name: str
    spec: CellSpec
    vt: VtClass
    arch: CellArchitecture
    width: int
    height: int
    pins: dict[str, Pin]
    m1_blocked_columns: frozenset[int]
    timing: TimingModel
    _signal_pins: tuple[Pin, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    pin_access: dict[str, tuple[PinAccess, PinAccess]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "_signal_pins",
            tuple(
                pin
                for pin in self.pins.values()
                if pin.direction.is_signal
            ),
        )
        width = self.width
        mirror = Orientation.FN  # any x-mirrored orientation
        access: dict[str, tuple[PinAccess, PinAccess]] = {}
        for name, pin in self.pins.items():
            x, y = pin.x_rel, pin.y_rel
            iv = pin.x_interval_rel
            mirrored = mirror.transform_x_interval(iv, width)
            access[name] = (
                (x, y, iv.lo, iv.hi),
                (
                    mirror.transform_x(x, width),
                    y,
                    mirrored.lo,
                    mirrored.hi,
                ),
            )
        object.__setattr__(self, "pin_access", access)

    @property
    def width_sites(self) -> int:
        """Cell width in placement sites."""
        return self.spec.width_sites

    @property
    def bbox(self) -> Rect:
        """Cell outline with origin at (0, 0)."""
        return Rect(0, 0, self.width, self.height)

    @property
    def signal_pins(self) -> tuple[Pin, ...]:
        """Pins that participate in signal nets, in declaration order."""
        return self._signal_pins

    def pin(self, name: str) -> Pin:
        """Look up a pin by name (raises KeyError if absent)."""
        return self.pins[name]

    @property
    def output_pins(self) -> tuple[Pin, ...]:
        return tuple(
            p
            for p in self._signal_pins
            if p.direction is PinDirection.OUTPUT
        )

    @property
    def input_pins(self) -> tuple[Pin, ...]:
        return tuple(
            p
            for p in self._signal_pins
            if p.direction is PinDirection.INPUT
        )
