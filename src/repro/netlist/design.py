"""In-memory layout/netlist database."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.geometry import Interval, Orientation, Point, Rect
from repro.geometry.orientation import X_MIRRORED
from repro.library.macro import Macro
from repro.library.pins import PinDirection
from repro.tech.technology import Technology


@dataclass(frozen=True, slots=True, order=True)
class PinRef:
    """Reference to one instance pin: ``(instance_name, pin_name)``."""

    instance: str
    pin: str


@dataclass
class Instance:
    """A placed standard-cell instance.

    Placement state is the cell origin ``(x, y)`` (lower-left corner of
    the cell bounding box in DBU — always on a site/row boundary for a
    legal placement) plus the DEF orientation.
    """

    name: str
    macro: Macro
    x: int = 0
    y: int = 0
    orientation: Orientation = Orientation.N
    fixed: bool = False
    #: pin name -> net name, maintained by Design.connect().
    net_of_pin: dict[str, str] = field(default_factory=dict)

    @property
    def width(self) -> int:
        return self.macro.width

    @property
    def height(self) -> int:
        return self.macro.height

    @property
    def bbox(self) -> Rect:
        return Rect(self.x, self.y, self.x + self.width, self.y + self.height)

    @property
    def flipped(self) -> bool:
        """The paper's ``fc``: x-mirrored relative to the row default."""
        return self.orientation.is_x_mirrored

    def pin_access(self, pin_name: str) -> tuple[int, int, int, int]:
        """Absolute ``(x, y, x_lo, x_hi)`` of ``pin_name``: its access
        point and the x-extent of its access shape, from the macro's
        pin table (:attr:`Macro.pin_access`)."""
        x, y, lo, hi = self.macro.pin_access[pin_name][
            self.orientation in X_MIRRORED
        ]
        ox = self.x
        return ox + x, self.y + y, ox + lo, ox + hi

    def pin_position(self, pin_name: str) -> Point:
        """Absolute access point of ``pin_name``."""
        x, y, _, _ = self.pin_access(pin_name)
        return Point(x, y)

    def pin_x_interval(self, pin_name: str) -> Interval:
        """Absolute x-extent of ``pin_name`` (OpenM1 overlap geometry)."""
        _, _, lo, hi = self.pin_access(pin_name)
        return Interval(lo, hi)

    def m1_blocked_columns_abs(self, tech: Technology) -> list[int]:
        """Absolute site columns whose M1 track this instance blocks."""
        base = self.x // tech.site_width
        w = self.macro.width_sites
        if self.flipped:
            return sorted(
                base + (w - 1 - c) for c in self.macro.m1_blocked_columns
            )
        return sorted(base + c for c in self.macro.m1_blocked_columns)


@dataclass
class Net:
    """A signal net: instance pins plus optional fixed IO pad points."""

    name: str
    pins: list[PinRef] = field(default_factory=list)
    #: Fixed terminals (primary IO pads) in absolute DBU coordinates.
    pads: list[Point] = field(default_factory=list)

    @property
    def degree(self) -> int:
        """Number of terminals (pins + pads)."""
        return len(self.pins) + len(self.pads)

    def is_trivial(self) -> bool:
        """True when the net cannot contribute wirelength."""
        return self.degree < 2


class Design:
    """A placed design over one technology/library.

    The class is deliberately mutation-friendly — the optimizer moves
    instances in place — while keeping net membership immutable after
    construction (detailed placement never rewires).
    """

    def __init__(self, name: str, tech: Technology, die: Rect) -> None:
        if die.ylo % tech.row_height or die.xlo % tech.site_width:
            raise ValueError("die origin must be row/site aligned")
        self.name = name
        self.tech = tech
        self.die = die
        self.instances: dict[str, Instance] = {}
        self.nets: dict[str, Net] = {}

    # ------------------------------------------------------ construction
    def add_instance(self, name: str, macro: Macro) -> Instance:
        """Create and register an (unplaced) instance."""
        if name in self.instances:
            raise ValueError(f"duplicate instance {name}")
        inst = Instance(name=name, macro=macro)
        self.instances[name] = inst
        return inst

    def add_net(self, name: str) -> Net:
        """Create and register an empty net."""
        if name in self.nets:
            raise ValueError(f"duplicate net {name}")
        net = Net(name=name)
        self.nets[name] = net
        return net

    def connect(self, net_name: str, instance: str, pin: str) -> None:
        """Attach ``instance.pin`` to ``net_name``."""
        inst = self.instances[instance]
        if pin not in inst.macro.pins:
            raise KeyError(f"{inst.macro.name} has no pin {pin}")
        if pin in inst.net_of_pin:
            raise ValueError(f"{instance}.{pin} already connected")
        self.nets[net_name].pins.append(PinRef(instance, pin))
        inst.net_of_pin[pin] = net_name

    # ----------------------------------------------------------- queries
    @property
    def num_rows(self) -> int:
        return self.die.height // self.tech.row_height

    @property
    def num_columns(self) -> int:
        return self.die.width // self.tech.site_width

    def net_terminals(self, net: Net) -> list[Point]:
        """Absolute locations of every terminal of ``net``."""
        points = [
            self.instances[ref.instance].pin_position(ref.pin)
            for ref in net.pins
        ]
        points.extend(net.pads)
        return points

    def net_bbox(self, net: Net) -> Rect | None:
        """Bounding box of the net's terminals (None for degree<1)."""
        points = self.net_terminals(net)
        if not points:
            return None
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def net_hpwl(self, net: Net) -> int:
        """Half-perimeter wirelength of one net."""
        bbox = self.net_bbox(net)
        return bbox.half_perimeter if bbox else 0

    def total_hpwl(self) -> int:
        """HPWL summed over all non-trivial nets."""
        return sum(
            self.net_hpwl(net)
            for net in self.nets.values()
            if not net.is_trivial()
        )

    def driver_of(self, net: Net) -> PinRef | None:
        """The output pin driving ``net`` (None for pad-driven nets)."""
        for ref in net.pins:
            inst = self.instances[ref.instance]
            pin = inst.macro.pin(ref.pin)
            if pin.direction is PinDirection.OUTPUT:
                return ref
        return None

    def instances_in(self, region: Rect) -> list[Instance]:
        """Instances whose bbox lies fully inside ``region``, sorted by
        name for determinism."""
        xlo, ylo, xhi, yhi = region.xlo, region.ylo, region.xhi, region.yhi
        matches = [
            inst
            for inst in self.instances.values()
            if xlo <= inst.x
            and ylo <= inst.y
            and inst.x + inst.macro.width <= xhi
            and inst.y + inst.macro.height <= yhi
        ]
        matches.sort(key=lambda inst: inst.name)
        return matches

    def nets_of_instances(self, names: set[str]) -> list[Net]:
        """All nets touching any instance in ``names`` (sorted)."""
        seen: set[str] = set()
        for name in names:
            seen.update(self.instances[name].net_of_pin.values())
        return [self.nets[n] for n in sorted(seen)]

    def total_cell_area(self) -> int:
        """Sum of instance footprint areas."""
        return sum(
            inst.width * inst.height for inst in self.instances.values()
        )

    def utilization(self) -> float:
        """Cell area over die area."""
        return self.total_cell_area() / self.die.area

    # --------------------------------------------------------- placement
    def place(
        self,
        instance: str,
        column: int,
        row: int,
        flipped: bool = False,
    ) -> None:
        """Place ``instance`` with its left edge at ``column`` in
        ``row``, in the row-legal orientation."""
        inst = self.instances[instance]
        inst.x, inst.y, inst.orientation = self.placement_at(
            column, row, flipped
        )

    def placement_at(
        self, column: int, row: int, flipped: bool = False
    ) -> tuple[int, int, Orientation]:
        """The ``(x, y, orientation)`` :meth:`place` would give a cell
        placed at ``column`` in ``row``."""
        return (
            self.die.xlo + column * self.tech.site_width,
            self.die.ylo + row * self.tech.row_height,
            Orientation.for_row(row, flipped),
        )

    def row_of(self, inst: Instance) -> int:
        """Row index of ``inst`` relative to the die origin."""
        return (inst.y - self.die.ylo) // self.tech.row_height

    def column_of(self, inst: Instance) -> int:
        """Site column of ``inst``'s left edge relative to the die."""
        return (inst.x - self.die.xlo) // self.tech.site_width

    def placement_snapshot(self) -> dict[str, tuple[int, int, Orientation]]:
        """Capture every instance's placement for later restore."""
        return {
            name: (inst.x, inst.y, inst.orientation)
            for name, inst in self.instances.items()
        }

    def restore_placement(
        self, snapshot: dict[str, tuple[int, int, Orientation]]
    ) -> None:
        """Restore a placement captured by :meth:`placement_snapshot`."""
        for name, (x, y, orient) in snapshot.items():
            inst = self.instances[name]
            inst.x, inst.y, inst.orientation = x, y, orient

    def check_legal(self) -> list[str]:
        """Return a list of legality violations (empty when legal).

        Checks: on-grid origins, die containment, row-legal
        orientation, and no cell overlap.
        """
        errors: list[str] = []
        tech = self.tech
        by_row: dict[int, list[Instance]] = {}
        for name, inst in sorted(self.instances.items()):
            if (inst.x - self.die.xlo) % tech.site_width:
                errors.append(f"{name}: x {inst.x} off site grid")
            if (inst.y - self.die.ylo) % tech.row_height:
                errors.append(f"{name}: y {inst.y} off row grid")
            if not self.die.contains_rect(inst.bbox):
                errors.append(f"{name}: outside die")
            row = self.row_of(inst)
            if inst.orientation.is_y_mirrored != bool(row % 2):
                errors.append(f"{name}: illegal orientation in row {row}")
            by_row.setdefault(row, []).append(inst)
        for row, insts in sorted(by_row.items()):
            insts.sort(key=lambda i: (i.x, i.name))
            for left, right in zip(insts, insts[1:]):
                if left.x + left.width > right.x:
                    errors.append(
                        f"overlap in row {row}: {left.name} / {right.name}"
                    )
        return errors
