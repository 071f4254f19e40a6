"""Synthetic gate-level benchmark generation.

The paper evaluates on an ARM Cortex M0 core and three OpenCores
designs (aes, jpeg, vga) synthesized with a commercial flow.  Those
netlists are not redistributable, so this module generates structural
equivalents: seeded random netlists with

* paper-matching instance counts per profile (scalable via ``scale``),
* Rent's-rule-like locality — sinks prefer drivers that are close in a
  linear structural order, which global placement then embeds in 2-D,
* a heavy-tailed fanout distribution with a controllable mean,
* a profile-specific cell mix (jpeg is register-rich, aes is
  XOR-heavy, vga is buffer/datapath-heavy), and
* a buffered clock tree for the sequential elements plus boundary IO
  pads.

The optimizer and router consume only the hypergraph and pin geometry,
so this is the behaviour-preserving substitution documented in
DESIGN.md §2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import Point, Rect
from repro.library.library import Library
from repro.library.macro import Macro
from repro.netlist.design import Design
from repro.tech.technology import Technology

#: Flops per clock-tree leaf buffer.
_FLOPS_PER_CLOCK_BUFFER = 40

#: Gate count at and above which signal-net wiring switches from the
#: original per-pin rejection-sampling loop to the vectorized
#: locality-bucketed path (``wiring="auto"``).  Designs below the
#: threshold keep the legacy RNG stream bit for bit, so every
#: committed small-scale expectation stays valid.
_BUCKETED_WIRING_MIN = 20_000


@dataclass(frozen=True)
class DesignProfile:
    """Statistical description of one benchmark design.

    Attributes:
        name: design name (``m0``/``aes``/``jpeg``/``vga``).
        instances: target instance count at ``scale`` = 1.0 (matches
            Table 2 of the paper).
        seq_fraction: fraction of instances that are flip-flops.
        mix: weight per combinational function family.
        mean_fanout: mean signal-net fanout.
        locality: mean structural distance between a sink and its
            driver, as a fraction of the design size.  Smaller is more
            local (lower Rent exponent).
        io_count: number of primary IO pads.
    """

    name: str
    instances: int
    seq_fraction: float
    mix: dict[str, float]
    mean_fanout: float = 2.2
    locality: float = 0.02
    io_count: int = 64


_BASE_MIX = {
    "INV": 0.16,
    "BUF": 0.08,
    "NAND2": 0.18,
    "NAND3": 0.05,
    "NOR2": 0.12,
    "NOR3": 0.04,
    "AND2": 0.06,
    "OR2": 0.05,
    "AOI21": 0.08,
    "OAI21": 0.08,
    "XOR2": 0.03,
    "XNOR2": 0.02,
    "MUX2": 0.05,
}


def _mix(**overrides: float) -> dict[str, float]:
    mix = dict(_BASE_MIX)
    mix.update(overrides)
    return mix


#: The four designs of Table 2 with paper-matching instance counts.
DESIGN_PROFILES: dict[str, DesignProfile] = {
    "m0": DesignProfile(
        name="m0",
        instances=9922,
        seq_fraction=0.17,
        mix=_mix(),
        locality=0.03,
        io_count=120,
    ),
    "aes": DesignProfile(
        name="aes",
        instances=12345,
        seq_fraction=0.12,
        mix=_mix(XOR2=0.12, XNOR2=0.08, NAND2=0.14, NOR2=0.09),
        locality=0.02,
        io_count=260,
    ),
    "jpeg": DesignProfile(
        name="jpeg",
        instances=54570,
        seq_fraction=0.22,
        mix=_mix(MUX2=0.09, AND2=0.08),
        locality=0.015,
        io_count=100,
    ),
    "vga": DesignProfile(
        name="vga",
        instances=68606,
        seq_fraction=0.25,
        mix=_mix(BUF=0.12, MUX2=0.08, INV=0.18),
        locality=0.012,
        io_count=130,
    ),
}


@dataclass
class _MacroPool:
    """Pre-resolved macro choices with sampling weights."""

    macros: list[Macro]
    weights: np.ndarray = field(repr=False, default=None)  # type: ignore


def _build_pool(
    library: Library, mix: dict[str, float], rng: np.random.RandomState
) -> _MacroPool:
    names: list[str] = []
    weights: list[float] = []
    for function, weight in sorted(mix.items()):
        drives = [
            m
            for m in library.combinational()
            if m.spec.function == function and m.vt.value == "RVT"
        ]
        if not drives:
            raise KeyError(f"library has no macros for {function}")
        for macro in drives:
            names.append(macro.name)
            # Higher drives are rarer.
            weights.append(weight / macro.spec.drive)
    macros = [library.macro(n) for n in names]
    w = np.asarray(weights, dtype=float)
    return _MacroPool(macros=macros, weights=w / w.sum())


def _die_for(
    tech: Technology, total_cell_area: int, utilization: float
) -> Rect:
    """Square die sized for ``utilization``, snapped to rows/sites."""
    area = total_cell_area / utilization
    side = math.sqrt(area)
    rows = max(2, round(side / tech.row_height))
    columns = max(2, math.ceil(area / (rows * tech.row_height) / tech.site_width))
    return Rect(0, 0, columns * tech.site_width, rows * tech.row_height)


def generate_design(
    profile: DesignProfile | str,
    tech: Technology,
    library: Library,
    *,
    scale: float = 1.0,
    utilization: float = 0.75,
    seed: int = 1,
) -> Design:
    """Generate an unplaced benchmark design.

    Args:
        profile: a :class:`DesignProfile` or one of the registered
            names (``m0``/``aes``/``jpeg``/``vga``).
        tech: target technology (chooses the cell architecture).
        library: library generated for ``tech``.
        scale: instance-count multiplier.  ``1.0`` matches the paper;
            experiments default to a smaller scale for Python+HiGHS
            tractability (see DESIGN.md §2).
        utilization: target placement utilization used to size the die.
        seed: RNG seed; generation is fully deterministic given
            (profile, scale, seed).

    Returns:
        A :class:`Design` with instances and nets but no placement.
    """
    if isinstance(profile, str):
        profile = DESIGN_PROFILES[profile]
    rng = np.random.RandomState(seed)
    n_total = max(8, round(profile.instances * scale))
    n_seq = round(n_total * profile.seq_fraction)
    n_clock_buffers = max(1, math.ceil(n_seq / _FLOPS_PER_CLOCK_BUFFER))
    n_comb = max(4, n_total - n_seq - n_clock_buffers)

    pool = _build_pool(library, profile.mix, rng)
    seq_macros = [
        m for m in library.sequential() if m.vt.value == "RVT"
    ]
    if n_seq and not seq_macros:
        raise ValueError("profile needs flops but library has none")

    # ---------------------------------------------------------- instances
    # Structural order: combinational and sequential cells interleaved
    # so that locality-based sink selection mixes them naturally.
    kinds = np.array([0] * n_comb + [1] * n_seq)
    rng.shuffle(kinds)
    comb_choice = rng.choice(len(pool.macros), size=n_comb, p=pool.weights)
    seq_choice = rng.choice(len(seq_macros), size=max(n_seq, 1))

    design_name = f"{profile.name}_s{scale:g}_{tech.arch.value}"
    # Die sizing needs areas first; collect macros then build.
    chosen: list[Macro] = []
    ci = si = 0
    for kind in kinds:
        if kind == 0:
            chosen.append(pool.macros[comb_choice[ci]])
            ci += 1
        else:
            chosen.append(seq_macros[seq_choice[si]])
            si += 1
    clock_buf = _clock_buffer_macro(library)
    chosen.extend([clock_buf] * n_clock_buffers)

    cell_area = sum(m.width * m.height for m in chosen)
    die = _die_for(tech, cell_area, utilization)
    design = Design(design_name, tech, die)

    names: list[str] = []
    for i, macro in enumerate(chosen):
        name = f"U{i:06d}"
        design.add_instance(name, macro)
        names.append(name)
    gate_names = names[: n_comb + n_seq]
    buf_names = names[n_comb + n_seq :]

    # --------------------------------------------------------------- nets
    _wire_signal_nets(design, gate_names, profile, rng)
    _wire_clock_tree(design, gate_names, buf_names, rng)
    _attach_io_pads(design, profile, rng)
    return design


def _clock_buffer_macro(library: Library) -> Macro:
    for name in ("BUF_X2_RVT", "BUF_X1_RVT"):
        if name in library:
            return library.macro(name)
    return library.combinational()[0]


def _wire_signal_nets(
    design: Design,
    gate_names: list[str],
    profile: DesignProfile,
    rng: np.random.RandomState,
) -> None:
    """Create one net per gate output and attach locality-chosen sinks.

    Every gate input chooses a driver whose structural index is a
    two-sided geometric distance away, producing Rent-like locality.
    Driver sampling is also weighted so the resulting fanout
    distribution is heavy-tailed around ``profile.mean_fanout``.

    Two implementations share the same acceptance rule:

    * the original per-pin rejection loop (kept bit-identical for
      designs under :data:`_BUCKETED_WIRING_MIN` gates, whose RNG
      stream existing expectations depend on), and
    * a vectorized path for large designs
      (:func:`_wire_inputs_bucketed`) that runs the same rejection
      process in whole-array rounds and resolves the rare exhausted
      pins from a locality-sorted candidate pool.
    """
    n = len(gate_names)
    # Net of gate i's output pin.
    for i, name in enumerate(gate_names):
        net = design.add_net(f"n{i:06d}")
        inst = design.instances[name]
        out_pin = inst.macro.output_pins[0]
        design.connect(net.name, name, out_pin.name)

    scale = max(2.0, profile.locality * n)
    p_geom = min(0.75, 1.0 / scale)
    is_seq = [
        design.instances[name].macro.spec.is_sequential
        for name in gate_names
    ]

    if n >= _BUCKETED_WIRING_MIN:
        _wire_inputs_bucketed(design, gate_names, is_seq, p_geom, rng)
        return

    def acceptable(i: int, j: int) -> bool:
        """Keep combinational logic acyclic: a combinational gate may
        only be driven by a flop or by a lower-index gate."""
        if not 0 <= j < n or j == i:
            return False
        return is_seq[j] or is_seq[i] or j < i

    fallback = [j for j in range(n) if is_seq[j]]
    for i, name in enumerate(gate_names):
        inst = design.instances[name]
        for pin in inst.macro.input_pins:
            if pin.name == inst.macro.spec.clock_pin:
                continue  # clock wired separately
            for _attempt in range(12):
                distance = int(rng.geometric(p_geom))
                sign = -1 if rng.random_sample() < 0.5 else 1
                j = i + sign * distance
                if acceptable(i, j):
                    break
            else:
                if i > 0:
                    j = i - 1
                elif fallback:
                    j = fallback[0]
                else:
                    j = (i + 1) % n  # degenerate tiny all-comb design
            design.connect(f"n{j:06d}", name, pin.name)


def _data_input_pins(design: Design, gate_names: list[str]):
    """Yield ``(gate_index, pin_name)`` for every non-clock input, in
    the same order the legacy wiring loop visits them."""
    per_macro: dict[str, list[str]] = {}
    for i, name in enumerate(gate_names):
        macro = design.instances[name].macro
        pins = per_macro.get(macro.name)
        if pins is None:
            pins = [
                p.name
                for p in macro.input_pins
                if p.name != macro.spec.clock_pin
            ]
            per_macro[macro.name] = pins
        for pin in pins:
            yield i, pin


def _wire_inputs_bucketed(
    design: Design,
    gate_names: list[str],
    is_seq: list[bool],
    p_geom: float,
    rng: np.random.RandomState,
) -> None:
    """Vectorized driver selection for large designs.

    The legacy loop draws from the RNG once per rejection attempt per
    pin — hundreds of thousands of scalar ``rng.geometric`` /
    ``rng.random_sample`` calls that dominate 50k+-cell generation.
    This path runs the *same* rejection process in whole-array rounds:
    each round draws (distance, sign) for every still-unassigned pin
    at once and keeps the draws the acceptance rule admits.  The
    active set shrinks geometrically, so total drawn values stay
    within ~2x the pin count.

    Pins that exhaust all rounds (possible only near the low-index
    boundary, where a combinational sink has few acceptable drivers)
    are resolved from the locality-sorted candidate pool: the always-
    acceptable drivers — flops, plus the sink's lower-index neighbor —
    sorted by structural position, snapping each pin to the pool
    member nearest its last drawn target so the geometric locality
    profile is preserved.

    The RNG stream differs from the legacy loop's, which is why this
    path is gated to ``n >= _BUCKETED_WIRING_MIN`` where no committed
    design expectations exist.
    """
    n = len(gate_names)
    sinks: list[int] = []
    pin_names: list[str] = []
    for i, pin in _data_input_pins(design, gate_names):
        sinks.append(i)
        pin_names.append(pin)
    m = len(sinks)
    if m == 0:
        return
    seq = np.asarray(is_seq, dtype=bool)
    i_arr = np.asarray(sinks, dtype=np.int64)

    drivers = np.full(m, -1, dtype=np.int64)
    last_target = i_arr.copy()
    active = np.arange(m)
    for _attempt in range(12):
        if active.size == 0:
            break
        ia = i_arr[active]
        distance = rng.geometric(p_geom, size=active.size).astype(
            np.int64
        )
        sign = np.where(
            rng.random_sample(active.size) < 0.5, -1, 1
        ).astype(np.int64)
        cand = ia + sign * distance
        clipped = np.clip(cand, 0, n - 1)
        last_target[active] = clipped
        ok = (cand >= 0) & (cand < n) & (cand != ia)
        ok &= seq[clipped] | seq[ia] | (cand < ia)
        drivers[active[ok]] = cand[ok]
        active = active[~ok]
    if active.size:
        drivers[active] = _snap_to_pool(
            i_arr[active], last_target[active], n, seq
        )

    nets = [f"n{j:06d}" for j in drivers]
    for k in range(m):
        design.connect(nets[k], gate_names[i_arr[k]], pin_names[k])


def _snap_to_pool(
    i_bad: np.ndarray, t_bad: np.ndarray, n: int, seq: np.ndarray
) -> np.ndarray:
    """Resolve rejection-exhausted pins from the acceptable-driver pool.

    For each (sink ``i``, last target ``t``) pick the acceptable driver
    closest to ``t``: a sequential sink accepts anything, so ``t``
    itself (nudged off ``i``); a combinational sink accepts any flop or
    any lower index, so the nearer of ``min(t, i - 1)`` and the flop
    adjacent to ``t`` in the sorted flop pool.
    """
    seq_pool = np.flatnonzero(seq)
    out = np.empty(i_bad.size, dtype=np.int64)
    for k in range(i_bad.size):
        i = int(i_bad[k])
        t = int(t_bad[k])
        if seq[i]:
            if t == i:
                t = i - 1 if i > 0 else i + 1
            out[k] = t
            continue
        best = min(t, i - 1) if i > 0 else -1
        if seq_pool.size:
            pos = int(np.searchsorted(seq_pool, t))
            for cand_pos in (pos - 1, pos):
                if 0 <= cand_pos < seq_pool.size:
                    c = int(seq_pool[cand_pos])
                    if c != i and (
                        best < 0 or abs(c - t) < abs(best - t)
                    ):
                        best = c
        out[k] = best if best >= 0 else (i + 1) % n
    return out


def _wire_clock_tree(
    design: Design,
    gate_names: list[str],
    buf_names: list[str],
    rng: np.random.RandomState,
) -> None:
    """Buffered clock distribution: root net -> leaf buffers -> flops."""
    flops = [
        name
        for name in gate_names
        if design.instances[name].macro.spec.is_sequential
    ]
    if not flops:
        return
    root = design.add_net("clk_root")
    root.pads.append(Point(design.die.xlo, design.die.ylo))
    for b, buf in enumerate(buf_names):
        inst = design.instances[buf]
        design.connect(root.name, buf, inst.macro.input_pins[0].name)
        design.add_net(f"clk_leaf{b:03d}")
        design.connect(
            f"clk_leaf{b:03d}", buf, inst.macro.output_pins[0].name
        )
    for i, flop in enumerate(flops):
        inst = design.instances[flop]
        leaf = (i * len(buf_names)) // len(flops)
        design.connect(
            f"clk_leaf{leaf:03d}",
            flop,
            inst.macro.spec.clock_pin,
        )


def _attach_io_pads(
    design: Design, profile: DesignProfile, rng: np.random.RandomState
) -> None:
    """Attach boundary pads to a random subset of signal nets."""
    die = design.die
    signal_nets = sorted(
        name for name in design.nets if name.startswith("n")
    )
    if not signal_nets:
        return
    count = min(profile.io_count, len(signal_nets))
    picks = rng.choice(len(signal_nets), size=count, replace=False)
    for k, idx in enumerate(sorted(picks)):
        net = design.nets[signal_nets[idx]]
        edge = k % 4
        t = rng.random_sample()
        if edge == 0:
            pad = Point(die.xlo, die.ylo + int(t * die.height))
        elif edge == 1:
            pad = Point(die.xhi, die.ylo + int(t * die.height))
        elif edge == 2:
            pad = Point(die.xlo + int(t * die.width), die.ylo)
        else:
            pad = Point(die.xlo + int(t * die.width), die.yhi)
        net.pads.append(pad)
