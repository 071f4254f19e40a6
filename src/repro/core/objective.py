"""Global objective evaluation (CalculateObj of Algorithm 2).

The same predicate the MILP encodes, evaluated on a concrete
placement: ClosedM1 counts exactly-aligned same-net pin pairs within
the γ-row span; OpenM1 counts pin pairs whose x-projections overlap by
at least δ within the γ-row span, plus the total overlap length.

Evaluation is one pass per net: every pin's access geometry is
resolved once (:meth:`~repro.netlist.design.Instance.pin_access`) and
both the pin-pair loop and the HPWL bounding box run over those
values.  Pairs are visited in the same order as ever and the HPWL
terms are summed by ``sum`` over the same sequence, so every result is
bit-identical to a per-pair, per-net recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.params import OptParams
from repro.geometry.orientation import X_MIRRORED
from repro.netlist.design import Design, Net
from repro.tech.arch import AlignmentMode


@dataclass(frozen=True)
class AlignmentStats:
    """Counted alignments/overlaps at the current placement."""

    num_aligned: int
    total_overlap: int


def _pin_access(instances, net: Net) -> list[tuple]:
    """``(instance, x, y, x_lo, x_hi)`` of every pin of ``net``: what
    :meth:`~repro.netlist.design.Instance.pin_access` answers, read
    from the macro's pin table without a call per pin."""
    pins = []
    for ref in net.pins:
        name = ref.instance
        inst = instances[name]
        x, y, lo, hi = inst.macro.pin_access[ref.pin][
            inst.orientation in X_MIRRORED
        ]
        ox = inst.x
        pins.append((name, ox + x, inst.y + y, ox + lo, ox + hi))
    return pins


def _pair_stats(
    mode: AlignmentMode, pins: list[tuple], span, delta: int
) -> tuple[int, int]:
    """Aligned/overlapped same-net pin pairs on distinct instances."""
    aligned = 0
    overlap_total = 0
    count = len(pins)
    for i in range(count):
        inst_p, px, py, plo, phi = pins[i]
        for j in range(i + 1, count):
            inst_q, qx, qy, qlo, qhi = pins[j]
            if inst_p == inst_q:
                continue
            if mode is AlignmentMode.ALIGN:
                if px == qx and abs(py - qy) <= span:
                    aligned += 1
                continue
            if abs(py - qy) > span:
                continue
            overlap = min(phi, qhi) - max(plo, qlo)
            if overlap >= delta:
                aligned += 1
                overlap_total += overlap - delta
    return aligned, overlap_total


def _sorted_nets(design: Design) -> list[Net]:
    return [net for _, net in sorted(design.nets.items())]


def alignment_stats(
    design: Design,
    params: OptParams,
    nets: list[Net] | None = None,
) -> AlignmentStats:
    """Count aligned/overlapped pin pairs under ``params``.

    ``nets`` restricts the count to a subset (used for local window
    objective checks); None means the whole design.
    """
    mode = design.tech.arch.alignment_mode
    if mode is AlignmentMode.NONE:
        return AlignmentStats(0, 0)
    if nets is None:
        nets = _sorted_nets(design)
    span = params.gamma * design.tech.row_height
    instances = design.instances
    aligned = 0
    overlap_total = 0
    for net in nets:
        if net.degree < 2 or net.degree > params.max_net_degree:
            continue
        a, o = _pair_stats(
            mode, _pin_access(instances, net), span, params.delta
        )
        aligned += a
        overlap_total += o
    return AlignmentStats(aligned, overlap_total)


def calculate_objective(
    design: Design,
    params: OptParams,
    nets: list[Net] | None = None,
) -> float:
    """The paper's objective: β·HPWL − α·(#alignments) − ε·(overlap).

    Lower is better; the ε term only applies to OpenM1.  ``nets``
    restricts the evaluation to a subset (local window objective).
    """
    if nets is None:
        nets = _sorted_nets(design)
    mode = design.tech.arch.alignment_mode
    pairs = mode is not AlignmentMode.NONE
    span = params.gamma * design.tech.row_height
    max_degree = params.max_net_degree
    instances = design.instances
    beta = params.beta
    uniform = params.net_beta is None
    aligned = 0
    overlap_total = 0
    terms: list[float] = []
    for net in nets:
        degree = net.degree
        if degree < 2:  # trivial: no wirelength, no pin pairs
            continue
        pins = _pin_access(instances, net)
        if pairs and degree <= max_degree:
            a, o = _pair_stats(mode, pins, span, params.delta)
            aligned += a
            overlap_total += o
        xs = [pin[1] for pin in pins]
        ys = [pin[2] for pin in pins]
        for pad in net.pads:
            xs.append(pad.x)
            ys.append(pad.y)
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        terms.append(
            (beta if uniform else params.beta_of(net.name)) * hpwl
        )
    objective = sum(terms)
    objective -= params.alpha * aligned
    if mode is AlignmentMode.OVERLAP:
        objective -= params.epsilon * overlap_total
    return objective
