"""Window MILP construction: the §3.1 / §3.2 formulations.

Given one window, the model selects an SCP candidate per movable cell
(λ binaries, constraints (5)–(8) folded into candidate constants),
packs cells onto sites (constraint (9)), tracks each touched net's
HPWL through min/max coordinate variables (constraints (2)–(3)), and
scores direct-vertical-M1 opportunities:

* ClosedM1 — a binary d_pq per candidate-feasible same-net pin pair
  with the big-M alignment test of constraint (4), generalized from H
  to γ·H.
* OpenM1 — overlap variables a/b/o_pq and the escape binary v_pq with
  constraints (11)–(14); d_pq = 1 requires overlap ≥ δ within the γ
  row span, and the overlap length o_pq is rewarded with ε.

Pin pairs that can never align/overlap under any candidate combination
are pruned before a variable is created (sound pruning: only provably
d_pq = 0 pairs are dropped).

One solver-facing detail rides on the model, a **deterministic
tie-break**.  Window optima are massively degenerate (symmetric swaps,
equal-HPWL shifts), so which optimum a solver returns depends on its
internal ordering.  Every λ gets a tiny objective perturbation —
deterministic in the cell name and the candidate index, total weight
below ``_TIE_BREAK_BUDGET`` — which makes the selected optimum a
property of the *model*, not of the solve path.  That is what lets
presolved solves reproduce the plain solve bit for bit, and what makes
a re-solved fixpoint window reproduce its earlier non-move (the
soundness argument of :mod:`repro.core.dirty`).

Every window model admits the identity assignment: candidate 0 (the
current placement) for every cell, every alignment binary off and
every escape binary on.  With the λ pinned there, the model's optimum
is the window's current local objective plus candidate 0's tie-break
weight.  A window solve that reports infeasible or unbounded is
therefore a solver fault (:meth:`repro.runtime.task.WindowTask._run`
relies on this).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.params import OptParams
from repro.core.scp import Candidate, enumerate_candidates
from repro.core.window import Window
from repro.geometry.orientation import X_MIRRORED
from repro.milp.model import Constraint, LinExpr, Model, Sense, Var
from repro.milp.solution import Solution
from repro.netlist.design import Design, Instance, Net, PinRef
from repro.tech.arch import AlignmentMode

#: Total objective weight available to the λ tie-break perturbation.
#: Kept below 0.5 — half the quantum of the integer-valued primary
#: objective — so the perturbation can reorder *tied* optima only.
_TIE_BREAK_BUDGET = 0.45


@dataclass
class _PinExpr:
    """Linear expressions for one pin's absolute geometry.

    For fixed pins the expressions are constants; for movable pins
    they are affine in the owner cell's λ variables.
    """

    x: LinExpr
    y: LinExpr
    x_lo: LinExpr  # xmin_p (OpenM1 interval left)
    x_hi: LinExpr  # xmax_p (OpenM1 interval right)
    x_values: tuple[int, ...]  # attainable x coordinates (pruning)
    y_values: tuple[int, ...]
    lo_min: int
    hi_max: int
    movable: bool
    #: field name -> nonzero coefficients of ``-field``, filled on
    #: first use: a pin's bound rows share one negation.
    _negated: dict[str, dict[int, float]] = field(default_factory=dict)

    def negated(self, name: str) -> dict[int, float]:
        """Nonzero coefficients of ``-getattr(self, name)``."""
        neg = self._negated.get(name)
        if neg is None:
            neg = {
                idx: -coef
                for idx, coef in getattr(self, name).coefs.items()
                if coef
            }
            self._negated[name] = neg
        return neg


@dataclass
class WindowProblem:
    """A built window MILP plus the data needed to apply its result."""

    window: Window
    model: Model
    movable: list[str]
    candidates: dict[str, list[Candidate]]
    lambda_vars: dict[str, list[Var]]
    d_vars: list[Var] = field(default_factory=list)
    nets: list[str] = field(default_factory=list)

    @property
    def num_pairs(self) -> int:
        return len(self.d_vars)


def build_window_model(
    design: Design,
    window: Window,
    params: OptParams,
    *,
    lx: int,
    ly: int,
    allow_flip: bool,
) -> WindowProblem | None:
    """Build the MILP for ``window``; None when nothing is optimizable."""
    movable_insts = [
        inst
        for inst in design.instances_in(window.rect)
        if not inst.fixed
    ]
    if not movable_insts:
        return None
    movable_names = [inst.name for inst in movable_insts]
    movable_set = set(movable_names)

    blocked = _blocked_sites(design, window, movable_set)
    model = Model(f"win({window.ix},{window.iy})")

    candidates: dict[str, list[Candidate]] = {}
    lambda_vars: dict[str, list[Var]] = {}
    site_cover: dict[tuple[int, int], list[Var]] = defaultdict(list)
    for inst in movable_insts:
        cands = [
            cand
            for cand in enumerate_candidates(
                design, inst, window.rect, lx=lx, ly=ly,
                allow_flip=allow_flip,
            )
            if blocked.isdisjoint(cand.sites)
        ]
        if not cands:  # should not happen: identity is always legal
            return None
        candidates[inst.name] = cands
        lams = [
            model.add_binary(f"lam[{inst.name},{k}]")
            for k in range(len(cands))
        ]
        lambda_vars[inst.name] = lams
        model.add_constraint(
            Constraint(
                {lam.index: 1.0 for lam in lams}, Sense.EQ, 1.0,
                name=f"sel[{inst.name}]",
            )
        )
        for cand, lam in zip(cands, lams):
            for site in cand.sites:
                site_cover[site].append(lam)

    for site, lams in sorted(site_cover.items()):
        if len(lams) > 1:
            model.add_constraint(
                Constraint(
                    {lam.index: 1.0 for lam in lams}, Sense.LE, 1.0,
                    name=f"site[{site[0]},{site[1]}]",
                )
            )

    nets = _touched_nets(design, movable_set)
    pin_exprs = _pin_expressions(
        design, nets, movable_set, candidates, lambda_vars
    )

    # Objective assembled in one mutable accumulator — `expr + expr`
    # copies the growing coefficient dict and turned the build
    # O(terms^2) for large windows.
    obj_coefs: dict[int, float] = {}
    obj_const = 0.0

    def accumulate(expr: LinExpr, factor: float) -> None:
        nonlocal obj_const
        for idx, coef in expr.coefs.items():
            obj_coefs[idx] = obj_coefs.get(idx, 0.0) + factor * coef
        obj_const += factor * expr.const

    for net in nets:
        accumulate(
            _hpwl_expr(design, model, net, pin_exprs),
            params.beta_of(net.name),
        )

    mode = design.tech.arch.alignment_mode
    d_vars: list[Var] = []
    if mode is not AlignmentMode.NONE and params.alpha > 0:
        span = params.gamma * design.tech.row_height
        for net in nets:
            if not 2 <= net.degree <= params.max_net_degree:
                continue
            for ref_p, ref_q in _movable_pairs(net, movable_set):
                p = pin_exprs[ref_p]
                q = pin_exprs[ref_q]
                if mode is AlignmentMode.ALIGN:
                    d = _closedm1_pair(model, p, q, span, ref_p, ref_q)
                    if d is not None:
                        d_vars.append(d)
                        obj_coefs[d.index] = -float(params.alpha)
                else:
                    built = _openm1_pair(
                        model, p, q, span, params.delta, ref_p, ref_q
                    )
                    if built is not None:
                        d, overlap = built
                        d_vars.append(d)
                        obj_coefs[d.index] = -float(params.alpha)
                        obj_coefs[overlap.index] = -float(
                            params.epsilon
                        )

    _perturb_ties(obj_coefs, movable_names, lambda_vars)
    model.minimize(LinExpr(obj_coefs, obj_const))
    return WindowProblem(
        window=window,
        model=model,
        movable=movable_names,
        candidates=candidates,
        lambda_vars=lambda_vars,
        d_vars=d_vars,
        nets=[net.name for net in nets],
    )


def solution_moves(
    problem: WindowProblem, solution: Solution
) -> tuple[tuple[str, int, int, bool], ...]:
    """Decode a window solution into plain placement moves.

    Returns one ``(cell, column, row, flipped)`` per movable cell, in
    the problem's canonical cell order.  This is the only part of a
    solution the parent needs to apply it, so it is what a
    :class:`~repro.runtime.task.WindowTask` ships back across the
    process boundary.

    Raises:
        ValueError: if any cell has no (or more than one) selected
            candidate — a corrupt solution.
    """
    moves: list[tuple[str, int, int, bool]] = []
    values = solution.values
    for name in problem.movable:
        cands = problem.candidates[name]
        lams = problem.lambda_vars[name]
        picked = [
            cand
            for cand, lam in zip(cands, lams)
            if values.get(lam.index, 0.0) > 0.5  # Solution.is_one
        ]
        if len(picked) != 1:
            raise ValueError(
                f"{name}: {len(picked)} candidates selected"
            )
        cand = picked[0]
        moves.append((name, cand.column, cand.row, cand.flipped))
    return tuple(moves)


def apply_moves(
    design: Design, moves: tuple[tuple[str, int, int, bool], ...]
) -> int:
    """Place decoded moves; returns how many placements changed."""
    moved = 0
    for name, column, row, flipped in moves:
        inst = design.instances[name]
        before = (inst.x, inst.y, inst.orientation)
        design.place(name, column, row, flipped)
        if (inst.x, inst.y, inst.orientation) != before:
            moved += 1
    return moved


def apply_solution(
    design: Design, problem: WindowProblem, solution: Solution
) -> int:
    """Write the selected candidates back into ``design``.

    Returns the number of instances whose placement changed.

    Raises:
        ValueError: if any cell has no selected candidate (corrupt
            solution) — the design is left untouched in that case
        (decoding happens before the first placement write).
    """
    return apply_moves(design, solution_moves(problem, solution))


def window_slice(
    design: Design, window: Window
) -> Design | None:
    """The minimal sub-design a worker-side window build needs.

    Collects every instance whose bbox overlaps the window's probe
    rect (everything :func:`build_window_model` reads spatially: the
    movables plus every potential site blocker), the movable cells'
    nets, and those nets' off-window terminal instances (HPWL anchors
    read through ``pin_position``).  ``build_window_model`` on the
    slice is input-identical to a build on the full design — same
    movables, same blocked sites, same touched nets, same pin
    geometry — so it produces the same model, bit for bit.

    Returns ``None`` when the window holds no movable cell (nothing
    to build, mirroring the full build's early-out).

    Instance/net objects are *shared* with the parent design, not
    copied: the worker only reads them, and pickling a task for a
    process executor deep-copies the slice anyway.
    """
    probe = probe_rect(design, window)
    rect = window.rect
    px0, py0, px1, py1 = probe.xlo, probe.ylo, probe.xhi, probe.yhi
    wx0, wy0, wx1, wy1 = rect.xlo, rect.ylo, rect.xhi, rect.yhi
    instances: dict[str, Instance] = {}
    movable: set[str] = set()
    # Integer coordinate tests, one instance at a time: the open
    # overlap of Rect.overlaps_open for the slice, Rect.contains_rect
    # for the movables — without a bbox Rect per instance per window.
    for name, inst in design.instances.items():
        x = inst.x
        y = inst.y
        macro = inst.macro
        x1 = x + macro.width
        y1 = y + macro.height
        if not (x < px1 and px0 < x1 and y < py1 and py0 < y1):
            continue
        instances[name] = inst
        if (
            not inst.fixed
            and wx0 <= x
            and x1 <= wx1
            and wy0 <= y
            and y1 <= wy1
        ):
            movable.add(name)
    if not movable:
        return None
    nets: dict[str, Net] = {}
    for net in design.nets_of_instances(movable):
        nets[net.name] = net
        for ref in net.pins:
            if ref.instance not in instances:
                instances[ref.instance] = design.instances[
                    ref.instance
                ]
    sub = Design(design.name, design.tech, design.die)
    sub.instances = instances
    sub.nets = nets
    return sub


# ---------------------------------------------------------------- helpers
def _perturb_ties(
    obj_coefs: dict[int, float],
    movable_names: list[str],
    lambda_vars: dict[str, list[Var]],
) -> None:
    """Add the deterministic tie-break perturbation to the λ terms.

    Per cell ``c`` each candidate ``k`` gains
    ``scale_c * (k + 1) / (n_c + 1)`` where ``scale_c`` is derived
    from a hash of the cell name.  Within a cell, adjacent candidates
    are separated by at least ``scale_c / (n_c + 1)`` — orders of
    magnitude above solver tolerances — and the total across all cells
    stays below ``_TIE_BREAK_BUDGET`` so no primary-objective decision
    can be reordered, only genuine ties.
    """
    budget = _TIE_BREAK_BUDGET / max(1, len(movable_names))
    for name in movable_names:
        digest = hashlib.blake2b(
            name.encode(), digest_size=8
        ).digest()
        fraction = int.from_bytes(digest, "big") / 2**64
        scale = budget * (0.5 + 0.5 * fraction)
        lams = lambda_vars[name]
        step = scale / (len(lams) + 1)
        for k, lam in enumerate(lams):
            obj_coefs[lam.index] = (
                obj_coefs.get(lam.index, 0.0) + step * (k + 1)
            )


def probe_rect(design: Design, window: Window):
    """The neighborhood a window build actually reads: the window rect
    expanded far enough to see every blocking cell.  The dirty
    tracker invalidates a window's clean mark when a moved cell
    touches exactly this neighborhood, which covers every placement
    the build reads."""
    tech = design.tech
    return window.rect.expanded(
        max(tech.site_width * 64, tech.row_height * 4)
    )


def _blocked_sites(
    design: Design, window: Window, movable: set[str]
) -> set[tuple[int, int]]:
    """Sites inside the window footprinted by cells we may not move
    (boundary-straddling or fixed cells).

    Only cells overlapping the window rect can cover such a site, and
    every candidate footprint lies inside the window rect, so the scan
    skips the rest of the probe neighborhood: the sites it leaves out
    could never meet a candidate."""
    blocked: set[tuple[int, int]] = set()
    rect = window.rect
    xlo, ylo, xhi, yhi = rect.xlo, rect.ylo, rect.xhi, rect.yhi
    die = design.die
    sw = design.tech.site_width
    rh = design.tech.row_height
    # Set contents are order-independent — no need to sort the scan.
    for name, inst in design.instances.items():
        if name in movable:
            continue
        x = inst.x
        y = inst.y
        macro = inst.macro
        if (
            x >= xhi
            or x + macro.width <= xlo
            or y >= yhi
            or y + macro.height <= ylo
        ):
            continue
        row = (y - die.ylo) // rh  # Design.row_of
        col = (x - die.xlo) // sw  # Design.column_of
        for c in range(col, col + macro.width_sites):
            blocked.add((row, c))
    return blocked


def _touched_nets(design: Design, movable: set[str]) -> list[Net]:
    nets = design.nets_of_instances(movable)
    return [net for net in nets if not net.is_trivial()]


def _pin_expressions(
    design: Design,
    nets: list[Net],
    movable: set[str],
    candidates: dict[str, list[Candidate]],
    lambda_vars: dict[str, list[Var]],
) -> dict[PinRef, _PinExpr]:
    exprs: dict[PinRef, _PinExpr] = {}
    # Candidate geometry is per *instance*, not per pin — hoist it out
    # of the per-pin work so a cell's pins share one sweep.
    inst_geo: dict[str, tuple[list, list, list, list]] = {}
    for net in nets:
        for ref in net.pins:
            if ref in exprs:
                continue
            inst = design.instances[ref.instance]
            if ref.instance in movable:
                geo = inst_geo.get(ref.instance)
                if geo is None:
                    cands = candidates[ref.instance]
                    geo = (
                        [lam.index for lam in lambda_vars[ref.instance]],
                        [c.x for c in cands],
                        [c.y for c in cands],
                        [c.orientation in X_MIRRORED for c in cands],
                    )
                    inst_geo[ref.instance] = geo
                idxs, cxs, cys, mirrored = geo
                # The pin's relative geometry has exactly two variants
                # (plain / x-mirrored), both precomputed in the
                # macro's pin table.
                (xp_n, y_rel, lo_n, hi_n), (xp_m, _, lo_m, hi_m) = (
                    inst.macro.pin_access[ref.pin]
                )
                xs = [
                    cx + (xp_m if m else xp_n)
                    for cx, m in zip(cxs, mirrored)
                ]
                ys = [cy + y_rel for cy in cys]
                los = [
                    cx + (lo_m if m else lo_n)
                    for cx, m in zip(cxs, mirrored)
                ]
                his = [
                    cx + (hi_m if m else hi_n)
                    for cx, m in zip(cxs, mirrored)
                ]
                # λ indices are distinct, so each pin expression maps
                # λ index -> coordinate.  Integer coefficients are
                # fine: every consumer (extract, presolve) does float
                # arithmetic, and the np.float64 conversion happens
                # once in CSR assembly instead of per coefficient here.
                exprs[ref] = _PinExpr(
                    x=LinExpr(dict(zip(idxs, xs))),
                    y=LinExpr(dict(zip(idxs, ys))),
                    x_lo=LinExpr(dict(zip(idxs, los))),
                    x_hi=LinExpr(dict(zip(idxs, his))),
                    x_values=tuple(sorted(set(xs))),
                    y_values=tuple(sorted(set(ys))),
                    lo_min=min(los, default=0),
                    hi_max=max(his, default=0),
                    movable=True,
                )
            else:
                x, y, lo, hi = inst.pin_access(ref.pin)
                exprs[ref] = _PinExpr(
                    x=LinExpr({}, float(x)),
                    y=LinExpr({}, float(y)),
                    x_lo=LinExpr({}, float(lo)),
                    x_hi=LinExpr({}, float(hi)),
                    x_values=(x,),
                    y_values=(y,),
                    lo_min=lo,
                    hi_max=hi,
                    movable=False,
                )
    return exprs


def _hpwl_expr(
    design: Design,
    model: Model,
    net: Net,
    pin_exprs: dict[PinRef, _PinExpr],
) -> LinExpr:
    """Constraints (2)-(3): net bounding-box variables; returns wn."""
    fixed_xs = [p.x for p in net.pads]
    fixed_ys = [p.y for p in net.pads]
    movable_refs = []
    for ref in net.pins:
        expr = pin_exprs[ref]
        if expr.movable:
            movable_refs.append(ref)
        else:
            fixed_xs.append(expr.x_values[0])
            fixed_ys.append(expr.y_values[0])

    if not movable_refs:
        width = (max(fixed_xs) - min(fixed_xs)) if fixed_xs else 0
        height = (max(fixed_ys) - min(fixed_ys)) if fixed_ys else 0
        return LinExpr.of(float(width + height))

    # Tight variable bounds double as the fixed-terminal constraints.
    # ``x_values``/``y_values`` are sorted, so the extremes come from
    # the endpoints — no flattened value list needed.
    min_x = min(pin_exprs[ref].x_values[0] for ref in movable_refs)
    max_x = max(pin_exprs[ref].x_values[-1] for ref in movable_refs)
    min_y = min(pin_exprs[ref].y_values[0] for ref in movable_refs)
    max_y = max(pin_exprs[ref].y_values[-1] for ref in movable_refs)
    if fixed_xs:
        fx_max = max(fixed_xs)
        fx_min = min(fixed_xs)
        min_x = min(min_x, fx_min)
        max_x = max(max_x, fx_max)
    else:
        fx_max = min_x
        fx_min = max_x
    if fixed_ys:
        fy_max = max(fixed_ys)
        fy_min = min(fixed_ys)
        min_y = min(min_y, fy_min)
        max_y = max(max_y, fy_max)
    else:
        fy_max = min_y
        fy_min = max_y

    x_max = model.add_continuous(f"xmax[{net.name}]", fx_max, max_x)
    x_min = model.add_continuous(f"xmin[{net.name}]", min_x, fx_min)
    y_max = model.add_continuous(f"ymax[{net.name}]", fy_max, max_y)
    y_min = model.add_continuous(f"ymin[{net.name}]", min_y, fy_min)
    for ref in movable_refs:
        expr = pin_exprs[ref]
        # Rows are assembled as raw coefficient dicts: the operator
        # forms copy each pin expression (one dict per λ of the owner
        # cell) several times per row and dominated the build.
        model.add_constraint(_bound_row(x_max, expr, "x", Sense.GE))
        model.add_constraint(_bound_row(x_min, expr, "x", Sense.LE))
        model.add_constraint(_bound_row(y_max, expr, "y", Sense.GE))
        model.add_constraint(_bound_row(y_min, expr, "y", Sense.LE))
    return LinExpr(
        {
            x_max.index: 1.0,
            x_min.index: -1.0,
            y_max.index: 1.0,
            y_min.index: -1.0,
        }
    )


def _bound_row(
    var: Var, pin: _PinExpr, name: str, sense: Sense
) -> Constraint:
    """``var - pin.<name> (sense) 0`` without LinExpr copies."""
    coefs = dict(pin.negated(name))
    coefs[var.index] = coefs.get(var.index, 0.0) + 1.0
    return Constraint(coefs, sense, getattr(pin, name).const)


def _diff_coefs(
    p: LinExpr, q: LinExpr
) -> tuple[dict[int, float], float]:
    """Nonzero coefficients and constant of ``p - q``."""
    coefs = {idx: coef for idx, coef in p.coefs.items() if coef}
    for idx, coef in q.coefs.items():
        merged = coefs.get(idx, 0.0) - coef
        if merged:
            coefs[idx] = merged
        else:
            coefs.pop(idx, None)
    return coefs, p.const - q.const


def _shifted_row(
    base: dict[int, float],
    const: float,
    extra: Var,
    extra_coef: float,
    sense: Sense,
    rhs: float,
) -> Constraint:
    """``base + const + extra_coef*extra (sense) rhs`` as one row."""
    coefs = dict(base)
    if extra_coef:
        coefs[extra.index] = coefs.get(extra.index, 0.0) + extra_coef
    return Constraint(coefs, sense, rhs - const)


def _movable_pairs(net: Net, movable: set[str]):
    """Same-net pin pairs on distinct instances, at least one movable."""
    pins = net.pins
    for i in range(len(pins)):
        for j in range(i + 1, len(pins)):
            if pins[i].instance == pins[j].instance:
                continue
            if pins[i].instance in movable or pins[j].instance in movable:
                yield pins[i], pins[j]


def _closedm1_pair(
    model: Model,
    p: _PinExpr,
    q: _PinExpr,
    span: int,
    ref_p: PinRef,
    ref_q: PinRef,
) -> Var | None:
    """Constraint (4) with a γ·H vertical window; None when pruned."""
    if not set(p.x_values) & set(q.x_values):
        return None
    if _interval_gap(p.y_values, q.y_values) > span:
        return None
    g_x = max(p.x_values[-1] - q.x_values[0], q.x_values[-1] - p.x_values[0])
    g_y = (
        max(p.y_values[-1] - q.y_values[0], q.y_values[-1] - p.y_values[0])
        + span
    )
    d = model.add_binary(f"d[{_pair_name(ref_p, ref_q)}]")
    dx, dx_const = _diff_coefs(p.x, q.x)
    dy, dy_const = _diff_coefs(p.y, q.y)
    g_x = float(g_x)
    g_y = float(g_y)
    model.add_constraint(
        _shifted_row(dx, dx_const, d, g_x, Sense.LE, g_x)
    )
    model.add_constraint(
        _shifted_row(dx, dx_const, d, -g_x, Sense.GE, -g_x)
    )
    model.add_constraint(
        _shifted_row(dy, dy_const, d, g_y, Sense.LE, g_y + span)
    )
    model.add_constraint(
        _shifted_row(dy, dy_const, d, -g_y, Sense.GE, -(g_y + span))
    )
    return d


def _openm1_pair(
    model: Model,
    p: _PinExpr,
    q: _PinExpr,
    span: int,
    delta: int,
    ref_p: PinRef,
    ref_q: PinRef,
) -> tuple[Var, Var] | None:
    """Constraints (11)-(14); returns (d, o) or None when pruned."""
    best_overlap = min(p.hi_max, q.hi_max) - max(p.lo_min, q.lo_min)
    if best_overlap < delta:
        return None
    if _interval_gap(p.y_values, q.y_values) > span:
        return None
    name = _pair_name(ref_p, ref_q)
    a = model.add_continuous(
        f"a[{name}]", max(p.lo_min, q.lo_min), float("inf")
    )
    b = model.add_continuous(
        f"b[{name}]", -float("inf"), min(p.hi_max, q.hi_max)
    )
    model.add_constraint(_bound_row(a, p, "x_lo", Sense.GE))
    model.add_constraint(_bound_row(a, q, "x_lo", Sense.GE))
    model.add_constraint(_bound_row(b, p, "x_hi", Sense.LE))
    model.add_constraint(_bound_row(b, q, "x_hi", Sense.LE))

    d = model.add_binary(f"d[{name}]")
    v = model.add_binary(f"v[{name}]")
    g_y = float(
        max(p.y_values[-1] - q.y_values[0], q.y_values[-1] - p.y_values[0])
        + span
    )
    dy, dy_const = _diff_coefs(p.y, q.y)
    model.add_constraint(
        _shifted_row(dy, dy_const, v, -g_y, Sense.LE, span)
    )
    model.add_constraint(
        _shifted_row(dy, dy_const, v, g_y, Sense.GE, -span)
    )
    model.add_constraint(
        Constraint({d.index: 1.0, v.index: 1.0}, Sense.LE, 1.0)
    )

    o_cap = max(0.0, float(best_overlap - delta))
    # Relaxation constant for constraint (13): when d = 0 the bound
    # must stay slack even for the most disjoint candidate choice, so
    # it covers the full x-span of both pins plus δ.
    g_13 = float(
        max(p.hi_max, q.hi_max) - min(p.lo_min, q.lo_min) + delta
    )
    o = model.add_continuous(f"o[{name}]", 0.0, o_cap)
    # o - (b - a) - g_13*(1 - d) <= -delta
    model.add_constraint(
        Constraint(
            {
                o.index: 1.0,
                b.index: -1.0,
                a.index: 1.0,
                d.index: g_13,
            },
            Sense.LE,
            g_13 - delta,
        )
    )
    coefs = {o.index: 1.0}
    if o_cap:
        coefs[d.index] = -o_cap
    model.add_constraint(Constraint(coefs, Sense.LE, 0.0))
    return d, o


def _interval_gap(
    p_values: tuple[int, ...], q_values: tuple[int, ...]
) -> int:
    """Minimum attainable |py - qy| given attainable value ranges."""
    return max(p_values[0] - q_values[-1], q_values[0] - p_values[-1], 0)


def _pair_name(ref_p: PinRef, ref_q: PinRef) -> str:
    return f"{ref_p.instance}.{ref_p.pin}|{ref_q.instance}.{ref_q.pin}"
