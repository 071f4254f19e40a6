"""MILP presolve tuned to the window-model structure (DESIGN.md §7).

The window MILP of the paper's DistOpt (§3.1/§3.2) is dominated by
three constraint families: exactly-one candidate-selection rows per
cell, site-packing rows, and big-M alignment rows whose activity range
is fully determined by each pin's attainable ``x_values``/``y_values``
(the candidate value sets).  A generic interval-arithmetic presolve
sees almost none of that structure; the reductions here do, because
they treat every exactly-one row as a GUB (generalized upper bound)
group: of a cell's λ binaries *exactly one* is 1, so the activity
contribution of the group is ``min/max over members`` — not the sum of
per-variable ranges.

Reductions (in application order):

1. **GUB detection** — equality rows with rhs 1 and all-ones
   coefficients over binaries.
2. **Forced binaries** — a GUB group of size one is a cell with only
   its identity candidate left; its λ is fixed to 1.  Singleton
   inequality rows fold into variable bounds and are dropped.
3. **Bound tightening from candidate value sets** — one GUB-aware
   propagation round turns the free HPWL min/max variables into
   variables bounded by the attainable pin coordinates.
4. **Redundant-row removal** — a row whose GUB-aware activity range
   already lies inside its rhs can never bind; big-M rows with an
   over-sized M are the main casualty.
5. **Duplicate-row removal** — identical (sense, coefs, rhs) rows
   (overlapping pin pairs generate them).
6. **Big-M coefficient tightening** — for a ≤ row ``S + a_j x_j <= b``
   with binary ``x_j`` (not in any GUB group; these are the d/v/o/a/b
   alignment binaries), if the row is redundant on one branch of
   ``x_j``, the coefficient shrinks to the smallest M that still
   enforces the other branch (Savelsbergh-style, with GUB-aware
   activity bounds so M drops to the pin pair's true attainable span).

Lifting is index-stable by construction: no variable is eliminated,
fixing happens through bounds, so a solution of the reduced model *is*
a solution of the original model.  :meth:`PresolveResult.lift` re-pins
fixed variables to their exact values and re-evaluates the original
objective, which makes the soundness contract explicit and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.milp.model import Constraint, Model, Sense, Var
from repro.milp.solution import Solution

_EPS = 1e-9

#: Above this many binaries, HiGHS spends more time in its own presolve
#: than the reductions save on the reduced model — windows this large
#: solve ~2x faster with native presolve off (measured on the aes
#: fixture; see BENCH_window_solve.json).  Deterministic in the model,
#: so serial and parallel runs make the same choice.
NATIVE_PRESOLVE_BINARY_THRESHOLD = 192


def recommend_native_presolve(model: Model) -> bool:
    """Whether HiGHS' own presolve should stay on for ``model``."""
    return model.num_binaries < NATIVE_PRESOLVE_BINARY_THRESHOLD


@dataclass
class PresolveStats:
    """What the reductions accomplished (for telemetry/tests)."""

    rows_in: int = 0
    rows_out: int = 0
    gub_groups: int = 0
    vars_fixed: int = 0
    bounds_tightened: int = 0
    rows_singleton: int = 0
    rows_redundant: int = 0
    rows_duplicate: int = 0
    coefficients_tightened: int = 0

    @property
    def rows_dropped(self) -> int:
        return self.rows_in - self.rows_out


@dataclass
class PresolveResult:
    """Reduced model plus the lift back to the original space."""

    model: Model
    stats: PresolveStats
    fixed: dict[int, float] = field(default_factory=dict)
    _original_objective: object = None

    def lift(self, solution: Solution) -> Solution:
        """Map a reduced-model solution to the original space.

        Indices are stable (no variable is eliminated), so lifting
        re-pins the fixed variables to their exact values and
        re-evaluates the original objective.  When every fixed
        variable already holds exactly its value and the reduced
        model shares the original objective, the solution is returned
        as is: re-pinning would copy the same values, and the backend
        already evaluated this very objective over them (the
        :class:`~repro.milp.solution.Solution` contract).
        """
        if solution.values is None:
            return solution
        if self.model.objective is self._original_objective and all(
            _same_value(solution.values.get(idx), val)
            for idx, val in self.fixed.items()
        ):
            return solution
        values = dict(solution.values)
        for idx, val in self.fixed.items():
            values[idx] = val
        objective = solution.objective
        if self._original_objective is not None:
            objective = self._original_objective.value(values)
        return replace(
            solution, values=values, objective=objective
        )


def _same_value(current: float | None, pinned: float) -> bool:
    """``current`` is ``pinned`` bit for bit (signed zeros differ)."""
    return (
        current is not None
        and current == pinned
        and math.copysign(1.0, current) == math.copysign(1.0, pinned)
    )


class _Activities:
    """GUB-aware row activity bounds over mutable variable bounds."""

    def __init__(
        self,
        lb: list[float],
        ub: list[float],
        group_of: dict[int, int],
        groups: list[list[int]],
    ) -> None:
        self.lb = lb
        self.ub = ub
        self.group_of = group_of
        self.groups = groups

    def range(
        self, coefs: dict[int, float], skip: int | None = None
    ) -> tuple[float, float]:
        """Min/max of ``sum coef*x`` over the bounds, treating each
        GUB group as "exactly one member is 1" (members absent from
        the row contribute 0)."""
        lo = hi = 0.0
        per_group: dict[int, list[float]] | None = None
        group_get = self.group_of.get
        lbs = self.lb
        ubs = self.ub
        for idx, coef in coefs.items():
            if idx == skip:
                continue
            group = group_get(idx)
            if group is None:
                a = coef * lbs[idx]
                b = coef * ubs[idx]
                if a <= b:
                    lo += a
                    hi += b
                else:
                    lo += b
                    hi += a
            else:
                if per_group is None:
                    per_group = {}
                per_group.setdefault(group, []).append(coef)
        if per_group:
            for group, gcoefs in per_group.items():
                gmin, gmax = min(gcoefs), max(gcoefs)
                # A row covering only part of the group (or a group
                # whose skipped member carries the 1) may see
                # contribution 0.
                if len(gcoefs) < len(self.groups[group]):
                    gmin = min(gmin, 0.0)
                    gmax = max(gmax, 0.0)
                lo += gmin
                hi += gmax
        return lo, hi

    def full(
        self, coefs: dict[int, float]
    ) -> tuple[float, float, dict[int, tuple[float, float]]]:
        """One-pass row activity: ``(lo, hi, contrib)``.

        ``contrib`` maps each *non-group* variable to its
        ``(min, max)`` contribution, so a caller needing the row's
        activity with one such variable skipped — the only skip the
        reductions ever make, since GUB members are never big-M
        binaries nor continuous — can subtract instead of re-scanning
        the row.  Every ``range(coefs, skip=j)`` the old sweep issued
        per variable becomes a pair of subtractions.
        """
        lo = hi = 0.0
        contrib: dict[int, tuple[float, float]] = {}
        group_get = self.group_of.get
        lbs = self.lb
        ubs = self.ub
        # Group members arrive in contiguous runs (rows list one
        # cell's λ block after another), so the "exactly one member"
        # folding tracks the current run inline instead of building
        # per-group coefficient lists.  A group split across runs
        # (never produced by the window formulation) falls back to
        # the list-based fold for correctness.
        cur_group = -1
        gmin = gmax = 0.0
        gcount = 0
        closed: set[int] | None = None
        for idx, coef in coefs.items():
            group = group_get(idx)
            if group is None:
                a = coef * lbs[idx]
                b = coef * ubs[idx]
                if a > b:
                    a, b = b, a
                lo += a
                hi += b
                contrib[idx] = (a, b)
            elif group == cur_group:
                if coef < gmin:
                    gmin = coef
                elif coef > gmax:
                    gmax = coef
                gcount += 1
            else:
                if cur_group >= 0:
                    if gcount < len(self.groups[cur_group]):
                        gmin = min(gmin, 0.0)
                        gmax = max(gmax, 0.0)
                    lo += gmin
                    hi += gmax
                    if closed is None:
                        closed = {cur_group}
                    else:
                        closed.add(cur_group)
                if closed is not None and group in closed:
                    return self._full_slow(coefs)
                cur_group = group
                gmin = gmax = coef
                gcount = 1
        if cur_group >= 0:
            if gcount < len(self.groups[cur_group]):
                gmin = min(gmin, 0.0)
                gmax = max(gmax, 0.0)
            lo += gmin
            hi += gmax
        return lo, hi, contrib

    def _full_slow(
        self, coefs: dict[int, float]
    ) -> tuple[float, float, dict[int, tuple[float, float]]]:
        """List-based fold for rows whose group members are not
        contiguous (not produced by the window formulation, but the
        presolve stays correct for arbitrary models)."""
        lo = hi = 0.0
        contrib: dict[int, tuple[float, float]] = {}
        per_group: dict[int, list[float]] = {}
        group_get = self.group_of.get
        lbs = self.lb
        ubs = self.ub
        for idx, coef in coefs.items():
            group = group_get(idx)
            if group is None:
                a = coef * lbs[idx]
                b = coef * ubs[idx]
                if a > b:
                    a, b = b, a
                lo += a
                hi += b
                contrib[idx] = (a, b)
            else:
                per_group.setdefault(group, []).append(coef)
        for group, gcoefs in per_group.items():
            gmin, gmax = min(gcoefs), max(gcoefs)
            if len(gcoefs) < len(self.groups[group]):
                gmin = min(gmin, 0.0)
                gmax = max(gmax, 0.0)
            lo += gmin
            hi += gmax
        return lo, hi, contrib


def presolve(model: Model) -> PresolveResult:
    """Reduce ``model``; the result's model shares variable indices."""
    stats = PresolveStats(rows_in=len(model.constraints))
    lb = [v.lb for v in model.vars]
    ub = [v.ub for v in model.vars]
    fixed: dict[int, float] = {}

    def fix(idx: int, value: float) -> None:
        if lb[idx] != value or ub[idx] != value:
            lb[idx] = ub[idx] = value
            fixed[idx] = value
            stats.vars_fixed += 1

    def tighten_lb(idx: int, value: float) -> None:
        if model.vars[idx].is_integer:
            value = math.ceil(value - _EPS)
        if value > lb[idx] + _EPS and value <= ub[idx] + _EPS:
            lb[idx] = min(value, ub[idx])
            stats.bounds_tightened += 1

    def tighten_ub(idx: int, value: float) -> None:
        if model.vars[idx].is_integer:
            value = math.floor(value + _EPS)
        if value < ub[idx] - _EPS and value >= lb[idx] - _EPS:
            ub[idx] = max(value, lb[idx])
            stats.bounds_tightened += 1

    # ---- 1. GUB detection + 2. forced binaries / singleton rows ----
    group_of: dict[int, int] = {}
    groups: list[list[int]] = []
    body: list[Constraint] = []
    for con in model.constraints:
        if _is_gub(model, con):
            members = list(con.coefs)
            if len(members) == 1:
                fix(members[0], 1.0)
                stats.rows_singleton += 1
                continue
            gid = len(groups)
            groups.append(members)
            for idx in members:
                group_of[idx] = gid
            body.append(con)
            continue
        if len(con.coefs) == 1:
            ((idx, coef),) = con.coefs.items()
            bound = con.rhs / coef
            if con.sense is Sense.EQ:
                fix(idx, bound)
            elif (con.sense is Sense.LE) == (coef > 0):
                tighten_ub(idx, bound)
            else:
                tighten_lb(idx, bound)
            stats.rows_singleton += 1
            continue
        body.append(con)
    stats.gub_groups = len(groups)
    acts = _Activities(lb, ub, group_of, groups)

    # ---- 3. bound tightening from candidate value sets -------------
    # One propagation round: each row implies bounds on its continuous
    # variables given GUB-aware activity of the rest.  This is what
    # turns the free HPWL min/max variables into variables bounded by
    # the pins' attainable coordinates.
    is_integer = [v.is_integer for v in model.vars]
    # Rows whose activity is computed here get remembered for the row
    # sweep below: only continuous bounds change during this phase, so
    # the sweep can refresh just the continuous member's contribution
    # instead of re-scanning the row.
    row_acts: dict[int, tuple] = {}
    for con in body:
        cont = [
            idx for idx in con.coefs if not is_integer[idx]
        ]
        if not cont:
            continue
        # With one continuous variable in the row (every HPWL bound
        # row) the rest-activity is the precomputed row activity minus
        # that variable's own contribution.  Rows coupling several
        # continuous variables (OpenM1's o/a/b row) keep the exact
        # per-variable rescan: tightening one member must be visible
        # to the next.
        shared = None
        if len(cont) == 1:
            lo_all, hi_all, contrib = acts.full(con.coefs)
            cmin, cmax = contrib[cont[0]]
            if math.isfinite(cmin) and math.isfinite(cmax):
                shared = (lo_all - cmin, hi_all - cmax)
                row_acts[id(con)] = (
                    lo_all - cmin, hi_all - cmax, contrib, cont[0]
                )
        for idx in cont:
            coef = con.coefs[idx]
            if shared is not None:
                rest_lo, rest_hi = shared
            else:
                rest_lo, rest_hi = acts.range(con.coefs, skip=idx)
            if con.sense in (Sense.LE, Sense.EQ) and math.isfinite(
                rest_lo
            ):
                implied = (con.rhs - rest_lo) / coef
                if coef > 0:
                    tighten_ub(idx, implied)
                else:
                    tighten_lb(idx, implied)
            if con.sense in (Sense.GE, Sense.EQ) and math.isfinite(
                rest_hi
            ):
                implied = (con.rhs - rest_hi) / coef
                if coef > 0:
                    tighten_lb(idx, implied)
                else:
                    tighten_ub(idx, implied)

    # ---- 4-6. row sweep: redundancy, duplicates, coefficient
    #           tightening ------------------------------------------
    kept: list[Constraint] = []
    seen: set[tuple] = set()
    for con in body:
        remembered = row_acts.get(id(con))
        if remembered is not None:
            # Re-base the phase-3 activity on the variable's (possibly
            # tightened) bounds; everything else in the row is
            # unchanged since then.
            rest_lo, rest_hi, contrib, cidx = remembered
            coef = con.coefs[cidx]
            a = coef * lb[cidx]
            b = coef * ub[cidx]
            if a > b:
                a, b = b, a
            contrib[cidx] = (a, b)
            lo = rest_lo + a
            hi = rest_hi + b
        else:
            lo, hi, contrib = acts.full(con.coefs)
        if con.sense is Sense.LE and hi <= con.rhs + _EPS:
            stats.rows_redundant += 1
            continue
        if con.sense is Sense.GE and lo >= con.rhs - _EPS:
            stats.rows_redundant += 1
            continue
        if con.sense is not Sense.EQ:
            con = _tighten_big_m(
                model, con, acts, group_of, stats, lo, hi, contrib
            )
        key = (
            con.sense,
            tuple(sorted(con.coefs.items())),
            con.rhs,
        )
        if key in seen:
            stats.rows_duplicate += 1
            continue
        seen.add(key)
        kept.append(con)
    stats.rows_out = len(kept)

    reduced = Model(f"{model.name}+presolve")
    reduced.vars = [
        v
        if v.lb == lb[i] and v.ub == ub[i]
        else Var(v.index, v.name, lb[i], ub[i], v.is_integer)
        for i, v in enumerate(model.vars)
    ]
    reduced.constraints = kept
    reduced.objective = model.objective
    #: Lets the backend's native-presolve rule see that the
    #: structural reductions already ran on this model.
    reduced.presolved = True
    return PresolveResult(
        model=reduced,
        stats=stats,
        fixed=fixed,
        _original_objective=model.objective,
    )


def _is_gub(model: Model, con: Constraint) -> bool:
    """Exactly-one row: ``sum of binaries == 1``."""
    if con.sense is not Sense.EQ or con.rhs != 1.0:
        return False
    for idx, coef in con.coefs.items():
        if coef != 1.0:
            return False
        var = model.vars[idx]
        if not (var.is_integer and var.lb == 0.0 and var.ub == 1.0):
            return False
    return bool(con.coefs)


def _tighten_big_m(
    model: Model,
    con: Constraint,
    acts: _Activities,
    group_of: dict[int, int],
    stats: PresolveStats,
    lo: float,
    hi: float,
    contrib: dict[int, tuple[float, float]],
) -> Constraint:
    """Shrink over-sized binary coefficients (big-M) in one row.

    For ``S + a_j x_j <= b`` with binary ``x_j``: if the row cannot
    bind on one branch of ``x_j`` (the rest's attainable activity
    already satisfies it), replace ``a_j``/``b`` with the smallest
    values that enforce the *other* branch identically.  Mirrored for
    ``>=`` rows.  Rest activities are GUB-aware, which is what shrinks
    an alignment row's M from "window span" to "this pin pair's
    attainable span".

    ``lo``/``hi``/``contrib`` are the row's activity bounds from
    :meth:`_Activities.full`; shrinking a coefficient updates them
    incrementally so later binaries in the same row see the tightened
    row, exactly as the per-variable rescan did.
    """
    coefs = con.coefs
    rhs = con.rhs
    changed = False

    def reweigh(j: int, new_coef: float) -> None:
        nonlocal lo, hi
        old_min, old_max = contrib[j]
        new_min = min(0.0, new_coef)
        new_max = max(0.0, new_coef)
        lo += new_min - old_min
        hi += new_max - old_max
        contrib[j] = (new_min, new_max)

    for j in list(coefs):
        var = model.vars[j]
        if not (
            var.is_integer
            and acts.lb[j] == 0.0
            and acts.ub[j] == 1.0
        ):
            continue
        if j in group_of:
            continue
        a_j = coefs[j]
        cmin, cmax = contrib[j]
        rest_lo = lo - cmin
        rest_hi = hi - cmax
        if con.sense is Sense.LE and math.isfinite(rest_hi):
            if (
                a_j > 0
                and rest_hi <= rhs - _EPS
                and rest_hi + a_j > rhs + _EPS
            ):
                # x_j = 0 branch is redundant; keep x_j = 1 exact.
                if not changed:
                    coefs = dict(coefs)
                    changed = True
                coefs[j] = rest_hi + a_j - rhs
                rhs = rest_hi
                reweigh(j, coefs[j])
                stats.coefficients_tightened += 1
            elif (
                a_j < 0
                and rest_hi > rhs + _EPS
                and rest_hi < rhs - a_j - _EPS
            ):
                # x_j = 1 branch is redundant; shrink M = -a_j.
                if not changed:
                    coefs = dict(coefs)
                    changed = True
                coefs[j] = rhs - rest_hi
                reweigh(j, coefs[j])
                stats.coefficients_tightened += 1
        elif con.sense is Sense.GE and math.isfinite(rest_lo):
            if (
                a_j < 0
                and rest_lo >= rhs + _EPS
                and rest_lo + a_j < rhs - _EPS
            ):
                if not changed:
                    coefs = dict(coefs)
                    changed = True
                coefs[j] = rest_lo + a_j - rhs
                rhs = rest_lo
                reweigh(j, coefs[j])
                stats.coefficients_tightened += 1
            elif (
                a_j > 0
                and rest_lo < rhs - _EPS
                and rest_lo > rhs - a_j + _EPS
            ):
                if not changed:
                    coefs = dict(coefs)
                    changed = True
                coefs[j] = rhs - rest_lo
                reweigh(j, coefs[j])
                stats.coefficients_tightened += 1
    if not changed:
        return con
    return Constraint(
        coefs=coefs, sense=con.sense, rhs=rhs, name=con.name
    )
