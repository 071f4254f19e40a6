"""The Model-based window build and structural presolve the production
build replaced, kept as the reference the reduced arrays are checked
against.

:mod:`tests.reference.formulation` builds a window model as a
:class:`~repro.milp.model.Model`; :mod:`tests.reference.presolve`
reduces it.  ``extract(presolve(build).model)`` is, bit for bit, what
:func:`repro.core.formulation.build_window_model` writes.
"""

from __future__ import annotations

from repro.core.formulation import WindowProblem
from repro.milp.extract import extract
from repro.netlist.design import PinRef
from tests.reference import formulation, presolve


def reference_arrays(design, window, params, *, lx, ly, allow_flip):
    """``extract(presolve(model))`` of the reference build; None when
    there is no model."""
    built = formulation.build_window_model(
        design, window, params, lx=lx, ly=ly, allow_flip=allow_flip
    )
    if built is None:
        return None
    return extract(presolve.presolve(built.model).model)


def reference_problem(design, window, params, *, lx, ly, allow_flip):
    """The reference build, unreduced, as a :class:`WindowProblem` over
    its arrays (what a window task solves in its place); None when
    there is no model."""
    built = formulation.build_window_model(
        design, window, params, lx=lx, ly=ly, allow_flip=allow_flip
    )
    if built is None:
        return None
    pairs = []
    for d in built.d_vars:
        left, right = d.name[2:-1].split("|")  # d[a.p|b.q]
        pairs.append(
            (
                PinRef(*left.rsplit(".", 1)),
                PinRef(*right.rsplit(".", 1)),
                d.index,
            )
        )
    return WindowProblem(
        window=built.window,
        arrays=extract(built.model),
        movable=built.movable,
        candidates=built.candidates,
        lambda_cols={
            name: range(lams[0].index, lams[-1].index + 1)
            for name, lams in built.lambda_vars.items()
        },
        pairs=pairs,
        nets=built.nets,
    )
