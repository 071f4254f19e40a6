"""Crash-safe VM1Opt checkpoints (per-pass placement).

A :class:`VM1Checkpoint` captures everything :func:`repro.core.vm1opt.
vm1_opt` needs to continue after the last *completed* DistOpt pass:

* the loop position — parameter-set index ``u_index``, inner
  ``iteration``, and which ``phase`` of the iteration just finished
  (``"move"`` or ``"flip"``) — plus the window-grid offsets ``tx/ty``
  *before* the end-of-iteration shift;
* the objective trail — ``pre_objective`` (objective at the top of the
  interrupted iteration, needed for the θ convergence test),
  ``objective`` (after the checkpointed pass), and
  ``initial_objective`` / ``iterations`` for result bookkeeping;
* the full placement (every instance's ``x/y/orientation``).

DistOpt's window memo is not checkpointed: a resumed run starts with
an empty memo and re-solves the windows the uninterrupted run would
have skipped, to the same non-moves — identical placements, merely
slower first passes.

Every DistOpt pass is deterministic given (placement, params, grid
offsets) — the λ tie-break of :mod:`repro.core.formulation` makes
solves reproducible — so a run resumed from a checkpoint finishes with
a placement *byte-identical* to the uninterrupted run.  The
end-of-iteration control flow (grid shift, θ test) is pure computation
over checkpointed values and is simply re-executed on resume.

Serialization is plain JSON; ``json`` round-trips Python floats via
``repr`` exactly, so the θ test sees bit-identical objectives after a
save/load cycle.  Documents written by older versions may carry a
``dirty`` key (the state of the cross-pass skip the memo replaced) or
a ``cache`` key (the window cache before it); both are ignored.

:func:`atomic_write_text` is the one durable-write primitive of the
package (temp + fsync + rename): :meth:`VM1Checkpoint.save`, the shard
checkpoint store and the service job journal all write through it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.geometry import Orientation

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.netlist.design import Design

#: Schema identifier written into every checkpoint document.
CHECKPOINT_SCHEMA = "repro.core.checkpoint/v1"


def _trace_from_doc(value) -> tuple[str, str | None] | None:
    if not value:
        return None
    trace_id, span_id = value
    return (str(trace_id), None if span_id is None else str(span_id))


@dataclass
class VM1Checkpoint:
    """State after one completed DistOpt pass of a VM1Opt run."""

    u_index: int
    iteration: int
    phase: str  # "move" | "flip"
    tx: int
    ty: int
    pre_objective: float
    objective: float
    initial_objective: float
    iterations: int
    #: instance name -> (x, y, DEF orientation string).
    placement: dict[str, tuple[int, int, str]]
    #: ``(trace_id, root_span_id)`` of the run that wrote this
    #: checkpoint, when it was traced; a resumed run seeds its tracer
    #: from it so both attempts append to one coherent trace.  ``None``
    #: (and absent from older documents) = untraced.
    trace: tuple[str, str | None] | None = None
    schema: str = CHECKPOINT_SCHEMA

    # ------------------------------------------------------- capture
    @classmethod
    def capture(
        cls,
        design: "Design",
        *,
        u_index: int,
        iteration: int,
        phase: str,
        tx: int,
        ty: int,
        pre_objective: float,
        objective: float,
        initial_objective: float,
        iterations: int,
        trace: tuple[str, str | None] | None = None,
    ) -> "VM1Checkpoint":
        """Snapshot the design placement."""
        placement = {
            name: (inst.x, inst.y, inst.orientation.value)
            for name, inst in design.instances.items()
        }
        return cls(
            u_index=u_index,
            iteration=iteration,
            phase=phase,
            tx=tx,
            ty=ty,
            pre_objective=pre_objective,
            objective=objective,
            initial_objective=initial_objective,
            iterations=iterations,
            placement=placement,
            trace=trace,
        )

    # ------------------------------------------------------- restore
    def restore(self, design: "Design") -> None:
        """Write the checkpointed placement back."""
        for name, (x, y, orient) in self.placement.items():
            inst = design.instances[name]
            inst.x, inst.y = int(x), int(y)
            inst.orientation = Orientation(orient)

    # --------------------------------------------------- (de)serialize
    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "u_index": self.u_index,
            "iteration": self.iteration,
            "phase": self.phase,
            "tx": self.tx,
            "ty": self.ty,
            "pre_objective": self.pre_objective,
            "objective": self.objective,
            "initial_objective": self.initial_objective,
            "iterations": self.iterations,
            "placement": {
                name: list(state)
                for name, state in self.placement.items()
            },
            "trace": (
                list(self.trace) if self.trace is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "VM1Checkpoint":
        schema = doc.get("schema", "")
        if schema != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"unsupported checkpoint schema {schema!r} "
                f"(expected {CHECKPOINT_SCHEMA!r})"
            )
        return cls(
            u_index=int(doc["u_index"]),
            iteration=int(doc["iteration"]),
            phase=str(doc["phase"]),
            tx=int(doc["tx"]),
            ty=int(doc["ty"]),
            pre_objective=float(doc["pre_objective"]),
            objective=float(doc["objective"]),
            initial_objective=float(doc["initial_objective"]),
            iterations=int(doc["iterations"]),
            placement={
                name: (int(x), int(y), str(orient))
                for name, (x, y, orient) in doc["placement"].items()
            },
            trace=_trace_from_doc(doc.get("trace")),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def loads(cls, text: str) -> "VM1Checkpoint":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Persist as JSON via :func:`atomic_write_text`."""
        path = Path(path)
        atomic_write_text(path, self.dumps())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "VM1Checkpoint":
        return cls.loads(Path(path).read_text())


def atomic_write_text(path: Path, text: str, *, chaos=None) -> None:
    """Write ``text`` to ``path`` crash-safely (temp + fsync + rename).

    ``chaos`` is an optional fault controller: the ``fs.fsync`` site
    models a durability syscall failing mid-write.  The temp file is
    removed on any failure so a faulted write leaves no debris (and
    crucially leaves the *previous* document intact — the rename
    never happens).
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            if (
                chaos is not None
                and chaos.check("fs.fsync", path.name) is not None
            ):
                raise OSError(f"chaos: fsync failed for {path.name}")
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
