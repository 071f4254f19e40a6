"""The paper's contribution: vertical M1 routing-aware detailed
placement.

* :mod:`repro.core.params` — α/β/γ/δ/ε/θ knobs and the window/
  perturbation parameter sequences U of Algorithm 1.
* :mod:`repro.core.scp` — single-cell-placement (SCP) candidate
  enumeration (the λ variables of [Li & Koh]).
* :mod:`repro.core.formulation` — the window MILP: §3.1 (ClosedM1
  alignment) and §3.2 (OpenM1 overlap) formulations.
* :mod:`repro.core.window` — layout partitioning into windows and
  selection of independently-optimizable (disjoint-projection) window
  sets (§4.1).
* :mod:`repro.core.objective` — the global objective CalculateObj.
* :mod:`repro.core.distopt` — Algorithm 2 (DistOpt), with the window
  memo, the one mechanism that skips re-solving settled windows.
* :mod:`repro.core.vm1opt` — Algorithm 1 (VM1Opt), the metaheuristic
  outer loop.
* :mod:`repro.core.checkpoint` — per-pass VM1Opt checkpoints for
  crash-safe resume (used by :mod:`repro.service` and
  :mod:`repro.shard`).
"""

from repro.core.checkpoint import CHECKPOINT_SCHEMA, VM1Checkpoint
from repro.core.params import OptParams, ParamSet, default_sequence
from repro.core.scp import Candidate, enumerate_candidates
from repro.core.window import Window, independent_families, partition
from repro.core.objective import alignment_stats, calculate_objective
from repro.core.formulation import WindowProblem, build_window_model
from repro.core.distopt import DistOptResult, dist_opt
from repro.core.vm1opt import VM1OptResult, vm1_opt

__all__ = [
    "CHECKPOINT_SCHEMA",
    "VM1Checkpoint",
    "OptParams",
    "ParamSet",
    "default_sequence",
    "Candidate",
    "enumerate_candidates",
    "Window",
    "independent_families",
    "partition",
    "alignment_stats",
    "calculate_objective",
    "WindowProblem",
    "build_window_model",
    "DistOptResult",
    "dist_opt",
    "VM1OptResult",
    "vm1_opt",
]

from repro.log import subsystem_logger

logger = subsystem_logger("repro.core")
