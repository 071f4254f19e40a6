"""End-to-end flow: generate → place → route → optimize → re-route.

This mirrors the paper's evaluation flow (synthesize with DC, P&R with
Innovus, optimize with the proposed tool, ECO-route, compare), with
every stage provided by this repository's substrates.
"""

from repro.flow.flow import (
    FLOW_OPTIONS,
    FlowConfig,
    FlowResult,
    run_flow,
    table2_row,
)

__all__ = [
    "FLOW_OPTIONS",
    "FlowConfig",
    "FlowResult",
    "run_flow",
    "table2_row",
]

from repro.log import subsystem_logger

logger = subsystem_logger("repro.flow")
