"""Repository benchmark: workloads, correctness gate and per-layer ledger (see README.md)."""
