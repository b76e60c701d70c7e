"""The perf ledger: one harness, end-to-end and per-layer (see README.md)."""
