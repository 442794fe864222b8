"""The repository benchmark: four workloads, five end-to-end metrics,
per-layer replay and boundary tracing.  See ``benchmarks/e2e/README.md``."""
