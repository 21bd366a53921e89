"""The end-to-end benchmark: workloads, layer tracing and run comparison."""
