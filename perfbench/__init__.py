"""cardiofuse's benchmark: workloads, output checks, tracing and report digests."""
