"""Workload generators and named suites (paper Tables III/IV)."""

from repro.workloads.suites import (
    ALL_WORKLOADS,
    CORE_STRIDE,
    MIXES,
    QUICK_WORKLOADS,
    WORKLOADS,
    PaperRef,
    WorkloadSpec,
    trace_factory,
    workload_names,
)
from repro.workloads.synthetic import (
    blend_trace,
    graph_trace,
    server_trace,
    stream_trace,
)
from repro.workloads.validation import (
    TraceProfile,
    profile_suite,
    profile_trace,
)

__all__ = [
    "TraceProfile",
    "profile_suite",
    "profile_trace",
    "ALL_WORKLOADS",
    "CORE_STRIDE",
    "MIXES",
    "PaperRef",
    "QUICK_WORKLOADS",
    "WORKLOADS",
    "WorkloadSpec",
    "blend_trace",
    "graph_trace",
    "server_trace",
    "stream_trace",
    "trace_factory",
    "workload_names",
]
