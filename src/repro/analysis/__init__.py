"""Analysis helpers: metrics, bandwidth model, tables."""

from repro.analysis.bandwidth import (
    SERVER_SCALE,
    SYNC_BITS,
    WRITEBACK_BYTES,
    BandwidthReport,
    bandwidth_report,
)
from repro.analysis.banks import (
    BankDistribution,
    distribution,
    read_distribution,
    write_distribution,
)
from repro.analysis.metrics import amean, gmean
from repro.analysis.tables import format_table

__all__ = [
    "BandwidthReport",
    "BankDistribution",
    "distribution",
    "read_distribution",
    "write_distribution",
    "SERVER_SCALE",
    "SYNC_BITS",
    "WRITEBACK_BYTES",
    "amean",
    "bandwidth_report",
    "format_table",
    "gmean",
]
