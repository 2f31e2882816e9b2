"""How a sampled run was measured, as one line of text.

``python -m repro run --sample N`` prints it under the run's table.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.results import RunResult


def sampling_note(result: RunResult) -> Optional[str]:
    """One-line description of how a sampled result was measured."""
    summary = result.sampling
    if summary is None:
        return None
    ipc = summary.metrics.get("mean_ipc")
    detail = ""
    if ipc is not None:
        detail = (f"; mean IPC {ipc.mean:.3f} "
                  f"[{ipc.ci_lo:.3f}, {ipc.ci_hi:.3f}] "
                  f"({100 * ipc.rel_error:.1f}% rel err)")
    return (f"sampled ({result.label}): {summary.intervals} x "
            f"{summary.interval_instructions} instructions, "
            f"every {summary.period_instructions}, "
            f"{100 * summary.confidence:.0f}% CI{detail}")
