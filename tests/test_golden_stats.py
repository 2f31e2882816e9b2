"""Golden-stats regression: four small runs' results are pinned.

Every hot-path optimisation PR must leave simulation *results* untouched:
the engine refactor contract is "same events, same statistics, less host
time".  These tests replay four small runs (each described in
``tests/data/golden_stats.json`` by its preset, workload, seed, budgets
and optional MSHR file size) and compare every counter in the resulting
:class:`~repro.sim.results.RunResult` against values captured from the
seed implementation (commit 74a1c56), stored in the same file.

The engine event counts (``events_fired``) are not the seed's; every
``stats`` counter is.  Two changes fired fewer events for the same
statistics.  ``mshr_pressure``'s cores used to poll an MSHR stall once
per CPU cycle and now sleep until the L1D unstalls
(:func:`test_mshr_stalls_cost_no_events`).  And the DRAM sub-channel
scheduler used to be kicked on every request arrival and retried while
it had nothing to issue; now it runs only when it can issue, which cut
all four runs' events by 17-21%
(:func:`test_every_dram_scheduler_tick_issues`).

If one of these tests fails, the change altered simulation behaviour -
either fix the regression or, if the behavioural change is intended and
reviewed, regenerate the goldens as described in ``docs/performance.md``.
"""

from __future__ import annotations

import functools
import json
from dataclasses import replace
from pathlib import Path
from typing import Tuple

import pytest

from repro.config import presets
from repro.config.system import SystemConfig
from repro.dram.channel import Channel
from repro.experiment.session import Session
from repro.sim.results import RunResult
from repro.sim.system import System
from repro.workloads.suites import trace_factory

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"

with open(GOLDEN_PATH) as _f:
    GOLDEN = json.load(_f)


def golden_config(name: str) -> SystemConfig:
    """The system config of one golden run, built from its metadata."""
    golden = GOLDEN[name]
    config = replace(getattr(presets, golden["preset"])(),
                     warmup_instructions=golden["warmup_instructions"],
                     sim_instructions=golden["sim_instructions"])
    if "mshrs" in golden:
        config = config.with_mshrs(golden["mshrs"])
    return config


def collect_stats(result: RunResult) -> dict:
    """Flatten the RunResult counters that the goldens pin.

    Integer counters compare exactly; per-core IPC is rounded to 12
    decimals (the division is deterministic given identical tick counts,
    the rounding only guards the JSON round-trip).
    """
    out = {
        "instructions": result.instructions,
        "elapsed_ticks": result.elapsed_ticks,
        "ipc": [round(x, 12) for x in result.ipc],
    }
    llc = result.llc
    for f in ("accesses", "hits", "misses", "read_misses", "write_misses",
              "prefetch_accesses", "prefetch_misses", "mshr_merges", "fills",
              "evictions", "dirty_evictions", "writebacks", "cleanses",
              "writeback_installs", "secondary_misses", "coalesced_words",
              "mshr_stalls", "mshr_stall_cycles", "prefetch_drops"):
        out[f"llc.{f}"] = getattr(llc, f)
    out["llc.mshr_occupancy_hist"] = list(llc.mshr_occupancy_hist)
    # Core-side issue stalls from MSHR-pipeline back-pressure (zero for
    # every legacy-regime golden run by construction).
    out["mshr_stall_cycles"] = result.mshr_stall_cycles
    dram = result.dram
    for f in ("reads_issued", "writes_issued", "read_row_hits",
              "read_row_conflicts", "write_row_hits", "write_row_conflicts",
              "activates", "precharges", "write_mode_cycles",
              "turnaround_cycles", "busy_cycles", "w2w_delay_sum",
              "w2w_delay_count", "w2w_delay_max"):
        out[f"dram.{f}"] = getattr(dram, f)
    out["dram.episodes"] = len(dram.episodes)
    out["dram.episode_banks"] = sum(e.unique_banks for e in dram.episodes)
    for i, ch in enumerate(result.channels):
        for f in ("reads_received", "writes_received", "forwarded_reads",
                  "staged_reads", "staged_writes", "read_latency_ticks",
                  "reads_completed"):
            out[f"ch{i}.{f}"] = getattr(ch, f)
    return out


@functools.lru_cache(maxsize=None)
def run_golden(name: str) -> Tuple[int, RunResult]:
    """``(engine events fired, result)`` of one golden run."""
    golden = GOLDEN[name]
    config = golden_config(name)
    factory = trace_factory(golden["workload"], config, seed=golden["seed"])
    system = System(config, factory)
    result = system.run(label=golden["workload"])
    return system.engine.events_fired, result


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestGoldenStats:
    def test_matches_seed_implementation(self, name):
        golden = GOLDEN[name]
        events_fired, result = run_golden(name)
        got = collect_stats(result)
        want = golden["stats"]
        mismatched = {k: (want[k], got.get(k))
                      for k in want if got.get(k) != want[k]}
        assert not mismatched, (
            f"{name}: simulation results drifted from the seed "
            f"implementation: {mismatched}"
        )
        # The refactored engine also dispatches the exact same events.
        assert events_fired == golden["events_fired"]
        # RunResult.events carries the same number out to its callers.
        assert result.events == golden["events_fired"]


def test_mshr_stalls_cost_no_events():
    """``mshr_pressure`` is ``graph_mix`` (same ``bc`` trace and budgets)
    on a tight MSHR pipeline.  Stalled cores sleep, so the pipeline may
    add only a few events; a per-cycle stall poll multiplies them."""
    pressure, _ = run_golden("mshr_pressure")
    plain, _ = run_golden("graph_mix")
    assert pressure <= 1.1 * plain


def test_every_dram_scheduler_tick_issues(monkeypatch):
    """On ``graph_mix``, each ``Channel._tick_sc`` commits at least one
    read or write.  Ticks are counted over warmup and measurement, so
    they are held to the banks' lifetime command counts (the measured
    ``reads_issued + writes_issued`` leave out the warmup's)."""
    ticks = []
    tick_sc = Channel._tick_sc

    def counted(self, sc_idx):
        ticks.append(sc_idx)
        tick_sc(self, sc_idx)

    monkeypatch.setattr(Channel, "_tick_sc", counted)
    golden = GOLDEN["graph_mix"]
    config = golden_config("graph_mix")
    system = System(config, trace_factory(golden["workload"], config,
                                          seed=golden["seed"]))
    result = system.run(label=golden["workload"])
    issued = sum(bank.stats.reads + bank.stats.writes
                 for channel in system.channels
                 for sc in channel.subchannels for bank in sc.banks)
    measured = result.dram.reads_issued + result.dram.writes_issued
    assert 0 < measured <= issued
    assert len(ticks) <= issued


def test_session_path_produces_identical_results():
    """The Session entry point (the path perfbench times) matches a
    direct System run for a golden run."""
    name = "write_stream"
    golden = GOLDEN[name]
    result = Session(cache=False).run_one(golden_config(name),
                                          golden["workload"],
                                          seed=golden["seed"])
    got = collect_stats(result)
    mismatched = {k: (golden["stats"][k], got.get(k))
                  for k in golden["stats"]
                  if got.get(k) != golden["stats"][k]}
    assert not mismatched
