"""Golden-stats regression: seven small runs' results are pinned.

Every hot-path optimisation PR must leave simulation *results* untouched:
the engine refactor contract is "same events, same statistics, less host
time".  These tests replay seven small runs (each described in
``tests/data/golden_stats.json`` by its preset, workload, seed, budgets
and optional MSHR file size, LLC writeback policy, warmup mode and
sampling plan) and compare every counter in the resulting
:class:`~repro.sim.results.RunResult` against the values stored in the
same file.  The four baseline-policy runs were captured from the seed
implementation (commit 74a1c56).  ``bard_write_drain`` (BARD-H victim
choice under detailed warmup) and ``bard_sampled`` (BARD-H with
functional warmup and interval sampling, also replayed from a
checkpoint restore) were captured later, before the request-path
flattening.  ``bard_e_override`` (BARD-E on ``cf``) was captured after
it; it is the one golden that overrides often and never cleanses
(:func:`test_bard_e_golden_takes_overrides`).  ``bard_sampled`` was
regenerated with a 5,000-instruction warmup when sampled gaps began to
complete unsent misses functionally: the longer warmup fills the LLC, so
its BARD-H run drains writes and takes both BARD branches.

Every golden's ``dram.activates``/``dram.precharges`` were regenerated
when ACT/PRE began to be counted per measurement epoch: until then the
six detailed-warmup goldens reported the warmup's commands as measured.
``bard_write_drain`` (5,000-instruction warmup) and ``write_stream``
(5,000 warmup, 6,000 measured) were then regenerated with budgets that
fill the LLC, so both drain writes and ``bard_write_drain`` overrides.

The engine event counts (``events_fired``) are not the seed's; the
baseline goldens' other ``stats`` counters are (except ``write_stream``'s,
which runs longer).  Two changes fired fewer events for the same
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
from repro.dram.subchannel import SubChannel
from repro.experiment.session import Session
from repro.sampling.config import SamplingConfig
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
    if "policy" in golden:
        config = replace(config, llc_writeback=golden["policy"])
    if "warmup_mode" in golden:
        config = replace(config, warmup_mode=golden["warmup_mode"])
    if "sampling" in golden:
        config = replace(config,
                         sampling=SamplingConfig(**golden["sampling"]))
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
    # Writeback-policy decisions; baseline runs have no policy, so their
    # entries carry none of these keys.
    if result.wb_stats is not None:
        for f in ("victim_selections", "overrides", "cleanses"):
            out[f"wb.{f}"] = getattr(result.wb_stats, f)
    if result.bard_accuracy is not None:
        for f in ("checked", "incorrect"):
            out[f"tracker.{f}"] = getattr(result.bard_accuracy, f)
    return out


def drift(name: str, result: RunResult) -> dict:
    """``{counter: (golden, got)}`` for every pinned counter that moved."""
    want = GOLDEN[name]["stats"]
    got = collect_stats(result)
    return {k: (want[k], got.get(k)) for k in want if got.get(k) != want[k]}


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
        mismatched = drift(name, result)
        assert not mismatched, (
            f"{name}: simulation results drifted from the golden "
            f"values: {mismatched}"
        )
        # The refactored engine also dispatches the exact same events.
        assert events_fired == golden["events_fired"]
        if "sampling" not in golden:
            # RunResult.events carries the same number out to its
            # callers (a sampled result counts only its intervals').
            assert result.events == golden["events_fired"]


def test_sampled_golden_after_checkpoint_restore():
    """``bard_sampled`` restored from a baseline system's warm-state
    snapshot matches the fresh run: the checkpoint path and the
    functional warmup leave the same state behind."""
    name = "bard_sampled"
    golden = GOLDEN[name]
    config = golden_config(name)
    donor_config = replace(config, llc_writeback=None)
    donor = System(donor_config, trace_factory(golden["workload"],
                                               donor_config,
                                               seed=golden["seed"]))
    system = System(config, trace_factory(golden["workload"], config,
                                          seed=golden["seed"]))
    system.restore_warm_state(donor.snapshot_warm_state())
    result = system.run(label=golden["workload"])
    assert not drift(name, result)
    assert system.engine.events_fired == golden["events_fired"]


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
    they are held to every burst the sub-channels issue over the same
    span (the measured ``reads_issued + writes_issued`` leave out the
    warmup's)."""
    ticks = []
    issued = []
    tick_sc = Channel._tick_sc
    issue = SubChannel._issue

    def counted_tick(self, sc_idx):
        ticks.append(sc_idx)
        tick_sc(self, sc_idx)

    def counted_issue(self, req, burst):
        issued.append(burst)
        issue(self, req, burst)

    monkeypatch.setattr(Channel, "_tick_sc", counted_tick)
    monkeypatch.setattr(SubChannel, "_issue", counted_issue)
    golden = GOLDEN["graph_mix"]
    config = golden_config("graph_mix")
    system = System(config, trace_factory(golden["workload"], config,
                                          seed=golden["seed"]))
    result = system.run(label=golden["workload"])
    measured = result.dram.reads_issued + result.dram.writes_issued
    assert 0 < measured < len(issued)
    assert len(ticks) <= len(issued)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_commands_are_conserved(name):
    """With refresh off (no golden enables it), a PRE is issued only by
    a row conflict, and an ACT by at most one burst each."""
    stats = GOLDEN[name]["stats"]
    assert stats["dram.precharges"] == (stats["dram.read_row_conflicts"]
                                        + stats["dram.write_row_conflicts"])
    assert stats["dram.activates"] <= (stats["dram.reads_issued"]
                                       + stats["dram.writes_issued"])


def test_session_path_produces_identical_results():
    """The Session entry point (the path perfbench times) matches a
    direct System run for a golden run."""
    name = "write_stream"
    golden = GOLDEN[name]
    result = Session(cache=False).run_one(golden_config(name),
                                          golden["workload"],
                                          seed=golden["seed"])
    assert not drift(name, result)


def test_bard_e_golden_takes_overrides():
    """``bard_e_override`` pins the override branch of
    ``BardPolicy.choose_victim`` without BARD-C's cleanses."""
    stats = GOLDEN["bard_e_override"]["stats"]
    assert stats["wb.overrides"] > 0
    assert stats["wb.cleanses"] == 0


#: What the goldens must keep covering, as (golden, counter) pairs that
#: must stay positive: ``bard_e_override`` drains the write queue and
#: takes the override branch; both BARD-H goldens drain, cleanse and
#: override; the baseline ``write_stream`` drains too.
MECHANISM_COVERAGE = [
    ("bard_e_override", "dram.episodes"),
    ("bard_e_override", "wb.overrides"),
    ("bard_write_drain", "dram.episodes"),
    ("bard_write_drain", "wb.overrides"),
    ("bard_write_drain", "wb.cleanses"),
    ("bard_sampled", "wb.cleanses"),
    ("bard_sampled", "dram.episodes"),
    ("bard_sampled", "wb.overrides"),
    ("write_stream", "dram.episodes"),
]


def test_goldens_cover_bard_mechanisms():
    """A regeneration that loses one of BARD's mechanisms fails here,
    even though every golden still matches its own (new) numbers."""
    missing = [(name, counter) for name, counter in MECHANISM_COVERAGE
               if GOLDEN[name]["stats"].get(counter, 0) <= 0]
    assert not missing, f"goldens no longer exercise {missing}"


@pytest.mark.parametrize("name", ["bard_e_override", "bard_write_drain",
                                  "write_stream"])
def test_decision_shares_read_the_golden_counters(name):
    """``RunResult``'s decision shares are the ones the claims ledger
    scores (Fig. 10 bottom, Sec. VII-I); a run without a writeback
    policy reports 0.0 for each."""
    from repro.analysis.claims import shares

    _, result = run_golden(name)
    stats = GOLDEN[name]["stats"]
    if "wb.victim_selections" not in stats:
        assert result.wb_stats is None and result.bard_accuracy is None
        assert (result.override_pct, result.cleanse_pct,
                result.tracker_error_pct) == (0.0, 0.0, 0.0)
        return
    selections = max(1, stats["wb.victim_selections"])
    assert shares(result)[1:] == (result.override_pct, result.cleanse_pct)
    assert result.override_pct == 100.0 * stats["wb.overrides"] / selections
    assert result.cleanse_pct == 100.0 * stats["wb.cleanses"] / selections
    assert result.tracker_error_pct == \
        100.0 * (stats["tracker.incorrect"] / stats["tracker.checked"])
    assert result.override_pct + result.cleanse_pct > 0
