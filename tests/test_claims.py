"""The claims ledger and ``benchmarks/scorecard.py``, with stubbed results.

No test here simulates: every grid point gets the same small
hand-built :class:`RunResult`, so these tests check the ledger's grids,
measures, scoring and the runner's selection and output, not the
simulator.  ``benchmarks/scorecard.json`` is checked against the ledger
it was written from.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.analysis.claims import CLAIMS, score, variant
from repro.cache.cache import CacheStats
from repro.cache.writeback.base import WritebackPolicyStats
from repro.config.system import SystemConfig
from repro.core.bard import BardAccuracy
from repro.dram.stats import DrainEpisode, SubChannelStats
from repro.experiment import ResultSet
from repro.experiment.resultset import from_points
from repro.sim.results import RunResult
from repro.workloads.suites import ALL_WORKLOADS

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" \
    / "scorecard.py"
_spec = importlib.util.spec_from_file_location("scorecard", _PATH)
scorecard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scorecard)

BY_ID = {claim.id: claim for claim in CLAIMS}


def stub_result(cores: int = 8) -> RunResult:
    llc = CacheStats(accesses=400, misses=100, read_misses=60,
                     write_misses=20, prefetch_misses=20, writebacks=50,
                     cleanses=10)
    dram = SubChannelStats(reads_issued=80, writes_issued=50,
                           activates=30, write_mode_cycles=500,
                           episodes=[DrainEpisode(32, 20, 0, 100)],
                           w2w_delay_sum=400, w2w_delay_count=40,
                           w2w_delay_max=20)
    return RunResult(label="stub", cores=cores, instructions=10_000,
                     elapsed_ticks=120_000, ipc=[1.0] * cores, llc=llc,
                     dram=dram,
                     wb_stats=WritebackPolicyStats(100, 5, 30),
                     bard_accuracy=BardAccuracy(checked=35, incorrect=10))


def stub_run(spec) -> ResultSet:
    """What ``Session.run`` returns, with every result stubbed."""
    points = spec.expand().points if hasattr(spec, "expand") \
        else spec.points
    return from_points(points, {p.spec.key(): stub_result(p.spec.config.cores)
                                for p in points})


GRIDS = [(claim.id, claim.grid) for claim in CLAIMS] + \
    [(name, grid) for name, (grid, _) in scorecard.TABLES.items()]


def test_claim_ids_are_unique_and_name_their_table():
    assert len(BY_ID) == len(CLAIMS)
    for claim in CLAIMS:
        table, _, what = claim.id.partition(".")
        assert table in scorecard.TABLES and what, claim.id


@pytest.mark.parametrize("scale", ["quick", "full"])
@pytest.mark.parametrize("name,grid", GRIDS, ids=[g[0] for g in GRIDS])
def test_every_grid_expands_and_validates(name, grid, scale):
    plan = grid(scale).expand()
    assert plan.unique_count >= 1
    for point in plan.points:
        assert point.spec.workload in ALL_WORKLOADS
        assert isinstance(point.spec.config, SystemConfig)
        assert point.spec.config == variant(point.coords["config"])


def test_designs_compose_left_to_right():
    config = variant("small-16core+device=x8+ideal+bard-h")
    assert config.cores == 16 and config.dram.device == "x8"
    assert config.dram.ideal_writes and config.llc_writeback == "bard-h"
    assert variant("wq=48") == variant("baseline")


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda c: c.id)
def test_every_measure_reads_only_its_own_grid(claim):
    measured = claim.measure(stub_run(claim.grid("quick")))
    assert math.isfinite(measured)


@pytest.mark.parametrize("name", sorted(scorecard.TABLES))
def test_every_table_renders_from_its_own_grid(name):
    grid, render = scorecard.TABLES[name]
    text = render(stub_run(grid("quick")))
    assert text.splitlines()[2].startswith("-")


def test_direction_match_and_mismatch():
    claim = BY_ID["fig10_top.bard_h_gain"]
    held = score(claim, 2.15, "quick")
    assert held["direction_match"] is True
    assert held["magnitude_ratio"] == 0.5
    assert held["direction"] == "> 0"
    assert score(claim, -0.1, "quick")["direction_match"] is False


def test_tolerance_widens_the_bound_strictly():
    claim = BY_ID["fig11.bard_over_eager"]
    assert claim.tolerance == 0.3
    assert score(claim, -0.29, "quick")["direction_match"] is True
    assert score(claim, -0.3, "quick")["direction_match"] is False
    near = BY_ID["table05.ideal_w2w"]
    assert score(near, 10 / 3 + 0.04, "quick")["direction_match"] is True
    assert score(near, 10 / 3 - 0.06, "quick")["direction_match"] is False


def test_sign_match_takes_the_tolerance_away():
    claim = BY_ID["fig15.bard_gain_ship"]  # > 0, tolerance 2
    inside = score(claim, -1.0, "quick")
    assert inside["direction_match"] is True
    assert inside["sign_match"] is False
    assert score(claim, 0.5, "quick")["sign_match"] is True
    untolerant = score(BY_ID["fig10_top.bard_h_gain"], 0.2, "quick")
    assert untolerant["sign_match"] is untolerant["direction_match"] is True
    # A "~" claim's tolerance is the claim: no sign to match.
    assert score(BY_ID["table10.mpki_change"], 0.1, "quick")[
        "sign_match"] is None


#: Rows of the committed quick scorecard whose direction holds only
#: through the tolerance: the measured sign is the paper's opposite.
#: docs/experiments.md lists them as known deviations.
HELD_BY_TOLERANCE = ["fig15.bard_gain_ship", "fig17.bard_tracks_baseline",
                     "table07.gain_16core", "table09.bard_edp_vs_vwq"]


def test_committed_scorecard_names_the_rows_held_by_tolerance():
    body = json.loads((_PATH.parent / "scorecard.json").read_text())
    for record in body["claims"]:
        again = score(BY_ID[record["claim"]], record["measured"], "quick")
        assert record["sign_match"] is again["sign_match"], record["claim"]
    assert [r["claim"] for r in body["claims"]
            if r["direction_match"] and r["sign_match"] is False] \
        == HELD_BY_TOLERANCE


def test_zero_or_missing_paper_value_has_no_ratio():
    zero = score(BY_ID["table10.mpki_change"], 1.5, "quick")
    assert zero["paper"] == 0.0 and zero["magnitude_ratio"] is None
    none = score(BY_ID["tracker.decisions_checked"], 12, "quick")
    assert none["paper"] is None and none["magnitude_ratio"] is None


def test_table4_paper_values_come_from_paper_refs():
    claim = BY_ID["table04.min_wpki"]
    # quick: lbm bwaves cf bc copy triad whiskey (+ mix0, no paper value)
    assert claim.paper_value("quick") == 5.1
    assert claim.paper_value("full") == 2.7


def test_committed_scorecard_matches_the_ledger():
    body = json.loads((_PATH.parent / "scorecard.json").read_text())
    assert body["scale"] == "quick"
    assert [r["claim"] for r in body["claims"]] == [c.id for c in CLAIMS]
    for record in body["claims"]:
        claim = BY_ID[record["claim"]]
        again = score(claim, record["measured"], body["scale"])
        for key in ("figure", "metric", "paper", "direction"):
            assert record[key] == again[key], (claim.id, key)


@pytest.fixture
def stub_session(monkeypatch):
    class StubSession:
        def __init__(self, **kwargs):
            pass

        def run(self, plan, progress=None):
            return stub_run(plan)

    monkeypatch.setattr(scorecard, "Session", StubSession)


def test_runner_scores_selected_claims(stub_session, tmp_path, capsys):
    out = tmp_path / "slice.json"
    assert scorecard.main(["fig03", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "Fig. 3 - baseline write" in printed and "Scorecard" in printed
    body = json.loads(out.read_text())
    assert [r["claim"] for r in body["claims"]] == ["fig03.mean_write_blp"]
    first = out.read_bytes()
    scorecard.main(["fig03", "--out", str(out)])
    assert out.read_bytes() == first


def test_runner_exits_1_on_a_direction_mismatch(stub_session, tmp_path):
    # Every stub run has IPC 1.0, so BARD-H gains exactly 0%.
    out = tmp_path / "slice.json"
    assert scorecard.main(["fig10_top.bard_h_gain", "--out", str(out)]) == 1
    body = json.loads(out.read_text())
    assert body["claims"][0]["direction_match"] is False


def test_runner_rejects_an_unknown_name(stub_session):
    with pytest.raises(SystemExit) as exc:
        scorecard.main(["fig99"])
    assert exc.value.code == 2
