"""Adaptive grid orchestration: policy, planner, local and service paths.

Includes the ``adaptive-smoke`` acceptance test CI runs as its own job:
the adaptive orchestrator must reproduce the exhaustive grid's policy
ranking while spending at least 2x fewer detailed instructions, and its
report totals must reconcile with the telemetry counters.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time

import pytest

from repro import telemetry
from repro.adaptive import AdaptivePlanner, AdaptivePolicy, \
    AdaptiveReport, drive
from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, Session
from repro.experiment.spec import GridPoint, RunPlan, RunSpec, \
    warm_group_key
from repro.sampling import SamplingConfig
from repro.service import ExperimentService, ServiceConfig, make_server

from .conftest import tiny_config


def sampled_config(sim=20_000, intervals=2, interval_instructions=400,
                   **overrides):
    cfg = tiny_config(warmup_mode="functional", sim_instructions=sim,
                      **overrides)
    return cfg.with_sampling(SamplingConfig(
        intervals=intervals,
        interval_instructions=interval_instructions,
        warm_instructions=300, detailed_warm_instructions=200))


def grid(workloads=("copy",), name="adaptive-grid", **config_kw):
    return ExperimentSpec(workloads=list(workloads),
                          configs=sampled_config(**config_kw),
                          policies=["baseline", "bard-h"], name=name)


def policy(**overrides):
    defaults = dict(metric="mean_ipc", target_relative_error=0.02,
                    max_rounds=3, start_intervals=2)
    defaults.update(overrides)
    return AdaptivePolicy(**defaults)


def counter_values():
    """The adaptive registry counters the planner increments."""
    value = telemetry.registry_value
    return {
        "rounds": value("repro_adaptive_rounds_total"),
        "escalations": value("repro_adaptive_escalations_total"),
        "pruned": value("repro_adaptive_pruned_total"),
        "spent": value("repro_adaptive_instructions_total", kind="spent"),
        "saved": value("repro_adaptive_instructions_total", kind="saved"),
    }


class TestPolicy:
    def test_defaults_are_valid(self):
        p = AdaptivePolicy()
        assert p.metric == "mean_ipc"
        assert p.prefers_higher
        assert p.better(2.0, 1.0)

    def test_lower_is_better_metrics_invert(self):
        p = AdaptivePolicy(metric="mpki")
        assert not p.prefers_higher
        assert p.better(1.0, 2.0)
        assert AdaptivePolicy(metric="mpki",
                              higher_is_better=True).prefers_higher

    @pytest.mark.parametrize("kwargs", [
        dict(metric="instructions"),          # not a sampled metric
        dict(target_relative_error=0.0),
        dict(budget_instructions=0),
        dict(min_rounds=0),
        dict(min_rounds=3, max_rounds=2),
        dict(start_intervals=1),
        dict(growth=1.0),
        dict(escalation="panic"),
        dict(compare_axis=""),
    ])
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AdaptivePolicy(**kwargs)

    def test_round_trips_json(self):
        p = policy(budget_instructions=1_000_000, escalation="stop",
                   compare_axis="wq", prune=False)
        assert AdaptivePolicy.from_dict(p.to_dict()) == p

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown"):
            AdaptivePolicy.from_dict({"metric": "mean_ipc",
                                      "budget": 5})


class TestRefine:
    def test_refine_changes_key_keeps_warm_group(self):
        spec = RunSpec(workload="copy", config=sampled_config())
        refined = spec.refine(intervals=8)
        assert refined.key() != spec.key()
        assert refined.config.sampling.intervals == 8
        assert warm_group_key(refined) == warm_group_key(spec)

    def test_refine_full_drops_sampling_keeps_warm_group(self):
        spec = RunSpec(workload="copy", config=sampled_config())
        full = spec.refine(full=True)
        assert full.config.sampling is None
        assert full.key() != spec.key()
        assert warm_group_key(full) == warm_group_key(spec)

    def test_refine_from_full_detail_spec(self):
        spec = RunSpec(workload="copy",
                       config=tiny_config(warmup_mode="functional"))
        refined = spec.refine(intervals=3)
        assert refined.config.sampling.intervals == 3

    def test_refine_argument_validation(self):
        spec = RunSpec(workload="copy", config=sampled_config())
        with pytest.raises(ConfigError):
            spec.refine(intervals=4, full=True)
        with pytest.raises(ConfigError):
            spec.refine(intervals=0)
        with pytest.raises(ConfigError):
            spec.refine()


class TestPlanner:
    def test_rejects_unsampleable_epoch(self):
        # 4000-instruction epoch cannot fit two 3000-instruction
        # intervals: adaptive orchestration must refuse upfront.
        cfg = tiny_config(warmup_mode="functional").with_sampling(
            SamplingConfig(intervals=1, interval_instructions=3_000))
        spec = ExperimentSpec(workloads="copy", configs=cfg)
        with pytest.raises(ConfigError, match="fewer than 2 intervals"):
            AdaptivePlanner(spec.expand(), policy())

    def test_survey_round_covers_every_cell(self):
        plan = grid(workloads=("copy", "whiskey")).expand()
        planner = AdaptivePlanner(plan, policy(start_intervals=4))
        specs = planner.start()
        assert len(specs) == plan.unique_count
        assert all(s.config.sampling.intervals == 4
                   for s in specs.values())
        with pytest.raises(ConfigError, match="already started"):
            planner.start()

    def test_replay_from_stored_results_reaches_the_same_state(self):
        # Resume is replay: a fresh planner driven over the results of
        # an earlier orchestration takes the same decisions round for
        # round, and stops on the first round the results lack.
        pol = policy(target_relative_error=1e-9, compare_axis="seed")
        plan = grid().expand()
        session = Session(cache=False)
        results = {}
        rounds = []

        def run(specs):
            rounds.append(dict(specs))
            for obs in session.run(RunPlan(None, [
                    GridPoint(coords={}, spec=s) for s in specs.values()])):
                results[obs.spec.key()] = obs.result
            return results, {}

        first = AdaptivePlanner(plan, pol)
        assert drive(first, run)
        assert len(rounds) == 3

        def stored(specs):
            if not set(specs) <= set(results):
                return None
            return results, {}

        replayed = AdaptivePlanner(plan, pol)
        assert drive(replayed, stored)
        assert [c.to_dict() for c in replayed.report().cells] == \
            [c.to_dict() for c in first.report().cells]

        # Results of the survey only: replay waits on round 2.
        survey = {key: results[key] for key in rounds[0]}
        partial = AdaptivePlanner(plan, pol)
        assert not drive(partial, lambda specs: (
            (survey, {}) if set(specs) <= set(survey) else None))
        assert partial.round == 2
        assert partial.pending() == rounds[1]


class TestLocalOrchestration:
    def test_run_adaptive_returns_report_and_full_grid(self):
        spec = grid(workloads=("copy", "whiskey"))
        rs = Session(cache=False).run_adaptive(spec, policy())
        assert len(rs) == len(spec.expand())
        report = rs.adaptive
        assert isinstance(report, AdaptiveReport)
        assert len(report.cells) == 4
        assert report.winners  # every decision group crowned a leader
        assert report.instructions_spent > 0
        assert all(cell.stop for cell in report.cells)
        # The report round-trips its wire form.
        again = AdaptiveReport.from_dict(report.to_dict())
        assert [c.to_dict() for c in again.cells] == \
            [c.to_dict() for c in report.cells]

    def test_identical_decisions_across_sessions(self):
        first = Session(cache=False).run_adaptive(grid(), policy())
        second = Session(cache=False).run_adaptive(grid(), policy())
        assert [c.to_dict() for c in first.adaptive.cells] == \
            [c.to_dict() for c in second.adaptive.cells]
        assert first.adaptive.winners == second.adaptive.winners

    def test_budget_is_respected(self):
        # Budget below the survey's own cost: the mandatory survey
        # still runs, but every refinement is denied - no cell gets a
        # second round.  compare_axis="seed" makes each cell its own
        # decision group so domination can't retire cells first.
        rs = Session(cache=False).run_adaptive(
            grid(), policy(target_relative_error=1e-9,
                           budget_instructions=1, max_rounds=6,
                           compare_axis="seed"))
        report = rs.adaptive
        assert all(c.stop == "budget" for c in report.cells)
        assert all(c.rounds == 1 for c in report.cells)
        assert report.instructions_spent == \
            sum(c.instructions for c in report.cells)

    def test_escalation_to_full_detail(self):
        # An epoch of 2 intervals caps the ladder at 2: the first
        # refinement outgrows sampling and escalates; the final grid
        # mixes sampled and full cells.  Singleton decision groups
        # (compare_axis="seed") keep every cell refining instead of
        # stopping on domination.
        rs = Session(cache=False).run_adaptive(
            grid(interval_instructions=4_000, sim=8_000),
            policy(target_relative_error=1e-9, max_rounds=3,
                   compare_axis="seed"))
        report = rs.adaptive
        escalated = [c for c in report.cells if c.escalated]
        assert escalated
        assert all(c.intervals is None for c in escalated)
        assert all(c.stop == "escalated" for c in escalated)
        assert report.escalations == len(escalated)
        # Mixed grid degrades gracefully (ci/error_bar).
        for obs in rs:
            lo, hi = obs.ci("mean_ipc")
            assert lo <= obs.value("mean_ipc") <= hi or lo <= hi
        bars = [obs.error_bar("mean_ipc") for obs in rs]
        assert any(b == 0.0 for b in bars)  # the full-detail cells

    def test_escalation_stop_accepts_residual_ci(self):
        rs = Session(cache=False).run_adaptive(
            grid(interval_instructions=4_000, sim=8_000),
            policy(target_relative_error=1e-9, max_rounds=3,
                   escalation="stop", compare_axis="seed"))
        report = rs.adaptive
        assert report.escalations == 0
        assert any(c.stop == "interval-cap" for c in report.cells)

    def test_pruning_can_be_disabled(self):
        rs = Session(cache=False).run_adaptive(
            grid(), policy(prune=False))
        assert rs.adaptive.pruned == 0
        assert all(c.stop != "dominated" for c in rs.adaptive.cells)

    def test_derived_sets_do_not_inherit_the_report(self):
        rs = Session(cache=False).run_adaptive(grid(), policy())
        assert rs.adaptive is not None
        assert rs.filter(policy="bard-h").adaptive is None
        assert all(sub.adaptive is None
                   for sub in rs.group_by("policy").values())

    def test_refinement_rounds_reuse_warm_checkpoints(self):
        session = Session(cache=False)
        # Force a second round for every cell so refinement specs
        # demonstrably land in the survey round's warm-checkpoint group.
        session.run_adaptive(
            grid(), policy(target_relative_error=1e-9, max_rounds=2,
                           compare_axis="seed"))
        stats = session.stats
        # One warmup per (workload, seed) - policies and refinement
        # rounds share it; everything after the first run restores.
        assert stats.warmups_executed == 1
        assert stats.checkpoint_restores >= 3

    def test_report_totals_reconcile_with_telemetry(self):
        before = counter_values()
        rs = Session(cache=False).run_adaptive(grid(), policy())
        after = counter_values()
        report = rs.adaptive
        assert after["rounds"] - before["rounds"] == report.rounds
        assert after["escalations"] - before["escalations"] == \
            report.escalations
        assert after["pruned"] - before["pruned"] == report.pruned
        assert after["spent"] - before["spent"] == \
            report.instructions_spent
        assert after["saved"] - before["saved"] == \
            report.instructions_saved


class TestMixedGridReporting:
    def test_comparison_report_mixes_full_and_sampled(self):
        """A full and a sampled run print side by side in one record
        table; only the sampled one carries a sampling note."""
        from repro.analysis.report import sampling_note
        from repro.analysis.tables import format_records
        from repro.experiment.resultset import DEFAULT_METRICS, \
            Observation, ResultSet
        from repro.experiment.spec import RunSpec
        from repro.sim.system import System
        from repro.workloads.suites import trace_factory

        full_cfg = tiny_config(warmup_mode="functional")
        sampled_cfg = sampled_config(sim=4_000)
        full = System(full_cfg,
                      trace_factory("copy", full_cfg, seed=7)).run()
        sampled = System(sampled_cfg,
                         trace_factory("copy", sampled_cfg,
                                       seed=7)).run()
        rs = ResultSet(
            Observation(coords={"workload": "copy", "run": name},
                        spec=RunSpec(workload="copy", config=cfg),
                        result=result)
            for name, cfg, result in (("full", full_cfg, full),
                                      ("sampled", sampled_cfg, sampled)))
        text = format_records(rs.to_records(), DEFAULT_METRICS)
        rows = text.splitlines()[2:]
        assert [row.split()[1] for row in rows] == ["full", "sampled"]
        assert sampling_note(full) is None
        assert "sampled" in sampling_note(sampled)


def _service(tmp_path, **overrides):
    defaults = dict(state_dir=tmp_path / "state",
                    store_dir=tmp_path / "store",
                    shards=2, use_processes=False, poll_interval=0.01)
    defaults.update(overrides)
    return ExperimentService(ServiceConfig(**defaults))


def _wait_final(service, grid_id, timeout=120.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        status = service.status(grid_id)
        if status.get("adaptive", {}).get("final"):
            return status
        time.sleep(0.02)
    raise AssertionError(
        f"adaptive grid never finalised: {service.status(grid_id)}")


class TestServicePath:
    def test_service_matches_local_decisions(self, tmp_path):
        local = Session(cache=False).run_adaptive(grid(), policy())
        with _service(tmp_path) as service:
            ticket = service.submit_adaptive(grid(), policy(),
                                             tenant="alice")
            assert "adaptive" in ticket  # status surfaces the block
            status = _wait_final(service, ticket["grid_id"])
            assert status["state"] in ("done", "degraded")
            rs = service.result_set(ticket["grid_id"])
            report = rs.adaptive
            assert report is not None
            # The acceptance criterion: identical decisions both paths.
            assert [c.to_dict() for c in report.cells] == \
                [c.to_dict() for c in local.adaptive.cells]
            assert report.winners == local.adaptive.winners
            envelope = service.result(ticket["grid_id"])
            assert envelope["report"]["winners"] == report.winners
            assert service.counters["adaptive_grids"] == 1
            assert service.counters["adaptive_completed"] == 1
            assert counter_values()["rounds"] >= report.rounds

    def test_resubmission_is_idempotent(self, tmp_path):
        with _service(tmp_path) as service:
            first = service.submit_adaptive(grid(), policy())
            second = service.submit_adaptive(grid(), policy())
            assert first["grid_id"] == second["grid_id"]
            assert service.counters["resubmissions"] == 1
            # A different policy is a different grid.
            other = service.submit_adaptive(
                grid(), policy(target_relative_error=0.5))
            assert other["grid_id"] != first["grid_id"]

    def test_refinements_bypass_pending_bounds(self, tmp_path):
        # Two survey jobs fit the bound exactly; every refinement the
        # supervisor admits is internal and exempt - a bound sized for
        # submissions must never deadlock mid-orchestration.
        with _service(tmp_path, max_pending_total=2) as service:
            ticket = service.submit_adaptive(
                grid(), policy(target_relative_error=1e-9,
                               max_rounds=3, compare_axis="seed"))
            status = _wait_final(service, ticket["grid_id"])
            assert status["adaptive"]["round"] > 1

    def test_killed_service_resumes_adaptive_grid(self, tmp_path):
        # Run the survey, let the first service admit a refinement
        # round, then "crash" it and revive it on the same state.  The
        # revived service keeps no planner state from the first one: it
        # replays the stored rounds and must reach the local loop's
        # decisions cell for cell.
        pol = policy(target_relative_error=1e-9, max_rounds=3,
                     compare_axis="seed")
        reference = Session(cache=False).run_adaptive(grid(), pol).adaptive
        assert reference.rounds > len(reference.cells)  # it refines
        service = _service(tmp_path)
        # Workers only: the test ticks the supervisor itself, so the
        # crash lands deterministically after round 2 is admitted and
        # before any of its runs executes.
        service.workers.start()
        try:
            grid_id = service.submit_adaptive(grid(), pol)["grid_id"]
            assert service.drain(timeout=60)
        finally:
            service.workers.stop()
        assert service.tick_adaptive() == 1
        assert service.status(grid_id)["adaptive"]["round"] == 2
        record_path = tmp_path / "state" / "grids" / f"{grid_id}.json"
        crashed = json.loads(record_path.read_text())
        assert not crashed["adaptive"]["final"]

        before = counter_values()
        revived = _service(tmp_path)
        # Replay looked the admitted rounds up; it re-counted nothing.
        assert revived.status(grid_id)["adaptive"]["round"] == 2
        assert revived.status(grid_id)["admission"] == \
            crashed["admission"]
        with revived:
            _wait_final(revived, grid_id)
            rs = revived.result_set(grid_id)
        after = counter_values()
        report = rs.adaptive
        assert [c.to_dict() for c in report.cells] == \
            [c.to_dict() for c in reference.cells]
        assert report.winners == reference.winners
        # The revived process counted every round it replayed, so its
        # counter deltas reconcile with the report it finished.
        assert after["rounds"] - before["rounds"] == report.rounds
        assert after["escalations"] - before["escalations"] == \
            report.escalations
        assert after["pruned"] - before["pruned"] == report.pruned
        assert after["spent"] - before["spent"] == \
            report.instructions_spent
        assert after["saved"] - before["saved"] == \
            report.instructions_saved
        # Every run was admitted exactly once across both processes.
        admission = revived.status(grid_id)["admission"]
        assert admission["unique_runs"] == report.rounds
        assert admission["new_jobs"] + admission["store_hits"] + \
            admission["inflight_dedup"] == report.rounds

    def test_replay_reads_the_queue_as_it_is_now(self, tmp_path):
        # A cell whose survey run was dead-lettered retires as
        # "quarantined".  Once that run is requeued and lands, a
        # restarted service replays the cell from its new result and
        # decides exactly as a fault-free local run does.
        pol = policy(target_relative_error=1e-9, max_rounds=3,
                     compare_axis="seed")
        reference = Session(cache=False).run_adaptive(grid(), pol).adaptive
        service = _service(tmp_path)
        grid_id = service.submit_adaptive(grid(), pol)["grid_id"]
        poisoned = service.queue.lease(max_jobs=1)[0]
        service.queue.quarantine(poisoned.key, "injected fault",
                                 lease=poisoned.lease)
        service.workers.start()
        try:
            assert service.drain(timeout=60)
            assert service.tick_adaptive() == 1
            assert service.status(grid_id)["adaptive"]["active"] == 1
            assert service.requeue_quarantined([poisoned.key]) == \
                {"requeued": 1}
            assert service.drain(timeout=60)
        finally:
            service.workers.stop()

        revived = _service(tmp_path)
        assert revived.status(grid_id)["adaptive"]["active"] == 2
        with revived:
            _wait_final(revived, grid_id)
            report = revived.result_set(grid_id).adaptive
        assert [c.to_dict() for c in report.cells] == \
            [c.to_dict() for c in reference.cells]


@contextlib.contextmanager
def _http(tmp_path, **overrides):
    """A started service behind a real HTTP server on an ephemeral port."""
    service = _service(tmp_path, **overrides)
    service.start()
    server = make_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    try:
        yield service, f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.stop()


class TestSubmitCli:
    """``repro submit`` end-to-end over HTTP (satellite: --sample flags)."""

    def test_submit_sample_flags_reach_the_workers(self, tmp_path,
                                                   capsys):
        from repro.cli import main

        with _http(tmp_path) as (service, url):
            rc = main(["submit", "--server", url,
                       "--workloads", "copy",
                       "--axis", "policy=baseline,bard-h",
                       "--instructions", "4000", "--warmup", "500",
                       "--sample", "2", "--sample-interval", "400",
                       "--sample-warm", "300", "--json"])
            assert rc == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["state"] == "done"
            assert len(payload["records"]) == 2
            # The sampling plan survived the wire: every stored result
            # ran 2 detailed intervals, not the monolithic epoch.
            rs = service.result_set(payload["grid_id"])
            for result in rs.results():
                assert result.sampling is not None
                assert result.sampling.intervals == 2
                # Sampled: far fewer detailed instructions than the
                # monolithic epoch (4000 per core) would have cost.
                assert result.instructions < 4_000 * result.cores

    def test_submit_adaptive_renders_report(self, tmp_path, capsys):
        from repro.cli import main

        with _http(tmp_path) as (service, url):
            rc = main(["submit", "--server", url,
                       "--workloads", "copy",
                       "--axis", "policy=baseline,bard-h",
                       "--instructions", "20000", "--warmup", "500",
                       "--sample", "2", "--sample-interval", "400",
                       "--sample-warm", "300",
                       "--adaptive", "--adaptive-error", "2",
                       "--adaptive-rounds", "3", "--adaptive-start", "2"])
            assert rc == 0
            out = capsys.readouterr().out
            assert "adaptive" in out
            assert "winner" in out


class TestAdaptiveSmoke:
    """The CI acceptance gate (job: adaptive-smoke).

    Savings only materialise when the epoch dwarfs the measured
    intervals, so this test uses a long epoch with short intervals -
    the regime sampled simulation exists for.
    """

    def test_reproduces_exhaustive_ranking_with_half_the_budget(self):
        # Decide on write BLP - the paper's headline metric, where the
        # policy gap is decisive on every workload (copy +44%, lbm
        # +21%).  Near-tied metrics like lbm's +2.9% mean IPC would
        # turn the winner check into a coin flip at sampled precision.
        spec = grid(workloads=("copy", "lbm"), sim=50_000,
                    intervals=4, interval_instructions=500)
        pol = policy(metric="write_blp", target_relative_error=0.02,
                     max_rounds=3, start_intervals=4)

        before = counter_values()
        rs = Session(cache=False).run_adaptive(spec, pol)
        after = counter_values()
        report = rs.adaptive

        # (a) Same winners as the exhaustive full-detail grid.
        full_spec = ExperimentSpec(
            workloads=["copy", "lbm"],
            configs=tiny_config(warmup_mode="functional",
                                sim_instructions=50_000),
            policies=["baseline", "bard-h"], name="exhaustive")
        exhaustive = Session(cache=False).run(full_spec)
        for workload, sub in exhaustive.group_by("workload").items():
            best = max(sub, key=lambda obs: obs.value("write_blp"))
            group = f"config=default,seed=7,workload={workload}"
            assert report.winners[group] == best.coords["policy"], \
                f"adaptive disagreed with exhaustive on {workload}"
        # A 4-interval survey of copy reads write BLP 0.0 (relative
        # error 0/0): that is no information, so no copy cell may stop
        # on the error target there, and the winner is decided on
        # nonzero estimates rather than a 0.0-vs-0.0 tie.
        copy_cells = [c for c in report.cells
                      if c.coords["workload"] == "copy"]
        assert not [c for c in copy_cells
                    if c.stop == "target-met" and c.rounds == 1]
        assert all(c.mean > 0.0 for c in copy_cells)

        # (b) At least 2x fewer detailed instructions than exhaustive.
        exhaustive_cost = sum(r.instructions
                              for r in exhaustive.results())
        assert report.instructions_full == exhaustive_cost
        assert report.instructions_spent * 2 <= exhaustive_cost, (
            f"adaptive spent {report.instructions_spent} vs exhaustive "
            f"{exhaustive_cost}: less than 2x savings")

        # (c) Report totals reconcile with the telemetry counters.
        assert after["rounds"] - before["rounds"] == report.rounds
        assert after["spent"] - before["spent"] == \
            report.instructions_spent
        assert after["saved"] - before["saved"] == \
            report.instructions_saved
