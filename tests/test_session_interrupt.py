"""Session interrupt safety: flush what finished, resume from cache."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.experiment import ExperimentSpec, Session, SessionInterrupted
from repro.experiment import session as session_mod

from .conftest import tiny_config


def _grid(workloads=("copy", "whiskey"), seeds=(7, 11)):
    return ExperimentSpec(workloads=list(workloads),
                          configs=tiny_config(),
                          seeds=list(seeds), name="interrupt-grid")


def _interrupt_after(monkeypatch, n, exc_type=KeyboardInterrupt):
    """Patch simulate to raise after n successful runs."""
    real = session_mod.simulate
    calls = []

    def flaky(spec):
        if len(calls) >= n:
            raise exc_type(f"boom after {n}")
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(session_mod, "simulate", flaky)
    return calls


class TestInterruptSafety:
    def test_keyboard_interrupt_flushes_completed(self, tmp_path,
                                                  monkeypatch):
        calls = _interrupt_after(monkeypatch, 2)
        session = Session(cache_dir=tmp_path)
        with pytest.raises(SessionInterrupted) as info:
            session.run(_grid())
        exc = info.value
        assert isinstance(exc.__cause__, KeyboardInterrupt)
        # Two runs finished and were flushed to the cache.
        assert len(calls) == 2
        assert exc.stats.simulated == 2
        assert len(exc.partial) == 2
        assert len(list(tmp_path.glob("*.json"))) == 2
        assert "rerun the same spec to resume" in str(exc)

    def test_rerun_resumes_from_cache(self, tmp_path, monkeypatch):
        _interrupt_after(monkeypatch, 3)
        with pytest.raises(SessionInterrupted):
            Session(cache_dir=tmp_path).run(_grid())
        monkeypatch.undo()
        # A fresh invocation of the same spec only simulates the rest.
        resumed = Session(cache_dir=tmp_path)
        rs = resumed.run(_grid())
        assert len(rs) == 4
        assert resumed.stats.disk_hits == 3
        assert resumed.stats.simulated == 1

    def test_worker_crash_reports_partial_stats(self, tmp_path,
                                                monkeypatch):
        _interrupt_after(monkeypatch, 1, exc_type=RuntimeError)
        session = Session(cache_dir=tmp_path)
        with pytest.raises(SessionInterrupted) as info:
            session.run(_grid(seeds=(7,)))
        assert isinstance(info.value.__cause__, RuntimeError)
        assert info.value.stats.simulated == 1
        assert len(info.value.partial) == 1

    def test_partial_resultset_is_queryable(self, tmp_path, monkeypatch):
        _interrupt_after(monkeypatch, 2)
        with pytest.raises(SessionInterrupted) as info:
            Session(cache_dir=tmp_path).run(_grid())
        partial = info.value.partial
        assert {o.coords["workload"] for o in partial} <= \
            {"copy", "whiskey"}
        assert all(o.result.mean_ipc > 0 for o in partial)

    def test_interrupt_mid_warm_group_keeps_finished_members(
            self, tmp_path, monkeypatch):
        """Serial groups stream member-by-member, so an interrupt inside
        a warm-sharing group keeps the members that already ran."""
        cfg = tiny_config(warmup_mode="functional")
        spec = ExperimentSpec(workloads="copy", configs=cfg,
                              policies=["baseline", "bard-h", "eager"],
                              name="warm-group")
        from repro.sim.system import System

        real_run = System.run
        runs = []

        def flaky_run(self, label=""):
            if len(runs) >= 2:
                raise KeyboardInterrupt("mid-group")
            runs.append(label)
            return real_run(self, label=label)

        monkeypatch.setattr(System, "run", flaky_run)
        session = Session(cache_dir=tmp_path)
        with pytest.raises(SessionInterrupted) as info:
            session.run(spec)
        assert len(info.value.partial) == 2
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_cli_reports_interrupt(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        import repro.cli as cli

        monkeypatch.setitem(cli._PRESETS, "small-8core", tiny_config)
        _interrupt_after(monkeypatch, 1)
        code = main(["sweep", "--workloads", "copy", "whiskey",
                     "--cache-dir", str(tmp_path)])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "resume" in err


class TestConfigErrorsStillCleanBeforeExecution:
    def test_plan_time_errors_are_config_errors(self):
        with pytest.raises(ConfigError):
            ExperimentSpec(workloads=[], configs=tiny_config())

    def test_simulate_time_config_error_is_not_wrapped(self, tmp_path,
                                                       monkeypatch):
        """A mis-specified run keeps the ConfigError contract (CLI
        exit 2), it is not disguised as an interrupt."""
        def broken(spec):
            raise ConfigError("sampling plan does not fit")

        monkeypatch.setattr(session_mod, "simulate", broken)
        with pytest.raises(ConfigError):
            Session(cache_dir=tmp_path).run(_grid())
