"""Error taxonomy and public-API surface."""

import importlib
import inspect

import pytest

import repro
from repro.errors import (
    ConfigError,
    MappingError,
    ReproError,
    SchedulingError,
    SimulationError,
    TraceError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigError, MappingError, SchedulingError, SimulationError,
        TraceError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ConfigError("bad")


#: Entry points that only tests called, deleted so that a run has one
#: trace source (the generators) and one dispatch loop (``Engine.run``
#: plus ``stop()``): (module, dotted attribute path).
RETIRED = [
    ("repro.workloads", "tracefile"),
    ("repro.workloads", "load_trace"),
    ("repro.workloads", "read_records"),
    ("repro.workloads", "save_trace"),
    ("repro.cpu", "replay"),
    ("repro.cpu", "mem_fraction"),
    ("repro.cpu", "store_fraction"),
    ("repro.cpu.trace", "replay"),
    ("repro.prefetch", "NullPrefetcher"),
    ("repro.prefetch.base", "NullPrefetcher"),
    ("repro", "default_config"),
    ("repro.config", "default_config"),
    ("repro.config.presets", "default_config"),
    ("repro.sim.engine", "Engine.run_for"),
]


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_headline_entry_points(self):
        assert callable(repro.Session.run_one)
        assert callable(repro.small_8core)
        assert callable(repro.make_bard)

    def test_subpackage_alls_resolve(self):
        import repro.analysis
        import repro.cache
        import repro.core
        import repro.cpu
        import repro.dram
        import repro.prefetch
        import repro.sim
        import repro.workloads

        for module in (repro.analysis, repro.cache, repro.core, repro.cpu,
                       repro.dram, repro.prefetch, repro.sim,
                       repro.workloads):
            for name in module.__all__:
                assert hasattr(module, name), (
                    f"{module.__name__} missing {name}")

    @pytest.mark.parametrize("module, path", RETIRED,
                             ids=lambda v: v.replace(".", "_"))
    def test_retired_entry_points_stay_gone(self, module, path):
        obj = importlib.import_module(module)
        *parents, leaf = path.split(".")
        for part in parents:
            obj = getattr(obj, part)
        assert not hasattr(obj, leaf), f"{module}.{path} is back"

    def test_engine_run_takes_no_predicate(self):
        from repro.sim.engine import Engine

        assert "until" not in inspect.signature(Engine.run).parameters

    def test_docstrings_on_public_surface(self):
        """Every public item reachable from the top level is documented."""
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"{name} lacks a docstring"
