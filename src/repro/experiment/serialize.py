"""JSON (de)serialisation of the experiment layer's wire objects.

Results (:class:`~repro.sim.results.RunResult`), configurations
(:class:`~repro.config.system.SystemConfig`), run specs
(:class:`~repro.experiment.spec.RunSpec`), and whole experiment grids
(:class:`~repro.experiment.spec.ExperimentSpec`) all round-trip through
plain JSON dicts here.  Every stats/config object is a plain dataclass,
so ``dataclasses.asdict`` gives the wire form; reconstruction rebuilds
the nested dataclasses explicitly.  A format version guards cached files
against schema drift - an unknown version is treated as a cache miss, not
an error.

These round-trips are what lets the experiment service
(:mod:`repro.service`) persist jobs to disk and accept grids over HTTP:
a spec serialised by one process reconstructs - with an identical
content hash - in another.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional

from repro.cache.cache import CacheStats
from repro.cache.writeback.base import WritebackPolicyStats
from repro.config.system import CacheConfig, DramConfig, SystemConfig
from repro.core.bard import BardAccuracy
from repro.dram.channel import ChannelStats
from repro.dram.stats import DrainEpisode, SubChannelStats
from repro.errors import ConfigError
from repro.sampling.config import SamplingConfig
from repro.sampling.stats import MetricEstimate, SamplingSummary
from repro.sim.results import RunResult

#: Bump when the RunResult schema changes incompatibly.
#: v3: CacheStats gained the MSHR-pipeline counters (including the
#: list-valued occupancy histogram) and RunResult ``mshr_stall_cycles``.
#: v4: SamplingSummary lost ``scheme`` (placement is always periodic).
RESULT_FORMAT = 4

#: Bump when the ExperimentSpec wire schema changes incompatibly.
EXPERIMENT_FORMAT = 1


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Pure-JSON form of a run result."""
    return {"format": RESULT_FORMAT,
            "result": dataclasses.asdict(result)}


def result_from_dict(payload: Dict[str, Any]) -> Optional[RunResult]:
    """Rebuild a result; ``None`` if the payload is from another format."""
    if not isinstance(payload, dict) \
            or payload.get("format") != RESULT_FORMAT:
        return None
    data = dict(payload["result"])
    data["llc"] = CacheStats(**data["llc"])
    data["dram"] = _subchannel(data["dram"])
    data["channels"] = [ChannelStats(**c) for c in data["channels"]]
    if data.get("wb_stats") is not None:
        data["wb_stats"] = WritebackPolicyStats(**data["wb_stats"])
    if data.get("bard_accuracy") is not None:
        data["bard_accuracy"] = BardAccuracy(**data["bard_accuracy"])
    if data.get("sampling") is not None:
        summary = dict(data["sampling"])
        summary["metrics"] = {
            name: MetricEstimate(**est)
            for name, est in summary["metrics"].items()
        }
        data["sampling"] = SamplingSummary(**summary)
    return RunResult(**data)


def _subchannel(data: Dict[str, Any]) -> SubChannelStats:
    episodes: List[DrainEpisode] = [
        DrainEpisode(**e) for e in data.pop("episodes", [])
    ]
    return SubChannelStats(episodes=episodes, **data)


# ----------------------------------------------------------------------
# Configs, run specs, and experiment grids
# ----------------------------------------------------------------------

def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Pure-JSON form of a system configuration."""
    return dataclasses.asdict(config)


def config_from_dict(data: Mapping[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from its ``asdict`` form.

    The round-trip is exact: rebuilding and re-serialising yields the
    same canonical JSON, so content hashes computed from a reconstructed
    config match the originals - the invariant the result cache and the
    experiment service's job queue both rely on.
    """
    try:
        fields = dict(data)
        for level in ("l1i", "l1d", "l2", "llc"):
            fields[level] = CacheConfig(**fields[level])
        fields["dram"] = DramConfig(**fields["dram"])
        if fields.get("sampling") is not None:
            fields["sampling"] = SamplingConfig(**fields["sampling"])
        return SystemConfig(**fields)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed system config payload: {exc}")


def spec_from_dict(data: Mapping[str, Any]) -> "RunSpec":
    """Rebuild a :class:`RunSpec` from its :meth:`~RunSpec.describe` form."""
    from repro.experiment.spec import RunSpec

    try:
        return RunSpec(workload=data["workload"],
                       config=config_from_dict(data["config"]),
                       seed=int(data.get("seed", 7)),
                       label=str(data.get("label", "")))
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed run spec payload: {exc}")


def experiment_to_dict(spec: "ExperimentSpec") -> Dict[str, Any]:
    """Wire form of a whole experiment grid (the service submit body)."""
    from repro.experiment.spec import ExperimentSpec  # noqa: F401

    return {
        "format": EXPERIMENT_FORMAT,
        "name": spec.name,
        "workloads": list(spec.workloads),
        "configs": [[name, config_to_dict(cfg)]
                    for name, cfg in spec.configs],
        "policies": list(spec.policies)
                    if spec.policies is not None else None,
        "seeds": list(spec.seeds),
        "axes": [{"name": a.name, "setting": a.setting,
                  "values": list(a.values)} for a in spec.axes],
    }


def experiment_from_dict(data: Mapping[str, Any]) -> "ExperimentSpec":
    """Rebuild an :class:`ExperimentSpec` from :func:`experiment_to_dict`.

    Raises :class:`~repro.errors.ConfigError` on malformed payloads -
    the service maps that to an HTTP 400, keeping client typos from
    looking like server bugs.
    """
    from repro.experiment.spec import Axis, ExperimentSpec, INHERIT

    if not isinstance(data, Mapping):
        raise ConfigError("experiment payload must be a JSON object")
    if data.get("format", EXPERIMENT_FORMAT) != EXPERIMENT_FORMAT:
        raise ConfigError(
            f"unsupported experiment format {data.get('format')!r} "
            f"(this service speaks format {EXPERIMENT_FORMAT})")
    try:
        configs = [(str(name), config_from_dict(cfg))
                   for name, cfg in data["configs"]]
        policies = data.get("policies", None)
        axes = [Axis(name=str(a["name"]), setting=str(a["setting"]),
                     values=tuple(str(v) for v in a["values"]))
                for a in data.get("axes", ())]
        return ExperimentSpec(
            workloads=[str(w) for w in data["workloads"]],
            configs=configs,
            policies=INHERIT if policies is None
            else [str(p) for p in policies],
            seeds=[int(s) for s in data.get("seeds", (7,))],
            axes=axes,
            name=str(data.get("name", "experiment")),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed experiment payload: {exc}")
