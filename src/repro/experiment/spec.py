"""Declarative experiment specifications.

An :class:`ExperimentSpec` names a *grid* of simulation runs - workloads x
config variants x writeback policies x seeds, optionally extended with
extra sweep axes (write-queue size, device width, ...).  ``expand()``
turns the grid into a :class:`RunPlan`: every grid point resolves to a
concrete, content-hashed :class:`RunSpec`, and identical runs reached
through different grid coordinates (e.g. the baseline policy repeated
under two axes) are deduplicated so each unique simulation executes once.

The content hash is *stable*: it is derived from the canonical JSON form
of (config, workload, seed) plus a format version, so the same spec hashes
identically across processes and sessions - the key for the on-disk
result cache in :mod:`repro.experiment.cache`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, Iterable, List, Mapping, Optional, \
    Sequence, Tuple, Union

from repro.config.system import SystemConfig
from repro.errors import ConfigError

#: Bump when simulator semantics change enough to invalidate cached runs.
#: v2: SystemConfig gained the ``sampling`` axis (sampled and full runs
#: of the same machine/trace hash differently by construction).
#: v3: CacheConfig gained the MSHR-pipeline knobs (``mshr_targets``,
#: ``hit_under_miss``, ``mshr_pipeline``) and the warm signature stopped
#: hashing MSHR timing fields.
RUN_KEY_VERSION = 3

#: Canonical label for the no-policy (LRU writeback) baseline.
BASELINE = "baseline"

#: Sentinel: the policy dimension inherits each config's own
#: ``llc_writeback`` instead of overriding it.
INHERIT = "<inherit>"


def _canonical(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def policy_arg(name: Optional[str]) -> Optional[str]:
    """Map the user-facing policy label to the config value."""
    return None if name in (None, BASELINE) else name


def policy_label(name: Optional[str]) -> str:
    """Map a config policy value to its user-facing label."""
    return name if name else BASELINE


# ----------------------------------------------------------------------
# Run specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec:
    """One concrete simulation: a config, a workload, a seed."""

    workload: str
    config: SystemConfig
    seed: int = 7
    label: str = ""

    def key(self) -> str:
        """Stable content hash identifying this simulation.

        The label is presentation-only and deliberately excluded: two runs
        that simulate the same machine on the same trace share a key.
        Memoised - config serialisation is the expensive part and the key
        is consulted once per grid point per plan/export.
        """
        cached = self.__dict__.get("_key")
        if cached is None:
            payload = {
                "version": RUN_KEY_VERSION,
                "workload": self.workload,
                "seed": self.seed,
                "config": dataclasses.asdict(self.config),
            }
            digest = hashlib.sha256(_canonical(payload).encode()) \
                .hexdigest()
            cached = digest[:24]
            object.__setattr__(self, "_key", cached)
        return cached

    def describe(self) -> Dict[str, object]:
        """JSON-serialisable description (stored alongside cached results)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "label": self.label,
            "config": dataclasses.asdict(self.config),
        }

    def refine(self, intervals: Optional[int] = None,
               full: bool = False) -> "RunSpec":
        """Re-plan this run's measurement at a higher fidelity.

        ``refine(intervals=n)`` returns a copy measuring ``n`` sampled
        intervals (building on the config's own sampling plan, or the
        defaults for a full-detail spec); ``refine(full=True)`` escalates
        to an unsampled full-detail measurement.  Workload, seed, label,
        and every warmup-relevant knob are preserved - and sampling is
        excluded from :func:`~repro.sim.warmstate.warm_config_signature`
        - so the refined run stays in the original's warm-checkpoint
        group and reuses its snapshot instead of re-warming.

        The returned spec has a different content hash (sampling is part
        of the run key), so each refinement round is cached, deduplicated,
        and queued as its own run.
        """
        from repro.sampling.config import SamplingConfig

        if full:
            if intervals is not None:
                raise ConfigError(
                    "refine(full=True) does not take an interval count")
            return dataclasses.replace(
                self, config=self.config.with_sampling(None))
        if intervals is None or intervals < 1:
            raise ConfigError(
                f"refine() needs intervals >= 1 or full=True "
                f"(got intervals={intervals!r})")
        base = self.config.sampling if self.config.sampling is not None \
            else SamplingConfig()
        config = self.config
        if config.warmup_mode != "functional":
            # The sampler requires functional warmup; the spec keeps its
            # warmup budget so only the warm-state *mode* changes.
            config = config.with_warmup_mode("functional")
        return dataclasses.replace(
            self, config=config.with_sampling(base.fixed(intervals)))


def warm_group_key(spec: RunSpec) -> Optional[str]:
    """Checkpoint-sharing key, or None when this run cannot share warmup.

    Runs with equal keys warm identical state - same workload, seed, and
    warmup-relevant configuration (core count, cache geometries,
    replacement/prefetcher settings, warmup budget) - so a
    :class:`~repro.experiment.Session` executes their warmup once and
    forks the snapshot.  Only functional-mode warmups are shareable:
    detailed warm state includes in-flight timing that cannot be
    checkpointed.  Policy/writeback and DRAM variants deliberately hash
    equal, which is what turns an N-policy grid's warmup cost from N
    into 1.
    """
    from repro.sim.warmstate import warm_config_signature

    config = spec.config
    if config.warmup_mode != "functional" or \
            config.warmup_instructions <= 0:
        return None
    payload = {
        "version": RUN_KEY_VERSION,
        "workload": spec.workload,
        "seed": spec.seed,
        "warm_config": warm_config_signature(config),
    }
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:24]


# ----------------------------------------------------------------------
# Sweep axes
# ----------------------------------------------------------------------

#: Declarative config modifiers addressable by name.  Each takes the base
#: config and the axis value (always given as a string label) and returns
#: the modified config - keeping axes picklable, hashable, and printable.
AXIS_MODIFIERS: Dict[str, Callable[[SystemConfig, str], SystemConfig]] = {
    "policy": lambda cfg, v: cfg.with_writeback(policy_arg(v)),
    "wq": lambda cfg, v: cfg.with_wq(int(v)),
    "device": lambda cfg, v: cfg.with_device(v),
    "replacement": lambda cfg, v: cfg.with_replacement(v),
    "drain": lambda cfg, v: cfg.with_drain_policy(v),
    # MSHR-count sweep: enables the MSHR pipeline and scales the whole
    # hierarchy's MSHR files off one L1D count (L2 2x, LLC 8x).
    "mshr": lambda cfg, v: cfg.with_mshrs(int(v)),
    # Flag axes SET the state (so 'off' clears a flag the base config
    # enabled); apply-only-if-truthy would silently collapse grid points.
    "refresh": lambda cfg, v: dataclasses.replace(
        cfg, dram=dataclasses.replace(cfg.dram, refresh=_truthy(v))),
    "pbpl": lambda cfg, v: dataclasses.replace(
        cfg, dram=dataclasses.replace(cfg.dram, pbpl=_truthy(v))),
    # Sampled-vs-full comparisons: 'off' measures the whole epoch, an
    # integer N samples N intervals (inheriting the config's sampling
    # plan for the other knobs, or defaults).  Enabling sampling forces
    # functional warmup - required by the sampler - so pass
    # ``--warmup-mode functional`` to keep the 'off' points comparable.
    "sample": lambda cfg, v: _apply_sample_axis(cfg, v),
}


def _apply_sample_axis(cfg: SystemConfig, value: str) -> SystemConfig:
    from repro.sampling.config import SamplingConfig

    if str(value).lower() in ("off", "none", "0", "full"):
        return cfg.with_sampling(None)
    base = cfg.sampling if cfg.sampling is not None else SamplingConfig()
    if cfg.warmup_mode != "functional":
        cfg = cfg.with_warmup_mode("functional")
    return cfg.with_sampling(dataclasses.replace(base, intervals=int(value)))


def _truthy(value: str) -> bool:
    return str(value).lower() in ("1", "true", "yes", "on")


@dataclass(frozen=True)
class Axis:
    """One extra sweep dimension: a named set of config transformations.

    ``setting`` selects a modifier from :data:`AXIS_MODIFIERS`; ``values``
    are its string labels (e.g. ``Axis("wq", "wq", ("32", "48", "64"))``).
    ``name`` is the coordinate name observations carry in the ResultSet.
    """

    name: str
    setting: str
    values: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.setting not in AXIS_MODIFIERS:
            raise ConfigError(
                f"unknown axis setting {self.setting!r}; choose from "
                f"{sorted(AXIS_MODIFIERS)}")
        if not self.values:
            raise ConfigError(f"axis {self.name!r} has no values")

    def apply(self, config: SystemConfig, value: str) -> SystemConfig:
        """``config`` with this axis set to ``value`` (a new config)."""
        return AXIS_MODIFIERS[self.setting](config, value)


def make_axis(name: str,
              values: Sequence[Union[str, int, bool]]) -> Axis:
    """Build an :class:`Axis` whose setting shares its name (CLI form)."""
    return Axis(name, name, tuple(str(v) for v in values))


# ----------------------------------------------------------------------
# The experiment grid
# ----------------------------------------------------------------------

ConfigsArg = Union[SystemConfig, Mapping[str, SystemConfig],
                   Sequence[Tuple[str, SystemConfig]]]


class ExperimentSpec:
    """A declarative grid of runs with named axes.

    Parameters accept friendly forms (a single config, a dict of named
    variants, scalar workloads/seeds) and are normalised to tuples so the
    spec itself is hashable and order-stable.
    """

    def __init__(
        self,
        workloads: Union[str, Iterable[str]],
        configs: ConfigsArg,
        policies: Union[None, str, Iterable[Optional[str]]] = INHERIT,
        seeds: Union[int, Iterable[int]] = (7,),
        axes: Iterable[Axis] = (),
        name: str = "experiment",
    ) -> None:
        self.name = name
        self.workloads: Tuple[str, ...] = (
            (workloads,) if isinstance(workloads, str)
            else tuple(workloads))
        if isinstance(configs, SystemConfig):
            self.configs: Tuple[Tuple[str, SystemConfig], ...] = (
                ("default", configs),)
        elif isinstance(configs, Mapping):
            self.configs = tuple(configs.items())
        else:
            self.configs = tuple(configs)
        if policies == INHERIT:
            # Each config variant keeps its own llc_writeback setting.
            self.policies: Optional[Tuple[str, ...]] = None
        else:
            if policies is None or isinstance(policies, str):
                policies = (policies,)
            self.policies = _dedupe(policy_label(p) for p in policies)
            if not self.policies:
                raise ConfigError("experiment needs at least one policy")
        self.seeds: Tuple[int, ...] = (
            (seeds,) if isinstance(seeds, int) else tuple(seeds))
        self.axes: Tuple[Axis, ...] = tuple(axes)
        if not self.workloads:
            raise ConfigError("experiment needs at least one workload")
        if not self.configs:
            raise ConfigError("experiment needs at least one config")
        if not self.seeds:
            raise ConfigError("experiment needs at least one seed")
        names = (["config", "workload", "policy", "seed"]
                 + [a.name for a in self.axes])
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate axis names in {names}")

    # -- identity ------------------------------------------------------

    def hash(self) -> str:
        """Stable content hash of the whole grid."""
        payload = {
            "version": RUN_KEY_VERSION,
            "workloads": list(self.workloads),
            "configs": [(n, dataclasses.asdict(c)) for n, c in self.configs],
            "policies": list(self.policies)
                        if self.policies is not None else INHERIT,
            "seeds": list(self.seeds),
            "axes": [dataclasses.asdict(a) for a in self.axes],
        }
        return hashlib.sha256(_canonical(payload).encode()).hexdigest()[:24]

    # -- expansion -----------------------------------------------------

    def expand(self) -> "RunPlan":
        """Expand the grid into a deduplicated :class:`RunPlan`."""
        points: List[GridPoint] = []
        axis_values = [[(axis, v) for v in axis.values]
                       for axis in self.axes]
        for (cname, base), workload, seed in product(
                self.configs, self.workloads, self.seeds):
            # INHERIT keeps the config's own policy; an explicit policy
            # list overrides it per grid point.
            policies = self.policies if self.policies is not None \
                else (policy_label(base.llc_writeback),)
            for policy, combo in product(policies, product(*axis_values)):
                cfg = base if self.policies is None \
                    else base.with_writeback(policy_arg(policy))
                coords: Dict[str, object] = {
                    "config": cname,
                    "workload": workload,
                    "policy": policy,
                    "seed": seed,
                }
                final = cfg
                for axis, value in combo:
                    coords[axis.name] = value
                    final = axis.apply(final, value)
                # Axis modifiers may override the policy coordinate (a
                # "policy" axis); keep the coordinate truthful.
                if any(axis.setting == "policy" for axis, _ in combo):
                    coords["policy"] = policy_label(final.llc_writeback)
                label = _point_label(coords)
                points.append(GridPoint(
                    coords=coords,
                    spec=RunSpec(workload=workload, config=final,
                                 seed=seed, label=label)))
        return RunPlan(self, points)


def _dedupe(items: Iterable[str]) -> Tuple[str, ...]:
    seen: Dict[str, None] = {}
    for item in items:
        seen.setdefault(item, None)
    return tuple(seen)


def _point_label(coords: Mapping[str, object]) -> str:
    parts = [str(coords["workload"]), str(coords["policy"])]
    parts += [f"{k}={v}" for k, v in coords.items()
              if k not in ("workload", "policy", "config", "seed")]
    return "/".join(parts)


@dataclass(frozen=True)
class GridPoint:
    """One coordinate of the experiment grid and its resolved run."""

    coords: Mapping[str, object]
    spec: RunSpec


class RunPlan:
    """The expanded grid: ordered points plus deduplicated unique runs."""

    def __init__(self, spec: Optional[ExperimentSpec],
                 points: Sequence[GridPoint]) -> None:
        self.spec = spec
        self.points: Tuple[GridPoint, ...] = tuple(points)
        runs: Dict[str, RunSpec] = {}
        for point in self.points:
            runs.setdefault(point.spec.key(), point.spec)
        #: Unique simulations, first-seen order.
        self.runs: Dict[str, RunSpec] = runs

    def __len__(self) -> int:
        return len(self.points)

    @property
    def unique_count(self) -> int:
        """Number of distinct simulations the plan requires."""
        return len(self.runs)

    @property
    def duplicate_count(self) -> int:
        """Grid points satisfied by another point's simulation."""
        return len(self.points) - len(self.runs)
