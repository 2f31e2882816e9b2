"""Queryable collections of finished runs.

A :class:`ResultSet` holds one :class:`Observation` per experiment grid
point - its coordinates, run spec, and measured
:class:`~repro.sim.results.RunResult` - and supports the aggregation
vocabulary of the paper's figures and tables: ``filter`` by coordinate,
``group_by`` an axis, ``speedup_vs`` a baseline along an axis, geometric
means, and export to flat records.  A whole figure becomes one
expression, e.g.::

    rs.speedup_vs("policy").filter(policy="bard-h").gmean_speedup_pct()
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, \
    Optional, Sequence, Tuple, Union

from repro.analysis.metrics import amean, gmean
from repro.experiment.spec import BASELINE, GridPoint, RunSpec
from repro.sim.results import RunResult

#: Metrics exported by default from ``to_records``.
DEFAULT_METRICS: Tuple[str, ...] = (
    "mean_ipc", "mpki", "wpki", "write_blp", "time_writing_pct",
)

Criterion = Union[object, Callable[[object], bool]]

#: Metrics computed relative to a baseline attached by ``speedup_vs``.
RELATIVE_METRICS = ("weighted_speedup", "speedup_pct")


@lru_cache(maxsize=1)
def metric_names() -> Tuple[str, ...]:
    """Every valid scalar metric name, sorted.

    The single source of truth for metric validation: numeric
    :class:`~repro.sim.results.RunResult` fields, its derived properties,
    and the baseline-relative metrics.  Structured fields (``llc``,
    ``dram``, ``ipc``, ``sampling``, ...) are not exportable metrics.
    """
    names = set(RELATIVE_METRICS)
    for f in fields(RunResult):
        if f.type in ("int", "float"):
            names.add(f.name)
    for name in dir(RunResult):
        if isinstance(getattr(RunResult, name, None), property):
            names.add(name)
    return tuple(sorted(names))


def valid_metric(name: str) -> bool:
    """Whether ``name`` resolves to a scalar RunResult metric."""
    return name in metric_names()


def _unknown_metric(name: str) -> ValueError:
    return ValueError(
        f"unknown metric {name!r}; valid metrics are: "
        f"{', '.join(metric_names())}")


@dataclass(frozen=True)
class Observation:
    """One grid point with its measured result.

    ``baseline`` is attached by :meth:`ResultSet.speedup_vs` and enables
    the relative metrics (``weighted_speedup``, ``speedup_pct``).
    """

    coords: Mapping[str, object]
    spec: RunSpec
    result: RunResult
    baseline: Optional[RunResult] = field(default=None, compare=False)

    def value(self, metric: str) -> float:
        """Look up ``metric`` on the result (or relative to the baseline).

        Unknown metric names raise a :class:`ValueError` listing the
        valid ones (see :func:`metric_names`).
        """
        if not valid_metric(metric):
            raise _unknown_metric(metric)
        if metric in RELATIVE_METRICS:
            if self.baseline is None:
                raise ValueError(
                    f"{metric!r} needs a baseline; call speedup_vs() first")
            return getattr(self.result, metric)(self.baseline)
        value = getattr(self.result, metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{metric!r} is not a scalar metric")
        return value

    @property
    def sampled(self) -> bool:
        """Whether this observation came from a sampled run."""
        return self.result.sampling is not None

    def ci(self, metric: str) -> Tuple[float, float]:
        """The metric's ``(lo, hi)`` confidence interval.

        Full (unsampled) observations - e.g. adaptive escalations
        sitting next to sampled cells in a mixed grid - report a
        degenerate ``(value, value)`` interval: their measurement is
        exact, not missing.  Metrics a *sampled* summary does not cover
        still raise :class:`ValueError`.
        """
        if not valid_metric(metric):
            raise _unknown_metric(metric)
        if self.result.sampling is None:
            value = self.value(metric)
            return value, value
        return self.result.sampling.ci(metric)

    def error_bar(self, metric: str) -> float:
        """CI half-width of ``metric``; 0.0 for full (unsampled) runs."""
        if not valid_metric(metric):
            raise _unknown_metric(metric)
        summary = self.result.sampling
        if summary is None or metric not in summary.metrics:
            return 0.0
        return summary.metrics[metric].half_width


class ResultSet:
    """An ordered, filterable collection of observations."""

    def __init__(self, observations: Iterable[Observation],
                 name: str = "", adaptive: Optional[object] = None
                 ) -> None:
        self.observations: Tuple[Observation, ...] = tuple(observations)
        self.name = name
        #: The :class:`~repro.adaptive.report.AdaptiveReport` when this
        #: set came from an adaptive orchestration (``None`` otherwise).
        #: Carried only on the set the orchestration returned - derived
        #: sets (``filter``, ``speedup_vs``, ``group_by``) describe a
        #: subset the grid-level report no longer matches, so they do
        #: not inherit it.
        self.adaptive = adaptive

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.observations)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self.observations)

    def __getitem__(self, index: int) -> Observation:
        return self.observations[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultSet({self.name or 'unnamed'}, n={len(self)})"

    # -- selection -----------------------------------------------------

    def filter(self, **criteria: Criterion) -> "ResultSet":
        """Observations matching every criterion.

        A criterion may be a scalar (equality), a list/tuple/set
        (membership), or a callable predicate over the coordinate value.
        """
        def matches(obs: Observation) -> bool:
            for axis, want in criteria.items():
                have = obs.coords.get(axis)
                if callable(want):
                    if not want(have):
                        return False
                elif isinstance(want, (list, tuple, set, frozenset)):
                    if have not in want:
                        return False
                elif have != want:
                    return False
            return True

        return ResultSet(filter(matches, self.observations), self.name)

    def group_by(self, axis: str) -> "Dict[object, ResultSet]":
        """Split along one axis; groups keep first-seen order."""
        groups: Dict[object, List[Observation]] = {}
        for obs in self.observations:
            groups.setdefault(obs.coords.get(axis), []).append(obs)
        return {value: ResultSet(members, self.name)
                for value, members in groups.items()}

    def axis_values(self, axis: str) -> List[object]:
        """Distinct values of ``axis``, first-seen order."""
        return list(dict.fromkeys(
            obs.coords.get(axis) for obs in self.observations))

    def only(self) -> Observation:
        """The single observation; error when the set isn't singular."""
        if len(self.observations) != 1:
            raise ValueError(
                f"expected exactly one observation, have "
                f"{len(self.observations)}")
        return self.observations[0]

    # -- relative metrics ----------------------------------------------

    def speedup_vs(self, axis: str = "policy",
                   baseline: object = BASELINE) -> "ResultSet":
        """Pair every non-baseline observation with its baseline run.

        The baseline is the observation sharing every coordinate except
        ``axis``, where it has the value ``baseline``.  Coordinates whose
        value is a function of the ``axis`` value (say, the ``policy``
        each named config of an inherit-policy grid records) say nothing
        beyond ``axis`` and are left out of that match.  Returns the
        non-baseline observations with ``baseline`` attached, making
        ``speedup_pct``/``weighted_speedup`` available as metrics.
        """
        first: Dict[Tuple[str, object], object] = {}
        varying = set()
        for obs in self.observations:
            value = obs.coords.get(axis)
            for k, v in obs.coords.items():
                if first.setdefault((k, value), v) != v:
                    varying.add(k)

        def anchor(obs: Observation) -> Tuple:
            return tuple(sorted(
                (k, v) for k, v in obs.coords.items() if k in varying))

        baselines: Dict[Tuple, RunResult] = {}
        for obs in self.observations:
            if obs.coords.get(axis) == baseline:
                baselines[anchor(obs)] = obs.result
        paired: List[Observation] = []
        for obs in self.observations:
            if obs.coords.get(axis) == baseline:
                continue
            ref = baselines.get(anchor(obs))
            if ref is None:
                raise ValueError(
                    f"no {axis}={baseline!r} baseline for point "
                    f"{dict(obs.coords)}")
            paired.append(replace(obs, baseline=ref))
        return ResultSet(paired, self.name)

    # -- aggregation ---------------------------------------------------

    def metric(self, name: str) -> List[float]:
        """The named metric evaluated for every observation, in order.

        ``name`` is any :class:`~repro.sim.results.RunResult` attribute or
        property (e.g. ``"mean_ipc"``, ``"write_blp"``) or a
        baseline-relative metric (``"weighted_speedup"``,
        ``"speedup_pct"``) after :meth:`speedup_vs`.
        """
        return [obs.value(name) for obs in self.observations]

    def gmean(self, metric: str = "weighted_speedup") -> float:
        """Geometric mean of ``metric`` across the observations."""
        return gmean(self.metric(metric))

    def amean(self, metric: str) -> float:
        """Arithmetic mean of ``metric`` across the observations."""
        return amean(self.metric(metric))

    def gmean_speedup_pct(self) -> float:
        """Geometric-mean speedup (%) over attached baselines."""
        return 100.0 * (self.gmean("weighted_speedup") - 1.0)

    def phase_breakdown(self) -> Dict[str, float]:
        """Summed wall-clock seconds per execution phase across the set.

        Phase timings are recorded per run when telemetry is enabled
        (``RunResult.phase_breakdown``); runs executed with telemetry
        off contribute nothing.  Returns ``{}`` when no observation
        carries a breakdown, so callers need no enabled-mode check.
        """
        totals: Dict[str, float] = {}
        for obs in self.observations:
            breakdown = obs.result.phase_breakdown
            if not breakdown:
                continue
            for phase, seconds in breakdown.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return dict(sorted(totals.items()))

    # -- sampling ------------------------------------------------------

    def ci(self, metric: str) -> Tuple[float, float]:
        """``(lo, hi)`` confidence interval of the single observation.

        Filter down to one observation first (like :meth:`only`).  Full
        (unsampled) observations report a degenerate ``(value, value)``
        interval, so mixed grids - sampled cells next to full-detail
        escalations - degrade gracefully.
        """
        return self.only().ci(metric)

    # -- export --------------------------------------------------------

    def to_records(self, metrics: Sequence[str] = ()) \
            -> List[Dict[str, object]]:
        """One flat dict per observation: coordinates plus metric values."""
        names = tuple(metrics) or DEFAULT_METRICS
        records = []
        for obs in self.observations:
            record: Dict[str, object] = dict(obs.coords)
            record["run_key"] = obs.spec.key()
            for name in names:
                record[name] = obs.value(name)
            records.append(record)
        return records

    def results(self) -> List[RunResult]:
        """The raw :class:`RunResult` objects, in observation order."""
        return [obs.result for obs in self.observations]


def from_points(points: Sequence[GridPoint],
                results: Mapping[str, RunResult],
                name: str = "",
                adaptive: Optional[object] = None) -> ResultSet:
    """Assemble a ResultSet from plan points and keyed results."""
    return ResultSet(
        (Observation(coords=p.coords, spec=p.spec,
                     result=results[p.spec.key()]) for p in points),
        name=name, adaptive=adaptive)
