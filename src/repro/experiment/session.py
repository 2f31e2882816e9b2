"""Experiment execution: plan -> (cached | simulated) -> ResultSet.

A :class:`Session` owns the run caches and the execution strategy.  Each
unique run in a plan is satisfied from, in order: the in-memory memo
(shared across every ``run``/``run_one`` call on the session), the
on-disk :class:`~repro.experiment.cache.ResultCache`, or a fresh
simulation - serially, or across a ``multiprocessing`` pool when
``parallel > 1``.  Simulations are deterministic in (config, workload,
seed), so serial and parallel execution produce identical results.

Runs using functional warmup (``warmup_mode="functional"``) are
additionally grouped by :func:`~repro.experiment.spec.warm_group_key` -
(workload, warmup-relevant config hash, seed).  Each group executes its
warmup exactly once and forks the resulting warm-state snapshot into
every member (e.g. every policy column of a comparison grid), turning an
N-policy grid's warmup cost from N into 1.  Parallel execution
distributes whole groups across workers so snapshots never cross process
boundaries.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, \
    Optional, Tuple, Union

from repro import telemetry
from repro.config.system import SystemConfig
from repro.errors import ConfigError
from repro.experiment.cache import ResultCache
from repro.experiment.execute import KeyedSpec, iter_group, simulate, \
    simulate_group
from repro.experiment.resultset import ResultSet, from_points
from repro.experiment.spec import ExperimentSpec, GridPoint, RunPlan, \
    RunSpec, warm_group_key
from repro.sim.results import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.adaptive.policy import AdaptivePolicy

ProgressFn = Callable[[int, int, RunSpec], None]


class SessionInterrupted(RuntimeError):
    """A grid execution stopped early (Ctrl-C or a worker crash).

    Everything finished before the interrupt was already flushed to the
    on-disk result cache, so re-running the same spec resumes from the
    cached runs instead of starting over.  Attributes:

    ``stats``
        The session's :class:`SessionStats` at the moment of interrupt
        (``simulated`` counts the runs that completed this call).
    ``partial``
        A :class:`~repro.experiment.resultset.ResultSet` of the grid
        points whose runs did complete (possibly empty).
    """

    def __init__(self, message: str, stats: "SessionStats",
                 partial: ResultSet) -> None:
        super().__init__(message)
        self.stats = stats
        self.partial = partial


@dataclass
class SessionStats:
    """Where this session's runs came from (accumulated across calls)."""

    planned: int = 0
    unique: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    simulated: int = 0
    #: Warmup phases executed from scratch (detailed or functional).
    warmups_executed: int = 0
    #: Simulations that adopted a shared warm-state snapshot instead of
    #: executing their own warmup.
    checkpoint_restores: int = 0


class Session:
    """Executes experiment plans with memoisation and disk caching.

    Parameters
    ----------
    cache_dir:
        Directory for the persistent result cache.  ``None`` selects the
        default (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``).
    parallel:
        Number of worker processes for fresh simulations (1 = in-process).
    cache:
        Disable to skip the on-disk cache entirely (the in-memory memo
        still deduplicates within the session).
    checkpoints:
        Enable warm-state checkpoint sharing for functional-warmup runs
        (the default).  Disable to make every run execute its own
        warmup, e.g. to measure the checkpoint layer itself.
    """

    def __init__(self, cache_dir: Optional[Union[str, Path]] = None,
                 parallel: int = 1, cache: bool = True,
                 checkpoints: bool = True) -> None:
        self.parallel = max(1, int(parallel))
        self.cache: Optional[ResultCache] = \
            ResultCache(cache_dir) if cache else None
        self.checkpoints = checkpoints
        self.stats = SessionStats()
        self._memo: Dict[str, RunResult] = {}
        #: Warm-state snapshots kept across run() calls (serial path
        #: only - snapshots never cross process boundaries), so e.g.
        #: adaptive refinement rounds restore a group's checkpoint
        #: instead of re-warming it every round.
        self._snapshots: Dict[str, object] = {}

    # -- plan execution ------------------------------------------------

    def run(self, experiment: Union[ExperimentSpec, RunPlan],
            progress: Optional[ProgressFn] = None) -> ResultSet:
        """Execute every unique run of the experiment; aggregate results."""
        plan = experiment.expand() \
            if isinstance(experiment, ExperimentSpec) else experiment
        self.stats.planned += len(plan)
        self.stats.unique += plan.unique_count

        missing: List[Tuple[str, RunSpec]] = []
        for key, spec in plan.runs.items():
            if key in self._memo:
                self.stats.memo_hits += 1
                continue
            cached = self.cache.get(key) if self.cache else None
            if cached is not None:
                self.stats.disk_hits += 1
                self._memo[key] = cached
            else:
                missing.append((key, spec))

        total = len(missing)
        name = plan.spec.name if plan.spec else ""
        completed = 0
        try:
            for done, (key, result) in enumerate(
                    self._execute(missing), start=1):
                self.stats.simulated += 1
                completed = done
                self._memo[key] = result
                spec = plan.runs[key]
                telemetry.publish_run_result(
                    result, workload=spec.workload,
                    policy=spec.config.llc_writeback or "baseline")
                if self.cache:
                    self.cache.put(key, spec, result)
                if progress:
                    progress(done, total, spec)
        except ConfigError:
            # A mis-specified run is a caller error, not an interrupt:
            # keep the ConfigError contract (CLI exit 2, not 130).
            raise
        except (KeyboardInterrupt, Exception) as exc:
            # Interrupt safety: everything already simulated was cached
            # as it arrived, so hand back the finished points and make
            # the invocation resumable instead of losing it wholesale.
            finished = [p for p in plan.points
                        if p.spec.key() in self._memo]
            partial = from_points(finished, self._memo, name=name)
            raise SessionInterrupted(
                f"experiment {name or 'plan'} interrupted after "
                f"{completed}/{total} fresh runs ({len(finished)}/"
                f"{len(plan)} grid points available; finished runs are "
                f"cached - rerun the same spec to resume): {exc!r}",
                replace(self.stats), partial) from exc

        return from_points(plan.points, self._memo, name=name)

    def run_adaptive(self, experiment: Union[ExperimentSpec, RunPlan],
                     policy: "AdaptivePolicy",
                     progress: Optional[ProgressFn] = None) -> ResultSet:
        """Execute the grid adaptively: cheap survey, targeted refinement.

        Every unique run first executes as a cheap sampled pass
        (``policy.start_intervals`` intervals), then only cells whose
        confidence intervals still straddle a decision boundary earn
        more budget - higher interval counts via
        :meth:`~repro.experiment.spec.RunSpec.refine`, or escalation to
        a full-detail run - while dominated cells are pruned early.
        Rounds run through the ordinary :meth:`run` path, so caching,
        dedup, warm-checkpoint sharing, and telemetry apply unchanged.

        Returns a :class:`~repro.experiment.resultset.ResultSet` shaped
        like the original grid whose observations carry each cell's
        *final* (highest-fidelity) run, with the
        :class:`~repro.adaptive.report.AdaptiveReport` attached as
        ``rs.adaptive``.
        """
        from repro.adaptive.orchestrate import orchestrate

        return orchestrate(self, experiment, policy, progress=progress)

    def _warm_groups(
        self, missing: List[KeyedSpec],
    ) -> List[Tuple[Optional[str], List[KeyedSpec]]]:
        """Partition work items into warm-checkpoint-sharing groups.

        Runs that cannot share (detailed warmup, zero warmup, or
        ``checkpoints=False``) become singleton groups with a ``None``
        group key; shareable runs group by :func:`warm_group_key` and
        carry it, so the serial path can reuse snapshots across calls.
        First-seen plan order is preserved within and across groups.

        Whole groups are dispatched to one pool worker, so with few
        groups and many workers the pool would idle; in that case the
        largest groups are split until every worker has a chunk.  Each
        chunk re-warms once - trading some warmup sharing back for
        parallelism - which never changes results: a restored run is
        bit-identical to a freshly warmed one.
        """
        groups: Dict[object, List[KeyedSpec]] = {}
        for key, spec in missing:
            group_key = warm_group_key(spec) if self.checkpoints else None
            groups.setdefault(
                group_key if group_key is not None else ("solo", key),
                []).append((key, spec))
        chunks = [(gk if isinstance(gk, str) else None, members)
                  for gk, members in groups.items()]
        while len(chunks) < min(self.parallel, len(missing)):
            largest = max(range(len(chunks)),
                          key=lambda i: len(chunks[i][1]))
            group_key, group = chunks[largest]
            if len(group) < 2:
                break
            mid = (len(group) + 1) // 2
            chunks[largest:largest + 1] = [(group_key, group[:mid]),
                                           (group_key, group[mid:])]
        return chunks

    def _execute(
        self, missing: List[KeyedSpec],
    ) -> Iterator[Tuple[str, RunResult]]:
        if not missing:
            return
        groups = self._warm_groups(missing)
        workers = min(self.parallel, len(groups))
        if workers <= 1:
            # Stream member-by-member (not group-by-group) so an
            # interrupt mid-group keeps every member already finished.
            for group_key, group in groups:
                for key, result, warmed, restored in \
                        iter_group(group, simulate,
                                   snapshots=self._snapshots,
                                   group_key=group_key):
                    self.stats.warmups_executed += warmed
                    self.stats.checkpoint_restores += restored
                    yield key, result
            return
        with multiprocessing.Pool(processes=workers) as pool:
            for pairs, warmups, restores in pool.imap_unordered(
                    simulate_group, [g for _, g in groups]):
                self.stats.warmups_executed += warmups
                self.stats.checkpoint_restores += restores
                yield from pairs

    # -- single runs ---------------------------------------------------

    def run_one(self, config: SystemConfig, workload: str, seed: int = 7,
                label: Optional[str] = None) -> RunResult:
        """One simulation, run as a one-point plan through :meth:`run`.

        It shares the memo, the disk cache, warm checkpoints and
        telemetry with grid runs.  A :class:`ConfigError` propagates
        as-is; any other failure surfaces as :class:`SessionInterrupted`,
        as it does for :meth:`run`.
        """
        spec = RunSpec(workload=workload, config=config, seed=seed,
                       label=label or workload)
        point = GridPoint(coords={"workload": workload, "seed": seed},
                          spec=spec)
        result = self.run(RunPlan(None, [point])).only().result
        if label and result.label != label:
            result = replace(result, label=label)
        return result
