"""Plan-execution primitives shared by :class:`Session` and the service.

The in-process :class:`~repro.experiment.session.Session` and the
long-running :mod:`repro.service` worker shards execute the same unit of
work: a *warm group* - a list of ``(run key, RunSpec)`` items that share
one functional-warmup state, so the group warms once and every other
member restores the snapshot (see
:func:`~repro.experiment.spec.warm_group_key`).  This module is the
single home of that logic; both consumers import it so a run behaves
identically whether it was launched from the CLI, a test, or an HTTP
submission.

``simulate_group`` is the batch form handed to ``multiprocessing`` pools
(one round-trip per group); ``iter_group`` is the incremental form the
serial path uses so an interrupt mid-group still keeps every finished
member.

Every run pauses the cycle collector from before its ``System`` is
built until after :meth:`~repro.sim.system.System.close`, which leaves
the machine free of reference cycles so dropping it frees it at once.
The ``simulate`` fault site trips inside the pause, where a simulator
crash or hang would happen.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Iterator, List, MutableMapping, Optional, \
    Tuple

from repro import telemetry
from repro.experiment.spec import RunSpec
from repro.resilience import faults
from repro.sim.results import RunResult
from repro.sim.system import System
from repro.workloads.suites import trace_factory

#: One (run key, spec) work item.
KeyedSpec = Tuple[str, RunSpec]

#: One finished member: (key, result, warmups executed, snapshots restored).
GroupItem = Tuple[str, RunResult, int, int]

SimulateFn = Callable[[RunSpec], RunResult]


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cycle collector off for the block, then restore it.

    A collection during a run finds nothing to free (:func:`_machine`
    closes every machine, so none is left as cyclic garbage) but walks
    the whole live heap.  The switch is process-wide: a collector the
    caller had disabled stays disabled.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _machine(spec: RunSpec) -> Iterator[System]:
    """``spec``'s System, closed on exit so reference counting frees it."""
    factory = trace_factory(spec.workload, spec.config, seed=spec.seed)
    system = System(spec.config, factory)
    try:
        yield system
    finally:
        system.close()


def simulate(spec: RunSpec) -> RunResult:
    """Execute one run spec (the single entry point to the simulator)."""
    with telemetry.span("simulate", workload=spec.workload,
                        label=spec.label or spec.workload), \
            _collector_paused():
        with _machine(spec) as system:
            result = system.run(label=spec.label or spec.workload)
        # Free the machine while the collector is still paused: the
        # first collection after the pause would walk all of it.
        del system
    return result


def iter_group(items: List[KeyedSpec],
               simulate_fn: SimulateFn = simulate,
               snapshots: Optional[MutableMapping[str, object]] = None,
               group_key: Optional[str] = None) -> Iterator[GroupItem]:
    """Execute one warm-sharing group, yielding each member as it finishes.

    The first member executes the (functional) warmup and snapshots the
    warm state; every other member restores the snapshot instead of
    re-warming.  Each yielded tuple carries per-member accounting deltas
    (``warmups``, ``restores``) so callers can attribute warmup time as
    results stream out - an interrupt after member *k* loses nothing
    already yielded.

    ``snapshots`` (with its ``group_key``) opts into *cross-call*
    checkpoint reuse: the group's warm snapshot is looked up in - and
    stored into - the mapping, so a later call for the same warm group
    (an adaptive refinement round re-planning the same runs at higher
    fidelity) restores instead of re-warming.  Restored runs are
    bit-identical to freshly warmed ones, so this never changes results.
    Without ``snapshots``, ``simulate_fn`` is consulted for singleton
    groups (the common case for detailed-warmup runs) and shared groups
    drive the snapshot/restore machinery directly.
    """
    share = snapshots is not None and group_key is not None
    if len(items) == 1 and not share:
        key, spec = items[0]
        warmups = 1 if spec.config.warmup_instructions > 0 else 0
        with _collector_paused():
            faults.trip("simulate", key)
            result = simulate_fn(spec)
        yield key, result, warmups, 0
        return
    snapshot = snapshots.get(group_key) if share else None
    for key, spec in items:
        with _collector_paused():
            faults.trip("simulate", key)
            with telemetry.span("simulate", workload=spec.workload,
                                label=spec.label or spec.workload), \
                    _machine(spec) as system:
                if snapshot is None:
                    snapshot = system.snapshot_warm_state()
                    warmups, restores = 1, 0
                    if share:
                        snapshots[group_key] = snapshot
                else:
                    system.restore_warm_state(snapshot)
                    warmups, restores = 0, 1
                result = system.run(label=spec.label or spec.workload)
            del system  # freed inside the pause, as in simulate()
        yield key, result, warmups, restores


def simulate_group(
    items: List[KeyedSpec],
) -> Tuple[List[Tuple[str, RunResult]], int, int]:
    """Batch form of :func:`iter_group` for process pools.

    Returns ``(keyed results, warmups executed, checkpoint restores)``
    so the dispatching side can account where warmup time went.
    """
    pairs: List[Tuple[str, RunResult]] = []
    warmups = restores = 0
    for key, result, warmed, restored in iter_group(items):
        pairs.append((key, result))
        warmups += warmed
        restores += restored
    return pairs, warmups, restores
