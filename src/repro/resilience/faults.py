"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s plus a seed.
Production code calls :func:`trip` (and :func:`corrupt`) at named
*sites*; with no plan installed these are near-free no-ops, and with a
plan they count matching invocations and fire the configured fault on
the nth one.  Because rules trigger on deterministic invocation counts
and all randomness (garbling, retry jitter) is seeded, a chaos test
replays bit-identically run after run.

Sites currently instrumented:

``simulate``
    Once per run, keyed by the run's content hash, inside
    :func:`repro.experiment.execute.iter_group` with the cycle collector
    paused - covers Sessions and service worker shards alike.
``cache.put``
    After a result file is written (:meth:`ResultCache.put`); the
    ``truncate``/``garble`` actions corrupt the just-written file so
    integrity checking can be exercised end to end.
``client.request``
    Before each HTTP request in :class:`ServiceClient`; ``drop`` makes
    the response vanish (a transient :class:`FaultInjected`), which the
    client's retry loop must absorb.

Actions: ``raise`` (transient :class:`FaultInjected`),
``raise-permanent``, ``delay`` / ``hang`` (sleep ``seconds``; the two
are synonyms - ``hang`` names the intent of sleeping past a timeout),
``kill`` (SIGKILL the current process - a worker crash), ``truncate``
and ``garble`` (corrupt a file at a ``corrupt`` site), and ``drop``
(transient raise, idiomatic at HTTP sites).

Plans install in-process via :func:`install`/:func:`injected`, or
cross-process via the ``REPRO_FAULTS`` environment variable naming a
JSON plan file - which is how a chaos test injects faults into a
``repro serve`` subprocess it intends to SIGKILL.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, \
    Union

#: Environment variable naming a JSON plan file to activate on import.
FAULTS_ENV = "REPRO_FAULTS"

_ACTIONS = ("raise", "raise-permanent", "delay", "hang", "kill",
            "truncate", "garble", "drop")


class FaultInjected(Exception):
    """An injected failure; ``transient`` drives retry classification."""

    def __init__(self, message: str, transient: bool = True) -> None:
        super().__init__(message)
        self.transient = transient


@dataclass(frozen=True)
class FaultRule:
    """One fault: fire ``times`` times at ``site`` after ``after`` matches.

    ``match`` is a substring filter on the operation key (run key, cache
    key, request path); empty matches everything.  Invocation counting
    is per rule: the rule fires on matching invocations
    ``after+1 .. after+times`` (``times=0`` = unlimited).
    """

    site: str
    action: str
    match: str = ""
    after: int = 0
    times: int = 1
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; "
                             f"choose from {_ACTIONS}")

    def to_dict(self) -> Dict[str, Any]:
        return {"site": self.site, "action": self.action,
                "match": self.match, "after": self.after,
                "times": self.times, "seconds": self.seconds}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        return cls(site=str(data["site"]), action=str(data["action"]),
                   match=str(data.get("match", "")),
                   after=int(data.get("after", 0)),
                   times=int(data.get("times", 1)),
                   seconds=float(data.get("seconds", 0.0)))


@dataclass
class FaultPlan:
    """A seeded, counting set of fault rules.

    Counters live on the plan instance (guarded by a lock), so two
    plans never interfere and a fresh plan replays from zero.
    """

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._lock = threading.Lock()

    # -- bookkeeping ---------------------------------------------------

    def _matching(self, site: str,
                  key: str) -> Iterator[Tuple[int, FaultRule]]:
        for index, rule in enumerate(self.rules):
            if rule.site == site and (not rule.match or rule.match in key):
                yield index, rule

    def _should_fire(self, index: int, rule: FaultRule) -> bool:
        with self._lock:
            count = self._counts.get(index, 0) + 1
            self._counts[index] = count
            if count <= rule.after:
                return False
            if rule.times and count > rule.after + rule.times:
                return False
            self._fired[index] = self._fired.get(index, 0) + 1
            return True

    def fired(self) -> int:
        """Total faults fired so far (all rules)."""
        with self._lock:
            return sum(self._fired.values())

    # -- firing --------------------------------------------------------

    def trip(self, site: str, key: str = "") -> None:
        """Fire any matching raise/sleep/kill rule at this site."""
        for index, rule in self._matching(site, key):
            if rule.action in ("truncate", "garble"):
                continue  # file rules only fire via corrupt()
            if not self._should_fire(index, rule):
                continue
            if rule.action in ("delay", "hang"):
                time.sleep(rule.seconds)
            elif rule.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif rule.action == "raise-permanent":
                raise FaultInjected(
                    f"injected permanent fault at {site} ({key})",
                    transient=False)
            else:  # "raise" / "drop"
                raise FaultInjected(
                    f"injected transient fault at {site} ({key})")

    def corrupt(self, site: str, key: str, path: Union[str, Path]) -> bool:
        """Fire any matching truncate/garble rule against ``path``."""
        acted = False
        for index, rule in self._matching(site, key):
            if rule.action not in ("truncate", "garble"):
                continue
            if not self._should_fire(index, rule):
                continue
            acted |= _corrupt_file(Path(path), rule.action)
        return acted

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "rules": [rule.to_dict() for rule in self.rules]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        return cls(rules=[FaultRule.from_dict(r)
                          for r in data.get("rules", [])],
                   seed=int(data.get("seed", 0)))

    def dump(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _corrupt_file(path: Path, action: str) -> bool:
    """Deterministically corrupt ``path`` in place.

    ``truncate`` keeps the first half of the file (torn write -> parse
    error); ``garble`` flips one digit that is *not* a number's leading
    digit, keeping the JSON parseable so only a content checksum can
    catch it.  Falls back to truncation when no safe digit exists.
    """
    try:
        text = path.read_text()
    except OSError:
        return False
    if action == "garble":
        # Garble inside the payload when the file has one - corrupting
        # envelope fields (the key, the checksum string itself) would
        # not simulate the interesting failure: data that lies.
        start = max(text.find('"payload"'), 0)
        for i in range(start + 1, len(text)):
            if text[i].isdigit() and text[i - 1].isdigit():
                flipped = str((int(text[i]) + 1) % 10)
                path.write_text(text[:i] + flipped + text[i + 1:])
                return True
        action = "truncate"  # no safe digit; fall through
    path.write_text(text[:len(text) // 2])
    return True


# -- active-plan registry ----------------------------------------------

_installed: Optional[FaultPlan] = None
_env_plan: Optional[FaultPlan] = None
_env_loaded = False
_registry_lock = threading.Lock()


def install(plan: FaultPlan) -> FaultPlan:
    """Activate ``plan`` process-wide (replacing any previous plan)."""
    global _installed
    with _registry_lock:
        _installed = plan
    return plan


def uninstall() -> None:
    """Deactivate any installed plan (env-file plans stay active)."""
    global _installed
    with _registry_lock:
        _installed = None


def reset() -> None:
    """Forget installed *and* env-loaded plans (test isolation)."""
    global _installed, _env_plan, _env_loaded
    with _registry_lock:
        _installed = None
        _env_plan = None
        _env_loaded = False


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, else the ``REPRO_FAULTS`` env plan, else None."""
    global _env_plan, _env_loaded
    if _installed is not None:
        return _installed
    if not _env_loaded:
        with _registry_lock:
            if not _env_loaded:
                path = os.environ.get(FAULTS_ENV)
                if path:
                    try:
                        _env_plan = FaultPlan.load(path)
                    except (OSError, ValueError):
                        _env_plan = None
                _env_loaded = True
    return _env_plan


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with injected(plan):`` - install for the block, then uninstall."""
    install(plan)
    try:
        yield plan
    finally:
        uninstall()


def trip(site: str, key: str = "") -> None:
    """Fire the active plan's rules at ``site`` (no-op without a plan)."""
    plan = active_plan()
    if plan is not None:
        plan.trip(site, key)


def corrupt(site: str, key: str, path: Union[str, Path]) -> bool:
    """File-corruption hook for the active plan (no-op without one)."""
    plan = active_plan()
    if plan is None:
        return False
    return plan.corrupt(site, key, path)
