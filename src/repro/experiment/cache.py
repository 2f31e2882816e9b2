"""Persistent on-disk result cache with content integrity checking.

Results live as one JSON file per unique run, named by the run's content
hash, under ``~/.cache/repro`` (overridable via ``REPRO_CACHE_DIR`` or a
caller-supplied directory).  Files are written atomically and carry a
``checksum`` over the canonical payload JSON; every read verifies it.
A file that is unreadable, torn, checksum-less, or *silently garbled*
(parseable JSON whose numbers no longer match the checksum - bit rot, a
partial copy, a buggy sync tool) is **quarantined** to a ``quarantine/``
sidecar directory and reads as a miss, so the run is transparently
recomputed instead of corrupt data being served as truth.  An intact
entry of another ``RESULT_FORMAT`` is a plain miss and stays in place.

The cache is safe for concurrent writers.  Many Sessions and service
worker shards routinely share one cache directory, so each publish
takes an advisory ``flock`` on a sidecar lock file (where the platform
provides one) and retries transient ``OSError`` failures with backoff
before degrading to a non-persistent cache.  The content-addressed
naming means a lost race is still benign - both writers hold an
identical payload for the key - but the lock keeps tmp-file churn and
non-atomic filesystems (NFS, some overlayfs) from dropping entries.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Iterator, Optional

try:  # POSIX only; Windows degrades to atomic-rename-with-retry.
    import fcntl
except ImportError:  # pragma: no cover - platform dependent
    fcntl = None  # type: ignore[assignment]

from repro import telemetry
from repro.experiment.serialize import RESULT_FORMAT, result_from_dict, \
    result_to_dict
from repro.experiment.spec import RunSpec
from repro.resilience import faults
from repro.sim.results import RunResult

#: Environment override for the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Publish attempts before a put degrades to non-persistent.
PUT_ATTEMPTS = 3

#: Backoff between publish attempts, doubled each retry.
_RETRY_DELAY = 0.01


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def payload_checksum(payload: object) -> str:
    """Checksum over the canonical (sorted, compact) payload JSON.

    ``json.dumps`` round-trips floats exactly (``repr``-based), so the
    checksum survives a write/parse cycle and only changes when the
    *values* change.
    """
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Content-addressed store of finished runs, verified on read."""

    def __init__(self, directory: Optional[Path] = None) -> None:
        self.directory = Path(directory) if directory \
            else default_cache_dir()
        #: Entries quarantined after failing verification (monotonic).
        self.integrity_failures = 0
        # Entries are immutable (content-addressed), so a key verified
        # once never needs re-hashing this process.
        self._verified: set = set()
        self._verified_lock = threading.Lock()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _quarantine(self, key: str) -> None:
        """Move a failed entry aside (never serve it, keep the evidence)."""
        path = self._path(key)
        target_dir = self.directory / "quarantine"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            path.replace(target_dir / path.name)
        except OSError:  # pragma: no cover - filesystem-dependent
            with contextlib.suppress(OSError):
                path.unlink()
        self.integrity_failures += 1

    def _read_verified(self, key: str) -> Optional[dict]:
        """Parse + checksum-verify an entry; quarantine on any failure.

        Returns the payload dict, or ``None`` for plain misses (no file,
        or an intact entry of another ``RESULT_FORMAT``) and quarantined
        entries - the caller recomputes either way.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            return None  # plain miss: nothing to quarantine
        try:
            body = json.loads(text)
            payload = body["payload"]
            stored = body["checksum"]
        except (ValueError, TypeError, KeyError):
            # Torn write, truncation, or a pre-integrity legacy entry
            # (no checksum): unverifiable either way.
            self._quarantine(key)
            return None
        if payload_checksum(payload) != stored:
            self._quarantine(key)
            return None
        if not isinstance(payload, dict) \
                or payload.get("format") != RESULT_FORMAT:
            # Intact, but written in another result format: a plain
            # miss.  It is neither present nor corrupt, so it is not
            # quarantined; the recomputed run overwrites it.
            return None
        with self._verified_lock:
            self._verified.add(key)
        return payload

    def get(self, key: str) -> Optional[RunResult]:
        """Cached result for a run key, or ``None`` on miss.

        Corrupt or unverifiable entries are quarantined and read as
        misses, so callers transparently recompute them.
        """
        with telemetry.span("cache.get", category="cache"):
            payload = self._read_verified(key)
            if payload is None:
                telemetry.counter(
                    "repro_cache_misses_total",
                    "Result-cache lookups that missed").inc()
                return None
            try:
                result = result_from_dict(payload)
            except (ValueError, AttributeError, TypeError, KeyError):
                # Checksum-valid but schema-drifted (an older writer):
                # not corruption, but still unusable - set it aside.
                self._quarantine(key)
                with self._verified_lock:
                    self._verified.discard(key)
                telemetry.counter(
                    "repro_cache_misses_total",
                    "Result-cache lookups that missed").inc()
                return None
            telemetry.counter(
                "repro_cache_hits_total",
                "Result-cache lookups served from disk").inc()
            return result

    def verify(self, key: str) -> bool:
        """Whether a verified entry exists for ``key`` (cheap when cached).

        Membership *must* verify, not just ``exists()``: a corrupt file
        that counts as present would satisfy admission-time store checks
        and strand its grid waiting on a result that can never be read.
        """
        with self._verified_lock:
            if key in self._verified:
                return True
        return self._read_verified(key) is not None

    @contextlib.contextmanager
    def _publish_lock(self) -> Iterator[None]:
        """Advisory exclusive lock over publishes into this directory.

        Serialises the tmp-write/rename pair across processes so
        concurrent workers cannot interleave on filesystems where
        ``os.replace`` is not atomic.  Platforms without ``fcntl`` (and
        lock-file I/O errors) fall back to the bare atomic rename.
        """
        if fcntl is None:
            yield
            return
        try:
            handle = open(self.directory / ".lock", "a")
        except OSError:
            yield
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()

    def put(self, key: str, spec: RunSpec, result: RunResult) -> None:
        """Store a finished run; failures degrade to a non-persistent cache.

        A full disk or unwritable directory must never lose the result the
        caller just spent a simulation computing.  Transient failures
        (e.g. a concurrent writer recreating the directory, NFS rename
        races) are retried :data:`PUT_ATTEMPTS` times with backoff under
        the directory's publish lock before giving up.
        """
        with telemetry.span("cache.put", category="cache"):
            self._put(key, spec, result)
        telemetry.counter("repro_cache_puts_total",
                          "Results published to the cache").inc()

    def _put(self, key: str, spec: RunSpec, result: RunResult) -> None:
        payload = result_to_dict(result)
        body = json.dumps({
            "key": key,
            "spec": spec.describe(),
            "checksum": payload_checksum(payload),
            "payload": payload,
        })
        for attempt in range(PUT_ATTEMPTS):
            tmp = None
            try:
                self.directory.mkdir(parents=True, exist_ok=True)
                with self._publish_lock():
                    fd, tmp = tempfile.mkstemp(dir=self.directory,
                                               suffix=".tmp")
                    with os.fdopen(fd, "w") as handle:
                        handle.write(body)
                    os.replace(tmp, self._path(key))
                if not faults.corrupt("cache.put", key, self._path(key)):
                    with self._verified_lock:
                        self._verified.add(key)
                return
            except OSError:
                if tmp is not None:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                if attempt + 1 < PUT_ATTEMPTS:
                    time.sleep(_RETRY_DELAY * (2 ** attempt))

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists() and self.verify(key)
