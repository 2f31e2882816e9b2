"""Small filesystem helpers shared by the service's durable state.

Everything the service persists - jobs, grid records - goes through
``atomic_write_json`` so a crash mid-write can never leave a torn file:
readers either see the previous version or the new one.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional


def atomic_write_json(path: Path, payload: Any) -> None:
    """Write ``payload`` as JSON via tmp-file + atomic rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # ``dumps`` takes the C encoder; ``dump`` streams through the
            # pure-Python one, whose closures leave cycles per call.
            handle.write(json.dumps(payload))
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_json(path: Path) -> Optional[Any]:
    """Parse a JSON file; unreadable or malformed reads as ``None``."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None
