"""Structured event logging: the library's replacement for ``print``.

Library code under ``src/repro/`` must not write bare ``print()``
(enforced by the ``no-print`` rule in ``tools/repro_lint.py``); it
emits structured events here instead.  Events are single JSON lines —
``{"event": ..., "ts": ..., **fields}`` — written to a configurable
sink (stderr by default), so a serving process's diagnostics are
machine-parseable alongside its trace JSONL.

CLI user-facing output is exempt by design: the CLI's output *is* its
product surface, and its helpers carry an explicit lint pragma.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Callable

__all__ = ["configure_logging", "log_event"]

_LOCK = threading.Lock()
_SINK: Callable[[str], None] | None = None
_CLOCK: Callable[[], float] = time.time


def configure_logging(
    sink: Callable[[str], None] | None,
    clock: Callable[[], float] | None = None,
) -> None:
    """Redirect events to ``sink`` (None restores stderr); ``clock``
    parameterizes the ``ts`` field for deterministic tests."""
    global _SINK, _CLOCK
    with _LOCK:
        _SINK = sink
        if clock is not None:
            _CLOCK = clock


def log_event(event: str, **fields: Any) -> None:
    """Emit one structured event as a JSON line."""
    line = json.dumps(
        {"event": event, "ts": _CLOCK(), **fields},
        default=str,
        sort_keys=True,
    )
    sink = _SINK
    with _LOCK:
        if sink is not None:
            try:
                sink(line)
            # repro-lint: allow[broad-swallow] -- a broken log sink must never fail the caller
            except Exception:
                return
        else:
            # repro-lint: allow[no-print] -- the default structured-log sink is stderr
            print(line, file=sys.stderr, flush=True)
