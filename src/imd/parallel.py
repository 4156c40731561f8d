"""The IMD_THREADS thread cap.

The environment variable IMD_THREADS (a positive integer) caps the thread
count; unset it defaults to 1.  No computation in the package runs threads;
the benchmark worker records the value with each run.
"""

from __future__ import annotations

import os

__all__ = ["thread_count"]


def thread_count() -> int:
    raw = os.environ.get("IMD_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"IMD_THREADS must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"IMD_THREADS must be a positive integer, got {raw!r}")
    return n

