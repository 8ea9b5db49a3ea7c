# guardopt/parallel.py
"""Order-preserving map with thread count capped by GUARDOPT_THREADS."""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count() -> int:
    env = os.environ.get("GUARDOPT_THREADS", "")
    try:
        return max(1, int(env)) if env else 1
    except ValueError:
        raise ValueError(f"GUARDOPT_THREADS must be an integer, got {env!r}") from None


def parallel_map(fn, items) -> list:
    items = list(items)
    n = thread_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
