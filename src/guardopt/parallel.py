# guardopt/parallel.py
"""An in-order map on one thread: the guard search gains nothing from threads.
Both names stay only because perfbench wraps and reads them; they go with the
benchmark refresh (ROADMAP item 1)."""


def thread_count() -> int:
    return 1


def parallel_map(fn, items) -> list:
    return [fn(x) for x in items]
