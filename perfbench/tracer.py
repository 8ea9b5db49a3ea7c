"""Spans and counters around guardopt's public functions, for the traced run.

Each public function is replaced at the module attribute its callers look it
up through, by a wrapper that records a span and delegates to the original.
The originals stay in place behind the wrappers, so `windowed_psd` keeps its
`lru_cache` and `cache_info()`. Functions called tens of thousands of times
per pass (`allocate_guards` under exhaustive search) get a counter only.

Spans are kept in memory as (name, start, end, parent, thread) and written out
by the caller when the run ends. A span's self time is its duration minus the
part of that interval its child spans cover; children may run on other
threads (`parallel_map` items), so the covered part is a union of intervals.
"""
from __future__ import annotations

import itertools
import os
import threading
import time
from collections import Counter, defaultdict
from functools import wraps

from guardopt import cli, optimizer, scheduler, spectrum


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, thread)
        self.counts: Counter = Counter()
        self.item_s = 0.0  # summed parallel_map item time
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _run(self, name, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, name, start, end, parent,
                                   threading.get_ident()))

    def spanned(self, name, fn, after=None, on_error=None):
        """Span-recording wrapper; `after(args, kwargs, result)` adds counts."""

        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = self._run(name, fn, args, kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        # vars(), not getattr(): a classmethod must go back as the descriptor
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        counts = self.counts

        def add(key, n):
            with self._lock:
                counts[key] += n

        self._patch(spectrum, "symbol_stream", self.spanned(
            "waveform.symbol_stream", spectrum.symbol_stream,
            lambda a, k, r: add("waveform.symbol_stream.samples", r.size)))
        self._patch(spectrum, "estimate_psd", self.spanned(
            "spectrum.estimate_psd", spectrum.estimate_psd,
            lambda a, k, r: add("spectrum.estimate_psd.bins", r.freqs.size)))
        psd = self.spanned("spectrum.windowed_psd", spectrum.windowed_psd)
        for owner in (spectrum, optimizer, cli):
            self._patch(owner, "windowed_psd", psd)

        def unreachable(exc):
            if isinstance(exc, spectrum.ThetaUnreachableError):
                add("spectrum.required_guard_band.unreachable", 1)

        self._patch(optimizer, "required_guard_band", self.spanned(
            "spectrum.required_guard_band", optimizer.required_guard_band,
            on_error=unreachable))
        self._patch(cli, "write_psd_csv", self.spanned(
            "spectrum.write_psd_csv", cli.write_psd_csv,
            lambda a, k, r: add("spectrum.write_psd_csv.bytes",
                                os.path.getsize(a[1]))))

        curve = self.spanned("optimizer.efficiency_curve",
                             optimizer.efficiency_curve)
        for owner in (optimizer, cli):
            self._patch(owner, "efficiency_curve", curve)
        self._patch(cli, "build_lookup_table", self.spanned(
            "optimizer.build_lookup_table", cli.build_lookup_table))
        self._patch(cli, "revalidate", self.spanned(
            "optimizer.revalidate", cli.revalidate))

        table = optimizer.LookupTable
        save = self.spanned(
            "optimizer.LookupTable.save_csv", table.save_csv,
            lambda a, k, r: add(
                "cli.lookup_cache.misses",
                int(os.path.basename(str(a[1])).startswith("lookup_"))))
        self._patch(table, "save_csv", save)
        load = self.spanned(
            "optimizer.LookupTable.load_csv", table.load_csv.__func__,
            lambda a, k, r: add("cli.lookup_cache.hits", 1))
        self._patch(table, "load_csv", classmethod(load))

        self._patch(optimizer, "parallel_map",
                    self._traced_map(optimizer.parallel_map, add))

        self._patch(scheduler, "compare_scenarios", self.spanned(
            "scheduler.compare_scenarios", scheduler.compare_scenarios))
        order = scheduler.schedule_interference_based

        def ordering(users, lookup, mode="exhaustive", theta_floor=0.0):
            return self._run(
                f"scheduler.schedule_interference_based.{mode}", order,
                (users, lookup, mode, theta_floor), {})

        self._patch(scheduler, "schedule_interference_based", ordering)
        self._patch(scheduler, "allocate_guards", self.counted(
            "scheduler.allocate_guards.calls", scheduler.allocate_guards))
        self._patch(cli, "main", self.spanned("cli.main", cli.main))

    def _traced_map(self, original, add):
        def traced_map(fn, items):
            items = list(items)
            add("parallel.parallel_map.items", len(items))
            map_stack = []  # the caller's stack plus this map's span id

            def item(x):
                # items may run on pool threads: parent their spans to this map
                saved = self._stack()
                self._local.stack = list(map_stack)
                start = time.perf_counter()
                try:
                    return fn(x)
                finally:
                    elapsed = time.perf_counter() - start
                    self._local.stack = saved
                    with self._lock:
                        self.item_s += elapsed

            def run():
                map_stack.extend(self._stack())
                return original(item, items)

            return self._run("parallel.parallel_map", run, (), {})

        return traced_map

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def layer_times(self) -> dict:
        """name -> (calls, busy_s, self_s) over the recorded spans."""
        children = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, start, end, _, _ in self.spans:
            covered = _union_length(children.get(sid, ()), start, end)
            agg = out[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - covered
        return {k: tuple(v) for k, v in out.items()}


def _union_length(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
