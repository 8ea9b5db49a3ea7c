"""The names the benchmark in perfbench/ reaches guardopt through.

perfbench wraps guardopt's functions at their module attributes and looks
names up at call time, so a renamed or removed name would break it without
failing any other test. These tests import perfbench and change nothing in it.
"""
import importlib.util
from pathlib import Path

from guardopt import cli, optimizer, parallel, scheduler, spectrum

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    owners = (cli, optimizer, scheduler, spectrum, optimizer.LookupTable)
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load("tracer").Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert all(now[k] is v for k, v in saved.items()), owner


def test_traced_compare_scenarios_runs_in_each_mode():
    # the call schedule_search makes, through the wrappers the traced run
    # installs; they pass schedule_interference_based's arguments positionally
    entry = optimizer.GuardAllocation(0.01, 10, 2.5, 0.9, 0.9, 0.81, 45.0)
    lookup = optimizer.LookupTable({45.0: entry})
    users = [scheduler.UserProfile(f"u{i}", 5.0 * i, 15.0, "eMBB", 100)
             for i in range(3)]
    tracer = _load("tracer").Tracer()
    tracer.install()
    try:
        for mode in ("exhaustive", "heuristic"):
            rows = scheduler.compare_scenarios(users, 0, lookup, mode=mode)
            assert [r.scenario for r in rows] == [
                "fixed_random", "adaptive_random", "adaptive_scheduled"
            ]
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"scheduler.compare_scenarios",
            "scheduler.schedule_interference_based.exhaustive",
            "scheduler.schedule_interference_based.heuristic"} <= names
    assert tracer.counts["scheduler.allocate_guards.calls"] == 4


def test_names_the_runner_and_workloads_use():
    assert callable(spectrum.windowed_psd.cache_clear)
    assert callable(spectrum.windowed_psd.cache_info)
    assert callable(vars(cli)["build_lookup_table"])
    assert isinstance(vars(optimizer.LookupTable)["load_csv"], classmethod)
    for owner, names in (
        (cli, ["main"]),
        (optimizer, ["DEFAULT_ALPHA_GRID", "DEFAULT_THETA_LIST", "GuardAllocation",
                     "LookupTable", "spectral_efficiency"]),
        (scheduler, ["USE_CASES", "UserProfile", "allocate_guards",
                     "compare_scenarios", "schedule_interference_based"]),
        (parallel, ["parallel_map", "thread_count"]),
    ):
        missing = [n for n in names if n not in vars(owner)]
        assert not missing, (owner.__name__, missing)
    assert set(_load("workloads").WORKLOADS) == {
        "guards_default", "lookup_t2", "psd_export", "schedule_search"
    }


def test_workload_constants_match_guardopt():
    # workloads.py restates these to size its per-layer counts; a copy that
    # drifts from guardopt's would make those counts wrong without failing
    workloads = _load("workloads")
    for name in ("PSD_SYMBOLS", "OVERSAMPLE", "SEGMENT_SYMBOLS"):
        assert getattr(workloads, name) == getattr(spectrum, name), name
