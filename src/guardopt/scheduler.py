# guardopt/scheduler.py
"""Interference-aware assignment of users to consecutive frequency bands.

Per-band thresholds follow theta_i = max over existing neighbors of
(neighbor SIR requirement + power offset toward that neighbor), with the
power offset PO = power(i) - power(neighbor) (positive = band i is the
stronger aggressor). Guards come from a prebuilt threshold -> allocation
lookup table, ceiling to the next tabulated threshold so a band is never
under-protected. The guard band at each internal boundary is shared: sized
by the larger of the two facing requirements, rounded up to whole
subcarriers, and counted once.

Scheduling cost is (total GB, total GD) lexicographic: guard carriers are
permanently lost spectrum, while guard duration is partially recovered by
the overlap-add.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerology import load_yaml
from .optimizer import GuardAllocation, LookupTable

USE_CASES = ("eMBB", "mMTC", "URLLC")


@dataclass(frozen=True)
class UserProfile:
    id: str
    power_dbm: float
    sir_req_db: float
    use_case: str
    obw_subcarriers: int

    def __post_init__(self):
        if not math.isfinite(self.power_dbm):
            raise ValueError(f"power_dbm must be finite, got {self.power_dbm}")
        if not (math.isfinite(self.sir_req_db) and self.sir_req_db > 0):
            raise ValueError(
                f"sir_req_db must be positive and finite, got {self.sir_req_db}"
            )
        if self.obw_subcarriers <= 0:
            raise ValueError("obw_subcarriers must be positive")
        if self.use_case not in USE_CASES:
            raise ValueError(f"use_case must be one of {USE_CASES}")


@dataclass(frozen=True)
class SchedulePlan:
    assignment: tuple[UserProfile, ...]
    theta_per_band: tuple[float, ...]
    guard_per_band: tuple[GuardAllocation, ...]
    boundary_gb: tuple[int, ...]  # whole subcarriers, one per internal boundary
    total_gd_samples: int
    total_gb_subcarriers: int

    @property
    def cost(self) -> tuple[int, int]:
        return (self.total_gb_subcarriers, self.total_gd_samples)


def theta_for_assignment(assignment, theta_floor: float = 0.0) -> list[float]:
    """Per-band interference thresholds from neighbor SIR demands and offsets.

    Edge bands take the max over their single neighbor; a lone user has no
    neighbor, so the configured floor is returned.
    """
    users = list(assignment)
    if not users:
        raise ValueError("assignment must not be empty")
    if len(users) == 1:
        return [theta_floor]
    thetas = []
    for i, u in enumerate(users):
        candidates = []
        for j in (i - 1, i + 1):
            if 0 <= j < len(users):
                nb = users[j]
                candidates.append(nb.sir_req_db + (u.power_dbm - nb.power_dbm))
        thetas.append(max(candidates))
    return thetas


def allocate_guards(
    assignment, lookup: LookupTable, theta_floor: float = 0.0
) -> SchedulePlan:
    """Adaptive per-band guards for a given band ordering."""
    users = tuple(assignment)
    return _guard_plan(users, theta_for_assignment(users, theta_floor), lookup)


def fixed_guard_plan(assignment, lookup: LookupTable) -> SchedulePlan:
    """Every band gets the worst-case guards: those of the table maximum."""
    users = tuple(assignment)
    return _guard_plan(users, [max(lookup.entries)] * len(users), lookup)


def _guard_plan(users: tuple, thetas, lookup: LookupTable) -> SchedulePlan:
    """Guards from per-band thresholds; each internal boundary is counted once,
    sized by the larger facing guard band in whole subcarriers."""
    allocs = []
    for u, theta in zip(users, thetas):
        try:
            allocs.append(lookup.ceil_lookup(theta))
        except KeyError as exc:
            raise ValueError(
                f"theta for user {u.id!r} out of lookup range: {exc}"
            ) from exc
    boundary = tuple(
        math.ceil(max(a.gb_subcarriers, b.gb_subcarriers) - 1e-9)
        for a, b in zip(allocs, allocs[1:])
    )
    return SchedulePlan(
        assignment=users,
        theta_per_band=tuple(thetas),
        guard_per_band=tuple(allocs),
        boundary_gb=boundary,
        total_gd_samples=sum(a.gd_samples for a in allocs),
        total_gb_subcarriers=sum(boundary),
    )


def schedule_random(users, seed: int) -> list[UserProfile]:
    """Seed-reproducible uniform permutation."""
    users = list(users)
    order = np.random.default_rng(seed).permutation(len(users))
    return [users[i] for i in order]


def schedule_interference_based(
    users,
    lookup: LookupTable,
    mode: str = "exhaustive",
    theta_floor: float = 0.0,
) -> list[UserProfile]:
    """Band ordering minimizing total guard cost.

    exhaustive: full permutation search, limited to n <= 10.
    heuristic: sort by power (SIR requirement as tie-break), then adjacent-swap
    passes until no swap improves the cost.
    """
    users = list(users)
    if len(users) <= 1:
        return users
    if mode == "exhaustive":
        if len(users) > 10:
            raise ValueError(
                "exhaustive search is limited to 10 users; use mode='heuristic'"
            )
        best, best_cost = None, None
        for perm in itertools.permutations(users):
            cost = allocate_guards(perm, lookup, theta_floor).cost
            if best_cost is None or cost < best_cost:
                best, best_cost = perm, cost
        return list(best)
    if mode == "heuristic":
        order = sorted(users, key=lambda u: (u.power_dbm, u.sir_req_db))
        improved = True
        while improved:
            improved = False
            cost = allocate_guards(order, lookup, theta_floor).cost
            for i in range(len(order) - 1):
                order[i], order[i + 1] = order[i + 1], order[i]
                trial = allocate_guards(order, lookup, theta_floor).cost
                if trial < cost:
                    cost = trial
                    improved = True
                else:
                    order[i], order[i + 1] = order[i + 1], order[i]
        return order
    raise ValueError("mode must be 'exhaustive' or 'heuristic'")


@dataclass(frozen=True)
class ScenarioRow:
    scenario: str
    plan: SchedulePlan
    gd_reduction_pct: float  # vs the previous row; 0 for the first
    gb_reduction_pct: float


def _reduction(prev: float, cur: float) -> float:
    return 100.0 * (prev - cur) / prev if prev else 0.0


def compare_scenarios(
    users,
    seed: int,
    lookup: LookupTable,
    mode: str = "exhaustive",
    theta_floor: float = 0.0,
) -> list[ScenarioRow]:
    """Fixed/random vs adaptive/random vs adaptive/interference-based guards."""
    random_order = schedule_random(users, seed)
    fixed = fixed_guard_plan(random_order, lookup)
    adaptive = allocate_guards(random_order, lookup, theta_floor)
    scheduled_order = schedule_interference_based(users, lookup, mode, theta_floor)
    scheduled = allocate_guards(scheduled_order, lookup, theta_floor)
    return [
        ScenarioRow("fixed_random", fixed, 0.0, 0.0),
        ScenarioRow(
            "adaptive_random",
            adaptive,
            _reduction(fixed.total_gd_samples, adaptive.total_gd_samples),
            _reduction(fixed.total_gb_subcarriers, adaptive.total_gb_subcarriers),
        ),
        ScenarioRow(
            "adaptive_scheduled",
            scheduled,
            _reduction(adaptive.total_gd_samples, scheduled.total_gd_samples),
            _reduction(adaptive.total_gb_subcarriers, scheduled.total_gb_subcarriers),
        ),
    ]


def load_users_yaml(path) -> list[UserProfile]:
    """User-set file: a `users:` list (or bare list) of per-user mappings.

    Errors name the file, the row (1-based) and the offending key.
    """
    raw = load_yaml(path)
    if isinstance(raw, dict):
        raw = raw.get("users")
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected a `users:` list of mappings")
    users, seen = [], set()
    for row, u in enumerate(raw, start=1):
        where = f"{path}: user {row}"
        try:
            user = UserProfile(
                id=str(u["id"]),
                power_dbm=float(u["power_dbm"]),
                sir_req_db=float(u["sir_req_db"]),
                use_case=str(u["use_case"]),
                obw_subcarriers=int(u["obw_subcarriers"]),
            )
        except KeyError as exc:
            raise ValueError(f"{where}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if user.id in seen:
            raise ValueError(f"{where}: duplicate id {user.id!r}")
        seen.add(user.id)
        users.append(user)
    return users


def write_layout_csv(plan: SchedulePlan, path) -> None:
    """Per-band layout: band_index, user_id, theta_db, gb_subcarriers, gd_samples."""
    with open(path, "w", newline="") as fh:
        fh.write("band_index,user_id,theta_db,gb_subcarriers,gd_samples\n")
        for i, (u, theta, a) in enumerate(
            zip(plan.assignment, plan.theta_per_band, plan.guard_per_band)
        ):
            fh.write(
                f"{i},{u.id},{theta:.6g},{a.gb_subcarriers:.6f},{a.gd_samples}\n"
            )


def write_comparison_csv(rows, path) -> None:
    """Scenario totals and stepwise reductions."""
    with open(path, "w", newline="") as fh:
        fh.write(
            "scenario,total_gd_samples,total_gb_subcarriers,"
            "gd_reduction_pct,gb_reduction_pct\n"
        )
        for r in rows:
            fh.write(
                f"{r.scenario},{r.plan.total_gd_samples},"
                f"{r.plan.total_gb_subcarriers},"
                f"{r.gd_reduction_pct:.4f},{r.gb_reduction_pct:.4f}\n"
            )
