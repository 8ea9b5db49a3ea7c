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

import math
from dataclasses import dataclass

import numpy as np

from .numerology import config_float, load_yaml, read_keys
from .optimizer import GuardAllocation, LookupTable

USE_CASES = ("eMBB", "mMTC", "URLLC")  # read by perfbench only
EXACT_LIMIT = 10  # largest user set the default search orders exactly


@dataclass(frozen=True)
class UserProfile:
    id: str
    power_dbm: float
    sir_req_db: float
    # read by no computation: a service reaches the guards only through
    # sir_req_db; kept as positional slots for callers that pass them
    use_case: str | None = None
    obw_subcarriers: int | None = None

    def __post_init__(self):
        # the id is written unquoted into the layout CSV
        if not self.id or any(c in self.id for c in ',"\r\n'):
            raise ValueError(
                f"id must be non-empty with no comma, quote, CR or LF, got {self.id!r}"
            )
        if not math.isfinite(self.power_dbm):
            raise ValueError(f"power_dbm must be finite, got {self.power_dbm}")
        if not (math.isfinite(self.sir_req_db) and self.sir_req_db > 0):
            raise ValueError(
                f"sir_req_db must be positive and finite, got {self.sir_req_db}"
            )


@dataclass(frozen=True)
class SchedulePlan:
    assignment: tuple[UserProfile, ...]
    theta_per_band: tuple[float, ...]
    guard_per_band: tuple[GuardAllocation, ...]
    total_gd_samples: int
    total_gb_subcarriers: int

    @property
    def cost(self) -> tuple[int, int]:
        return (self.total_gb_subcarriers, self.total_gd_samples)


def theta_for_assignment(assignment) -> list[float]:
    """Per-band interference thresholds from neighbor SIR demands and offsets.

    Edge bands take the max over their single neighbor; a lone user has no
    neighbor, so its threshold is 0 dB: the smallest table entry is its floor.
    """
    users = list(assignment)
    if not users:
        raise ValueError("assignment must not be empty")
    if len(users) == 1:
        return [0.0]
    thetas = []
    for i, u in enumerate(users):
        candidates = []
        for j in (i - 1, i + 1):
            if 0 <= j < len(users):
                nb = users[j]
                candidates.append(_theta_term(u.power_dbm, nb.power_dbm, nb.sir_req_db))
        thetas.append(max(candidates))
    return thetas


def _theta_term(power, nb_power, nb_sir):
    """Threshold a band of `power` needs toward a neighbor of `nb_power` and
    `nb_sir`: the neighbor's SIR demand plus PO. Floats or numpy arrays."""
    return nb_sir + (power - nb_power)


def allocate_guards(assignment, lookup: LookupTable) -> SchedulePlan:
    """Adaptive per-band guards for a given band ordering."""
    users = tuple(assignment)
    return _guard_plan(users, theta_for_assignment(users), lookup)


def fixed_guard_plan(assignment, lookup: LookupTable) -> SchedulePlan:
    """Every band gets the worst-case guards: those of the table maximum."""
    users = tuple(assignment)
    return _guard_plan(users, [lookup.max_theta] * len(users), lookup)


def _guard_plan(users: tuple, thetas, lookup: LookupTable) -> SchedulePlan:
    """Guards from per-band thresholds; each internal boundary is counted once,
    sized by the larger facing guard band in whole subcarriers."""
    allocs = [_ceil_allocation(lookup, u, theta) for u, theta in zip(users, thetas)]
    return SchedulePlan(
        assignment=users,
        theta_per_band=tuple(thetas),
        guard_per_band=tuple(allocs),
        total_gd_samples=sum(a.gd_samples for a in allocs),
        total_gb_subcarriers=sum(map(_boundary_gb, allocs, allocs[1:])),
    )


def _ceil_allocation(
    lookup: LookupTable, user: UserProfile, theta: float
) -> GuardAllocation:
    """Table entry protecting `user` at `theta`; out of range names the user."""
    try:
        return lookup.ceil_lookup(theta)
    except KeyError as exc:
        raise ValueError(
            f"theta for user {user.id!r} out of lookup range: {exc}"
        ) from exc


def _whole_gb(a: GuardAllocation) -> int:
    """A band's guard band in whole subcarriers."""
    return math.ceil(a.gb_subcarriers - 1e-9)


def _boundary_gb(a: GuardAllocation, b: GuardAllocation) -> int:
    """Guard band shared by two adjacent bands, in whole subcarriers: rounding
    up is monotone, so it is the larger of the two bands' whole GBs."""
    return max(_whole_gb(a), _whole_gb(b))


class _OrderingCost:
    """Band costs of orderings of one set of two or more users.

    Orderings are lists of user indices. A band costs two integers, its whole
    GB and its GD; a boundary costs the larger whole GB of its two bands.
    Each threshold term is computed once per user pair and the table is read
    once per distinct threshold, so no SchedulePlan is built per candidate;
    _run_cost over a whole ordering's bands equals
    `allocate_guards(ordering).cost`, errors included.
    """

    def __init__(self, users, lookup: LookupTable):
        self.users = users
        self.lookup = lookup
        power = np.array([u.power_dbm for u in users])
        sir = np.array([u.sir_req_db for u in users])
        # term[i][j]: threshold of band i toward neighbor j
        self.term = _theta_term(power[:, None], power, sir).tolist()
        self._pairs: dict[float, tuple[int, int]] = {}

    def guards(self, a: int, b: int, c: int) -> tuple[int, int]:
        """(whole GB, GD) of band b between a and c (a == c: a is its only
        neighbor)."""
        term = self.term[b]
        theta = term[c] if term[c] > term[a] else term[a]  # max(), but faster
        pair = self._pairs.get(theta)
        if pair is None:
            g = _ceil_allocation(self.lookup, self.users[b], theta)
            pair = self._pairs[theta] = (_whole_gb(g), g.gd_samples)
        return pair

    def bands(self, order, lo: int, hi: int) -> list[tuple[int, int]]:
        """(whole GB, GD) of bands lo .. hi-1 of `order`, read in index order;
        an edge band's only neighbor is mirrored."""
        last = len(order) - 1
        return [
            self.guards(order[k - 1] if k else order[1], order[k],
                        order[k + 1] if k < last else order[k - 1])
            for k in range(lo, hi)
        ]


def _run_cost(pairs) -> tuple[int, int]:
    """(GB of the boundaries between consecutive bands, GD of every band) of
    a run of band (whole GB, GD) pairs."""
    gb_a, total_gd = pairs[0]
    total_gb = 0
    for gb_b, gd_b in pairs[1:]:
        total_gb += gb_a if gb_a > gb_b else gb_b  # max(), but faster
        total_gd += gd_b
        gb_a = gb_b
    return total_gb, total_gd


def _swap_window(kernel: _OrderingCost, order, pairs, i: int):
    """Swap bands i and i+1 of `order` in place and cost the swap locally.

    `pairs` holds every band's (whole GB, GD) before the swap. Only bands
    i-1 .. i+2 change user or neighbor, so the swap changes the cost of bands
    i-2 .. i+3 and of the boundaries between them, and nothing else; costs
    are integers, so comparing the window's cost before and after decides as
    comparing whole orderings does. The changed bands are read in index order
    and every other band's threshold was read before, so a threshold beyond
    the table raises the error a full re-cost would, for the same user.

    Returns (before, after, lo, new): the window's cost before and after the
    swap, and the new pairs of bands lo, lo+1, ...
    """
    order[i], order[i + 1] = order[i + 1], order[i]
    lo, hi = max(i - 1, 0), min(i + 3, len(order))
    new = kernel.bands(order, lo, hi)
    left, right = pairs[max(lo - 1, 0):lo], pairs[hi:hi + 1]
    return (
        _run_cost(left + pairs[lo:hi] + right),
        _run_cost(left + new + right),
        lo,
        new,
    )


def _swap_order(kernel: _OrderingCost, order: list[int]) -> list[int]:
    """Adjacent-swap passes over `order` until no swap lowers the cost."""
    pairs = kernel.bands(order, 0, len(order))
    improved = True
    while improved:
        improved = False
        for i in range(len(order) - 1):
            before, after, lo, new = _swap_window(kernel, order, pairs, i)
            if after < before:
                pairs[lo:lo + len(new)] = new
                improved = True
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
    return order


def _exact_order(kernel: _OrderingCost) -> list[int]:
    """First minimum-cost ordering in `itertools.permutations` order.

    Held-Karp DP: band b's guards depend on its two neighbors and the a|b
    boundary on the whole GBs of a and b, so the cost of everything from band
    b on depends only on (placed set, a, b, whole GB of a). Costs add as
    (GB, GD) pairs. Each state keeps its least cost with the smallest next
    user reaching it, and the ordering is read off the states from the front:
    the lexicographically first optimal index sequence, which is the
    permutation search's answer.

    Prefixes are searched in permutation order and each band's guards are
    read when first needed: when the next band is placed, or at the full set
    for the last band, the order `allocate_guards` reads them in. A state's
    subtree reads the same bands whatever a's GB, and a memoised one was
    searched without error, so a threshold beyond the table raises the
    permutation search's error for the same user and theta.
    """
    n, guards = len(kernel.users), kernel.guards
    full = (1 << n) - 1
    # (mask, a, b, whole GB of a) -> (least cost of b's GD, the a|b boundary
    # and every band after b; next user; whole GB of next)
    memo: dict[tuple, tuple] = {}

    def togo(mask, a, b, ga):
        key = (mask, a, b, ga)
        best = memo.get(key)
        if best is None:
            if mask == full:
                gb, gd = guards(a, b, a)
                best = ((max(ga, gb), gd), None, None)
            else:
                steps = []
                for c in range(n):
                    if not mask >> c & 1:
                        gb, gd = guards(a, b, c)
                        (gb_rest, gd_rest), _, _ = togo(mask | 1 << c, b, c, gb)
                        boundary = gb if gb > ga else ga
                        steps.append(((gb_rest + boundary, gd_rest + gd), c, gb))
                best = min(steps)  # cost first, ties to the smallest c
            memo[key] = best
        return best

    def start(a, b):
        ga, gda = guards(b, a, b)
        (gb_rest, gd_rest), _, _ = togo(1 << a | 1 << b, a, b, ga)
        return (gb_rest, gd_rest + gda), a, b, ga

    # cost first, ties to the smallest (a, b)
    _, a, b, ga = min(start(a, b) for a in range(n) for b in range(n) if a != b)
    order, mask = [a, b], 1 << a | 1 << b
    while mask != full:
        _, c, gc = memo[mask, a, b, ga]
        order.append(c)
        mask, a, b, ga = mask | 1 << c, b, c, gc
    return order


def schedule_random(users, seed: int) -> list[UserProfile]:
    """Seed-reproducible uniform permutation."""
    users = list(users)
    order = np.random.default_rng(seed).permutation(len(users))
    return [users[i] for i in order]


def schedule_interference_based(
    users,
    lookup: LookupTable,
    mode: str | None = None,
    theta_floor: float = 0.0,
) -> list[UserProfile]:
    """Band ordering minimizing total guard cost.

    The set size picks the search: the exact Held-Karp DP for at most
    EXACT_LIMIT users, the heuristic above. `mode` forces one, for
    comparisons: "exhaustive" (an error above EXACT_LIMIT) or "heuristic".
    exhaustive: among equal-cost orderings it returns the first in input
    order, as a search over `itertools.permutations(users)` would.
    heuristic: sort by power (SIR requirement as tie-break), then adjacent-swap
    passes until no swap improves the cost, each swap costed over the six
    bands it can change (`_swap_window`).
    A threshold above the table maximum raises ValueError naming the user;
    exhaustive mode raises the error of the first ordering, in input order,
    that leaves the table, as the permutation search would.
    theta_floor is ignored: no ordering depends on it. It stays only because
    perfbench/tracer.py passes it positionally, until the next benchmark
    change removes it there.
    """
    users = list(users)
    if len(users) <= 1:
        return users
    kernel = _OrderingCost(users, lookup)
    if mode is None:
        mode = "exhaustive" if len(users) <= EXACT_LIMIT else "heuristic"
    if mode == "exhaustive":
        if len(users) > EXACT_LIMIT:
            raise ValueError(
                f"exhaustive search is limited to {EXACT_LIMIT} users; "
                "use mode='heuristic'"
            )
        return [users[i] for i in _exact_order(kernel)]
    if mode == "heuristic":
        order = sorted(
            range(len(users)),
            key=lambda i: (users[i].power_dbm, users[i].sir_req_db),
        )
        return [users[i] for i in _swap_order(kernel, order)]
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
    users, seed: int, lookup: LookupTable, mode: str | None = None
) -> list[ScenarioRow]:
    """Fixed/random vs adaptive/random vs adaptive/interference-based guards;
    `mode` as in schedule_interference_based."""
    random_order = schedule_random(users, seed)
    fixed = fixed_guard_plan(random_order, lookup)
    adaptive = allocate_guards(random_order, lookup)
    scheduled_order = schedule_interference_based(users, lookup, mode)
    scheduled = allocate_guards(scheduled_order, lookup)
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
    """User-set file: a `users:` list (its only key) or a bare list of users.

    Errors name the file, the row (1-based) and the offending key.
    """
    raw = load_yaml(path)
    if isinstance(raw, dict):
        try:
            raw = read_keys(raw, {"users": lambda rows: rows}, "user-file").get("users")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: expected a non-empty `users:` list of mappings")
    users, seen = [], set()
    for row, u in enumerate(raw, start=1):
        where = f"{path}: user {row}"
        try:
            values = read_keys(u, _USER_READERS, "user")
            user = UserProfile(*(values[key] for key in _USER_READERS))
        except KeyError as exc:
            raise ValueError(f"{where}: missing key {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if user.id in seen:
            raise ValueError(f"{where}: duplicate id {user.id!r}")
        seen.add(user.id)
        users.append(user)
    return users


def _user_id(value) -> str:
    """An id as written, a string or an integer; null or true is rejected."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"expected a string or an integer, got {value!r}")
    return str(value)


# every key a user row holds, in UserProfile order; any other key is rejected
_USER_READERS = {"id": _user_id, "power_dbm": config_float, "sir_req_db": config_float}


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
