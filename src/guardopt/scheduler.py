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
import numbers
from dataclasses import dataclass

import numpy as np

from .numerology import config_float, load_yaml, read_keys, write_csv
from .optimizer import GuardAllocation, LookupTable, grid_text

USE_CASES = ("eMBB", "mMTC", "URLLC")  # read by perfbench only
EXACT_LIMIT = 10  # largest user set the default search orders exactly
RANDOM_DRAWS = 1000  # seeded orderings compare_scenarios tries for its baseline


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
        power, sir = self.power_dbm, self.sir_req_db
        # true is not 1 dBm; a string or None fails here, naming the field.
        # float and int come first: they pass without the slower ABC test.
        for field, value in (("power_dbm", power), ("sir_req_db", sir)):
            if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
                raise ValueError(f"{field} must be a real number, got {value!r}")
        if not math.isfinite(power):
            raise ValueError(f"power_dbm must be finite, got {power}")
        if not (math.isfinite(sir) and sir > 0):
            raise ValueError(f"sir_req_db must be positive and finite, got {sir}")


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
    # an edge band's only neighbor is mirrored, as in _OrderingCost.bands
    nbs = [users[1], *users, users[-2]]
    return [max(_theta_term(u.power_dbm, a.power_dbm, a.sir_req_db),
                _theta_term(u.power_dbm, c.power_dbm, c.sir_req_db))
            for a, u, c in zip(nbs, users, nbs[2:])]


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
    sized by the larger facing guard band in whole subcarriers. A band above
    the table raises ValueError naming its user."""
    if not users:
        raise ValueError("assignment must not be empty")
    index = lookup.ceil_index(thetas).tolist()
    for user, theta, k in zip(users, thetas, index):
        if k == len(lookup.allocations):
            raise ValueError(
                f"theta for user {user.id!r} out of lookup range: "
                f"theta={grid_text(theta)} dB exceeds the lookup table maximum "
                f"({grid_text(lookup.max_theta)} dB)"
            )
    allocs = [lookup.allocations[k] for k in index]
    total_gb, total_gd = _run_cost([lookup.levels[k] for k in index])
    return SchedulePlan(
        assignment=users,
        theta_per_band=tuple(thetas),
        guard_per_band=tuple(allocs),
        total_gd_samples=total_gd,
        total_gb_subcarriers=total_gb,
    )


class _OrderingCost:
    """Band costs of orderings of one set of two or more users.

    Orderings are lists of user indices. A band costs (whole GB, GD); a
    boundary costs the larger whole GB of its two bands. index[b][j] is the
    table entry of band b's threshold toward neighbor j, read once per set by
    one LookupTable.ceil_index; levels[k] is entry k's cost. The read is
    monotone, so band b between a and c costs levels[max(index[b][a],
    index[b][c])]: the entry of its larger threshold.
    A threshold above the table reads the last level, (off, 0), with off =
    n x the table's largest whole GB + 1: more than the n - 1 boundaries of
    any on-table ordering add up to, so an ordering's GB reaches off exactly
    when one of its bands is off the table.
    """

    def __init__(self, users, lookup: LookupTable):
        power = np.array([u.power_dbm for u in users])
        sir = np.array([u.sir_req_db for u in users])
        self.index = lookup.ceil_index(_theta_term(power[:, None], power, sir)).tolist()
        levels = lookup.levels
        # an empty table puts every band off it
        self.off = len(users) * max(levels, default=(0, 0))[0] + 1
        self.levels = levels + [(self.off, 0)]

    def bands(self, order, lo: int, hi: int) -> list[tuple[int, int]]:
        """(whole GB, GD) of bands lo .. hi-1 of `order`; an edge band's only
        neighbor is mirrored."""
        index, levels, last = self.index, self.levels, len(order) - 1
        out = []
        for k in range(lo, hi):
            row = index[order[k]]
            i = row[order[k - 1] if k else order[1]]
            j = row[order[k + 1] if k < last else order[k - 1]]
            out.append(levels[j if j > i else i])
        return out


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


def _swap_order(kernel: _OrderingCost, order: list[int]) -> tuple[list[int], bool]:
    """Adjacent-swap passes over `order` until no swap lowers the cost; the
    ordering, and whether its bands are all on the table.

    Swapping positions i and i+1 gives bands i-1 .. i+2 new neighbors, so a
    trial costs only the six bands i-2 .. i+3 and their five boundaries;
    costs are integers, so the window decides as whole orderings do. Each
    position keeps its band's whole GB and GD. An interior swap (2 <= i <=
    n-4) reads no mirrored neighbor that moves, so it is costed from the four
    new table levels, two `kernel.index` reads each: the five boundary GBs
    first, then the four GDs on a tie. The four edge swaps are costed as
    windows, `kernel.bands` then `_run_cost`.
    A trial of swap i reads positions i-3 .. i+4 only, so a rejected swap is
    tried again only once an accepted swap has moved one of them: the swaps
    accepted are those of passes that try every swap.
    """
    n = len(order)
    index, levels = kernel.index, kernel.levels
    pairs = kernel.bands(order, 0, n)
    retry = [True] * (n - 1)  # swap i may give a new answer
    while any(retry):
        for i in range(n - 1):
            if not retry[i]:
                continue
            if 2 <= i <= n - 4:
                # a b u v c d becomes a b v u c d: b, v, u and c take new
                # levels, each that of its larger threshold
                a, b, u, v, c, d = order[i - 2:i + 4]
                row = index[b]
                x, y = row[a], row[v]
                l1 = levels[x if x > y else y]  # max(), but faster
                row = index[v]
                x, y = row[b], row[u]
                l2 = levels[x if x > y else y]
                row = index[u]
                x, y = row[v], row[c]
                l3 = levels[x if x > y else y]
                row = index[c]
                x, y = row[u], row[d]
                l4 = levels[x if x > y else y]
                p0, p1, p2, p3, p4, p5 = pairs[i - 2:i + 4]
                g0, o1, o2, o3, o4, g5 = p0[0], p1[0], p2[0], p3[0], p4[0], p5[0]
                g1, g2, g3, g4 = l1[0], l2[0], l3[0], l4[0]
                new_gb = ((g0 if g0 > g1 else g1) + (g1 if g1 > g2 else g2)
                          + (g2 if g2 > g3 else g3) + (g3 if g3 > g4 else g4)
                          + (g4 if g4 > g5 else g5))
                old_gb = ((g0 if g0 > o1 else o1) + (o1 if o1 > o2 else o2)
                          + (o2 if o2 > o3 else o3) + (o3 if o3 > o4 else o4)
                          + (o4 if o4 > g5 else g5))
                better = new_gb < old_gb or new_gb == old_gb and (
                    l1[1] + l2[1] + l3[1] + l4[1] < p1[1] + p2[1] + p3[1] + p4[1])
                if better:
                    order[i], order[i + 1] = v, u
                    pairs[i - 1:i + 3] = l1, l2, l3, l4
            else:
                order[i], order[i + 1] = order[i + 1], order[i]
                lo, hi = max(i - 2, 0), min(i + 4, n)
                new = kernel.bands(order, lo, hi)
                better = _run_cost(new) < _run_cost(pairs[lo:hi])
                if better:
                    pairs[lo:hi] = new
                else:
                    order[i], order[i + 1] = order[i + 1], order[i]
            if better:
                # positions i and i+1 moved: trials i-4 .. i+4 read them
                for j in range(max(i - 4, 0), min(i + 5, n - 1)):
                    retry[j] = True
            else:
                retry[i] = False
    return order, max(pairs)[0] < kernel.off


def _exact_order(kernel: _OrderingCost) -> tuple[list[int], bool]:
    """First minimum-cost ordering in `itertools.permutations` order, and
    whether its bands are all on the table.

    Held-Karp DP: band b's guards depend on its two neighbors and the a|b
    boundary on the whole GBs of a and b, so the cost of everything from band
    b on depends only on the state (placed set, a, b, whole GB of a). A
    forward pass builds the reachable states layer by layer, as numpy arrays
    with one entry per state: a state's edges are its free users c in
    ascending order, and `np.unique` merges their children (placed set + c,
    b, c, whole GB of b) into the next layer. A backward pass costs the
    layers from the last, in integers GB x m + GD that compare as the
    (GB, GD) pairs do, and each state keeps its first least edge: the
    smallest c. The ordering read off the states from the front is the
    lexicographically first optimal index sequence, the permutation search's
    answer.
    """
    n = len(kernel.index)
    index = np.array(kernel.index)
    gb_of, gd_of = np.array(kernel.levels).T
    # a state holds its a's whole GB as a rank among the distinct whole GBs
    whole, rank_of = np.unique(gb_of, return_inverse=True)
    # more than any ordering's total GD; a total cost stays below
    # n^3 x (largest GB + 1) x (largest GD + 1), far inside int64
    m = n * int(gd_of.max()) + 1
    # layer 2: every ordered pair (a, b), in ascending (a, b)
    a, b = np.nonzero(~np.eye(n, dtype=bool))
    mask, ga = 1 << a | 1 << b, rank_of[index[a, b]]
    start_gd = gd_of[index[a, b]]  # b is a's only neighbor
    first, second = a, b
    # per later layer: each state's last user b; each edge's cost and child
    lasts, layers = [], []
    for placed in range(2, n):
        _, c = np.nonzero(mask[:, None] >> np.arange(n) & 1 == 0)
        c = c.reshape(len(mask), n - placed)
        level = np.maximum(index[b, a][:, None], index[b[:, None], c])
        cost = np.maximum(whole[ga][:, None], gb_of[level]) * m + gd_of[level]
        keys = (((mask[:, None] | 1 << c) * n + b[:, None]) * n + c) * len(whole)
        keys, child = np.unique((keys + rank_of[level]).ravel(), return_inverse=True)
        layers.append((cost, child.reshape(cost.shape)))
        keys, ga = np.divmod(keys, len(whole))
        keys, b = np.divmod(keys, n)
        mask, a = np.divmod(keys, n)
        lasts.append(b)
    # the last band's only neighbor is a
    level = index[b, a]
    total = np.maximum(whole[ga], gb_of[level]) * m + gd_of[level]
    picks = []
    for cost, child in reversed(layers):
        through = cost + total[child]
        pick = through.argmin(axis=1)  # the first least edge: the smallest c
        rows = np.arange(len(pick))
        total = through[rows, pick]
        picks.append(child[rows, pick])
    total += start_gd
    state = int(total.argmin())  # the first least start: the smallest (a, b)
    on_table = int(total[state]) // m < kernel.off
    order = [int(first[state]), int(second[state])]
    for pick, last in zip(reversed(picks), lasts):
        state = pick[state]
        order.append(int(last[state]))
    return order, on_table


def schedule_random(users, seed: int | np.random.Generator) -> list[UserProfile]:
    """Seed-reproducible uniform permutation; a Generator seed is advanced."""
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
    exhaustive: the DP's states are evaluated layer by layer in numpy, a
    forward pass over each number of users placed, then a backward pass
    (`_exact_order`); among equal-cost orderings it returns the first in
    input order, as a search over `itertools.permutations(users)` would.
    heuristic: sort by power (SIR requirement as tie-break), then adjacent-swap
    passes until no swap improves the cost (`_swap_order`). A swap is costed
    over the six bands around it and their five boundaries: an interior swap
    from the four bands whose table levels it changes, a swap within two
    positions of an end as a window of mirrored-neighbor bands. A rejected
    swap is retried only once a position it reads has moved. Both read the
    table once per set (`_OrderingCost`), where an ordering with a band above
    the table costs more than any without one: exhaustive mode fails only if
    every ordering has such a band, heuristic mode if its passes end with
    one. The error is allocate_guards', naming the user. Any other mode is
    an error, whatever the set size.
    theta_floor is ignored: no ordering depends on it. It stays only because
    perfbench/tracer.py passes it positionally, until the next benchmark
    change removes it there.
    """
    users = list(users)
    if mode is None:
        mode = "exhaustive" if len(users) <= EXACT_LIMIT else "heuristic"
    if mode not in ("exhaustive", "heuristic"):
        raise ValueError("mode must be 'exhaustive' or 'heuristic'")
    if len(users) <= 1:
        return users
    kernel = _OrderingCost(users, lookup)
    if mode == "exhaustive":
        if len(users) > EXACT_LIMIT:
            raise ValueError(
                f"exhaustive search is limited to {EXACT_LIMIT} users; "
                "use mode='heuristic'"
            )
        order, on_table = _exact_order(kernel)
    else:
        order = sorted(
            range(len(users)),
            key=lambda i: (users[i].power_dbm, users[i].sir_req_db),
        )
        order, on_table = _swap_order(kernel, order)
    ordering = [users[i] for i in order]
    if not on_table:
        allocate_guards(ordering, lookup)  # raises for its first band off the table
    return ordering


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
    `mode` as in schedule_interference_based.

    The random order is the first of up to RANDOM_DRAWS permutations drawn
    from the seed (the first is `schedule_random(users, seed)`) whose bands
    are all on the table. The scheduled search runs first, so a set with no
    such ordering fails with the search's error; if every draw leaves the
    table, the last draw's error is raised.
    """
    users = list(users)
    scheduled_order = schedule_interference_based(users, lookup, mode)
    scheduled = allocate_guards(scheduled_order, lookup)
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_DRAWS):
        try:
            adaptive = allocate_guards(schedule_random(users, rng), lookup)
            break
        except ValueError as exc:
            error = exc
    else:
        raise error
    fixed = fixed_guard_plan(adaptive.assignment, lookup)
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
    bands = zip(plan.assignment, plan.theta_per_band, plan.guard_per_band)
    write_csv(path, "band_index,user_id,theta_db,gb_subcarriers,gd_samples", (
        f"{i},{u.id},{grid_text(theta)},{a.gb_subcarriers:.6f},{a.gd_samples}\n"
        for i, (u, theta, a) in enumerate(bands)
    ))


def write_comparison_csv(rows, path) -> None:
    """Scenario totals and stepwise reductions."""
    header = ("scenario,total_gd_samples,total_gb_subcarriers,"
              "gd_reduction_pct,gb_reduction_pct")
    write_csv(path, header, (
        f"{r.scenario},{r.plan.total_gd_samples},"
        f"{r.plan.total_gb_subcarriers},"
        f"{r.gd_reduction_pct:.4f},{r.gb_reduction_pct:.4f}\n"
        for r in rows
    ))
