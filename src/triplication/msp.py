"""Finite-domain constraint problems over triplication tables.

:func:`compile_instance` turns a table into one constraint problem over
``Z_3``, the same for every discrimination scenario.  The unknown at
component position ``j`` is the lift index ``k_j`` in ``{0, 1, 2}`` of the
table entry ``c_j``: the sought starter holds ``x_j = c_j + k_j*m`` there.
Each constraint group compares elements of ``Z_{3m}`` that share one residue
mod ``m``, so they are distinct exactly when their lift indices are:

* a row difference has lift index ``(k_a - k_b - delta_i) mod 3``;
* a weak sum has lift index ``(k_a + k_b + sigma_i) mod 3``;
* a colour entry is ``k_a`` itself;

where ``delta`` and ``sigma`` are the table's carries.  A zero-forbidding
group excludes lift index 0, which is the element 0.  A scenario is an
encode/decode map at the boundary: it fixes the order in which the search
tries the lifts, and :func:`solve` decodes each solution into the
scenario's discriminators ``f(c_j + k_j*m)``.

:func:`solve` runs chronological backtracking with forward checking.
``unsat`` is reported only after the search space is exhausted; running out
of budget is a distinct ``aborted`` outcome.

The search kernel is table-driven: every term reads its lift index from a
shared 3x3 lookup table, the depth-first search runs on an explicit stack
rather than by recursion, and the unassigned variables are kept in one
bitset per remaining domain size, so picking the next variable needs no
scan.  None of this changes the search order (fewest candidates first,
lowest id on ties), so node and backtrack counts are those of a plain
recursive search.

Variable numbering: position ``<i, l>`` of the table (pair ``i``, component
``l``) is variable ``2*i + l``, so ``U_i`` is even and ``V_i`` odd.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BudgetExceeded, InvalidInput, ScenarioMismatch
from .pairings import _int, _int_pairs
from .tables import TriplicationTable, validate

if TYPE_CHECKING:
    from .scenarios import Scenario

__all__ = [
    "CongruityReport",
    "CongruousTable",
    "ConstraintGroup",
    "MspInstance",
    "SolveOutcome",
    "SolveStats",
    "check_congruous",
    "compile_instance",
    "random_tt",
    "solution_from_json",
    "solution_to_json",
    "solve",
]

#: A colour term's value is its lift index.
_LIFT = (0, 1, 2)
#: Lift index of a pair term, ``tab[3*k_a + k_b]``: ``_DIFF[delta]`` for a
#: row difference, ``_SUM[sigma]`` for a weak sum.
_DIFF = tuple(tuple((a - b - c) % 3 for a in _LIFT for b in _LIFT) for c in (0, 1))
_SUM = tuple(tuple((a + b + c) % 3 for a in _LIFT for b in _LIFT) for c in (0, 1))


@dataclass(frozen=True)
class ConstraintGroup:
    """Terms over lift indices, pairwise distinct; if ``forbid_zero``, also
    nonzero.

    A term is ``(a, b, tab)``.  A pair term (``b >= 0``) has the value
    ``tab[3*k_a + k_b]``; a colour term (``b == -1``) has ``tab[k_a]``.
    """

    label: str
    terms: tuple[tuple[int, int, tuple[int, ...]], ...]
    forbid_zero: bool


@dataclass(frozen=True)
class MspInstance:
    """A table compiled over lift indices: unknown ``j`` stands for
    ``residues[j] + k*m``."""

    scenario: Scenario
    residues: tuple[int, ...]
    groups: tuple[ConstraintGroup, ...]

    @property
    def n_vars(self) -> int:
        return len(self.residues)

    @property
    def n_pairs(self) -> int:
        return len(self.residues) // 2


@dataclass(frozen=True)
class CongruousTable:
    """A candidate (or verified) solution table, aligned index-by-index with
    its source triplication table."""

    kind: str
    r: int
    values: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SolveStats:
    nodes: int
    backtracks: int
    elapsed: float


@dataclass(frozen=True)
class SolveOutcome:
    """``status`` is ``"solution"``, ``"unsat"`` (search exhausted, nothing
    found), or ``"aborted"`` (budget hit; ``tables``/``count`` are partial)."""

    status: str
    tables: tuple[CongruousTable, ...]
    count: int
    stats: SolveStats


def compile_instance(tt: TriplicationTable, sc) -> MspInstance:
    """Compile ``tt`` into a 3-valued instance over lift indices.

    Three lifts per position realize the range and consistency constraints
    structurally; the remaining constraints are emitted as distinctness
    groups.  The instance is the same for every scenario but for its value
    order and the decoding of its solutions.
    """
    if sc.m != tt.m:
        raise ScenarioMismatch(f"scenario modulus {sc.m} != table order {tt.m}")
    carries = tt.carry_tables
    rows = [(2 * i, 2 * i + 1, _DIFF[d]) for i, d in enumerate(carries.delta)]
    sums = [(2 * i, 2 * i + 1, _SUM[s]) for i, s in enumerate(carries.sigma)]

    groups: list[ConstraintGroup] = [ConstraintGroup("row0", (rows[0],), True)]
    for d in range(1, tt.q + 1):
        groups.append(
            ConstraintGroup(f"row{d}", tuple(rows[3 * d - 2 : 3 * d + 1]), False)
        )
    for s, idx in tt.weak_sets.by_sum.items():
        groups.append(
            ConstraintGroup(f"weak{s}", tuple(sums[i] for i in idx), s == 0)
        )
    for c, positions in tt.monochrome_sets.items():
        groups.append(
            ConstraintGroup(
                f"color{c}",
                tuple((2 * i + l, -1, _LIFT) for i, l in positions),
                c == 0,
            )
        )
    return MspInstance(
        scenario=sc,
        residues=tuple(c for pair in tt.pairs for c in pair),
        groups=tuple(groups),
    )


_POPCOUNT = (0, 1, 1, 2, 1, 2, 2, 3)


class _Search:
    """Backtracking with forward checking over lift-index domains.

    Variable order: fewest remaining candidates first, ties broken by lowest
    variable id.  Value order: the scenario's ``lift_order``, or a
    per-variable seeded shuffle of it when sampling.  Deterministic for a
    fixed seed.

    The kernel reads the instance's terms as they are: a colour term is
    ``(v, -1, tab)`` with ``tab[k_v]`` its value and a pair term is
    ``(2i, 2i+1, tab)`` with ``tab[3*k_a + k_b]`` its value, all in ``Z_3``.
    A group's values seen so far are a 3-bit mask, and a zero-forbidding
    group starts with bit 0 set.  The search runs on an explicit stack of
    ``[var, next value index, trail mark]`` frames, so its depth is not
    bounded by the interpreter's recursion limit.  ``buckets[k]`` is a
    bitset of the unassigned variables with ``k`` candidates left, kept
    current on every assign, prune and restore, so selection is the lowest
    set bit of the first non-empty bucket.

    Forward checking prunes only against values of assigned variables, so
    its result does not depend on the order in which groups are visited.
    The nodes expanded therefore depend only on the variable and value
    order above, which the tables, the stack and the buckets leave as they
    are.
    """

    def __init__(self, inst: MspInstance, seed=None):
        nv = inst.n_vars
        self.assign = [-1] * nv
        self.domain = [0b111] * nv
        groups: list[list[tuple]] = [[] for _ in range(nv)]
        for g in inst.groups:
            group = (g.terms, int(g.forbid_zero))
            for a, b, _ in g.terms:
                groups[a].append(group)
                if b >= 0:
                    groups[b].append(group)
                elif g.forbid_zero:
                    # A zero-forbidding colour entry never takes lift 0.
                    self.domain[a] &= 0b110
        self.var_groups = [tuple(gs) for gs in groups]
        order = inst.scenario.lift_order
        if seed is None:
            self.value_order = [order] * nv
        else:
            rng = random.Random(seed)
            self.value_order = [
                tuple(order[s] for s in rng.sample((0, 1, 2), 3)) for _ in range(nv)
            ]
        self.trail: list[tuple[int, int]] = []
        self.nodes = 0
        self.backtracks = 0
        self.buckets = [0, 0, 0, 0]
        for v in range(nv):
            self.buckets[_POPCOUNT[self.domain[v]]] |= 1 << v

    def _propagate(self, var: int) -> bool:
        assign, domain, trail, buckets = (
            self.assign, self.domain, self.trail, self.buckets
        )
        for terms, seen in self.var_groups[var]:
            # (unassigned variable, tab, offset, stride): its value under
            # lift ``k`` is ``tab[offset + stride*k]``.
            pending = []
            for a, b, tab in terms:
                sa = assign[a]
                if b < 0:
                    if sa < 0:
                        pending.append((a, tab, 0, 1))
                        continue
                    w = tab[sa]
                else:
                    sb = assign[b]
                    if sa < 0:
                        if sb >= 0:
                            pending.append((a, tab, sb, 3))
                        continue
                    if sb < 0:
                        pending.append((b, tab, 3 * sa, 1))
                        continue
                    w = tab[3 * sa + sb]
                if (seen >> w) & 1:
                    return False
                seen |= 1 << w
            for u, tab, off, stride in pending:
                old = mask = domain[u]
                if mask & 1 and (seen >> tab[off]) & 1:
                    mask ^= 1
                if mask & 2 and (seen >> tab[off + stride]) & 1:
                    mask ^= 2
                if mask & 4 and (seen >> tab[off + 2 * stride]) & 1:
                    mask ^= 4
                if mask != old:
                    if not mask:
                        return False
                    trail.append((u, old))
                    domain[u] = mask
                    bit = 1 << u
                    buckets[_POPCOUNT[old]] ^= bit
                    buckets[_POPCOUNT[mask]] |= bit
        return True

    def run(self, mode: str, budget, limit):
        found: list[tuple[int, ...]] = []
        count = 0
        if self.buckets[0]:  # a candidate-free variable: unsat at the root
            return found, 0, False
        assign, domain, trail, buckets = (
            self.assign, self.domain, self.trail, self.buckets
        )
        order = self.value_order
        stack: list[list[int]] = []
        descend = True
        while True:
            if descend:
                bucket = buckets[1] or buckets[2] or buckets[3]
                if bucket:
                    var = (bucket & -bucket).bit_length() - 1
                    stack.append([var, 0, len(trail)])
                else:
                    count += 1
                    if mode != "count":
                        found.append(tuple(assign))
                    if mode == "first":
                        return found, count, False
                    if limit is not None and count >= limit:
                        return found, count, True
            if not stack:
                return found, count, False
            frame = stack[-1]
            var, k, mark = frame
            bit = 1 << var
            if assign[var] >= 0:
                # Back from the value tried last: take it back.
                assign[var] = -1
                if len(trail) > mark:
                    for u, old in reversed(trail[mark:]):
                        ubit = 1 << u
                        buckets[_POPCOUNT[domain[u]]] ^= ubit
                        buckets[_POPCOUNT[old]] |= ubit
                        domain[u] = old
                    del trail[mark:]
                buckets[_POPCOUNT[domain[var]]] |= bit
                self.backtracks += 1
            dom, values = domain[var], order[var]
            while k < 3 and not (dom >> values[k]) & 1:
                k += 1
            if k == 3:
                stack.pop()
                descend = False
                continue
            frame[1] = k + 1
            self.nodes += 1
            if budget is not None and self.nodes > budget:
                return found, count, True
            assign[var] = values[k]
            buckets[_POPCOUNT[dom]] ^= bit
            descend = self._propagate(var)


def _table_from_assignment(inst: MspInstance, lifts: tuple[int, ...]) -> CongruousTable:
    sc = inst.scenario
    codes = [sc.f(c + k * sc.m) for c, k in zip(inst.residues, lifts)]
    return CongruousTable(
        kind=sc.kind, r=sc.r, values=tuple(zip(codes[::2], codes[1::2]))
    )


def solve(
    inst: MspInstance,
    mode: str = "first",
    budget: int | None = None,
    seed: int | None = None,
    limit: int | None = None,
) -> SolveOutcome:
    """Solve the instance.

    ``mode="first"`` stops at one solution; ``"all"`` enumerates every
    solution (``limit`` guards runaway enumeration); ``"count"`` counts
    without materializing tables.  ``budget`` caps expanded nodes.
    """
    if mode not in ("first", "all", "count"):
        raise InvalidInput(f"unknown mode {mode!r}")
    search = _Search(inst, seed=seed)
    t0 = time.perf_counter()
    found, count, aborted = search.run(mode, budget, limit)
    stats = SolveStats(
        nodes=search.nodes,
        backtracks=search.backtracks,
        elapsed=time.perf_counter() - t0,
    )
    tables = tuple(_table_from_assignment(inst, sel) for sel in found)
    if aborted:
        status = "aborted"
    elif count > 0:
        status = "solution"
    else:
        status = "unsat"
    return SolveOutcome(status=status, tables=tables, count=count, stats=stats)


@dataclass(frozen=True)
class CongruityReport:
    """Outcome of :func:`check_congruous`; truthy iff no violations."""

    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_congruous(tt: TriplicationTable, ct: CongruousTable, sc) -> CongruityReport:
    """Re-verify every constraint directly from the definitions.

    Independent of the solver; used to cross-check solver output and
    externally supplied solution tables.
    """
    violations: list[str] = []
    if sc.m != tt.m:
        raise ScenarioMismatch(f"scenario modulus {sc.m} != table order {tt.m}")
    if ct.kind != sc.kind or ct.r != sc.r:
        raise ScenarioMismatch(
            f"solution is {ct.kind}/r={ct.r}, scenario is {sc.kind}/r={sc.r}"
        )
    if len(ct.values) != len(tt.pairs):
        raise ScenarioMismatch(
            f"solution has {len(ct.values)} pairs, table has {len(tt.pairs)}"
        )

    # ((0)) ranges and ((4)) consistency: each value must discriminate some
    # lift of its residue, i.e. (residue, value) must be in the image of the
    # encoding map.
    for i, ((u, v), (bu, bv)) in enumerate(zip(tt.pairs, ct.values)):
        for residue, value, name in ((u, bu, "U"), (v, bv, "V")):
            if not (0 <= value < sc.r):
                violations.append(f"(0) {name}_{i}={value} outside 0..{sc.r - 1}")
            elif value not in sc.variable_domain(residue):
                violations.append(
                    f"(4) ({residue}, {value}) not an encoded pair at position {name}_{i}"
                )
    if violations:
        return CongruityReport(False, tuple(violations))

    carries = tt.carry_tables

    def boxdiff(i: int) -> int:
        return sc.box_sub(
            (tt.pairs[i][0], ct.values[i][0]),
            (tt.pairs[i][1], ct.values[i][1]),
            carries.delta[i],
        )

    def boxsum(i: int) -> int:
        return sc.box_add(
            (tt.pairs[i][0], ct.values[i][0]),
            (tt.pairs[i][1], ct.values[i][1]),
            carries.sigma[i],
        )

    # ((1)) rows
    if boxdiff(0) == 0:
        violations.append("(1) special-pair difference is 0")
    for d in range(1, tt.q + 1):
        vals = [boxdiff(i) for i in range(3 * d - 2, 3 * d + 1)]
        if len(set(vals)) != 3:
            violations.append(f"(1) row {d} differences {vals} not distinct")

    # ((2)) weak sets
    for s, idx in tt.weak_sets.by_sum.items():
        vals = [boxsum(i) for i in idx]
        if len(set(vals)) != len(vals):
            violations.append(f"(2) weak set {s} sums {vals} not distinct")
        if s == 0 and any(w == 0 for w in vals):
            violations.append(f"(2) weak set 0 contains a zero sum")

    # ((3)) colors
    for c, positions in tt.monochrome_sets.items():
        vals = [ct.values[i][l] for i, l in positions]
        if len(set(vals)) != len(vals):
            violations.append(f"(3) color {c} values {vals} not distinct")
        if c == 0 and any(w == 0 for w in vals):
            violations.append(f"(3) color 0 contains value 0")

    return CongruityReport(not violations, tuple(violations))


def random_tt(
    m: int, seed: int | None = None, budget: int | None = 100_000
) -> TriplicationTable:
    """Sample a general triplication table by randomized construction.

    Pairs are placed row by row with sign ``+d`` fixed; a pair in row ``d``
    is determined by its first component ``u`` (the second is ``u + d``).
    Candidates are filtered by the remaining value multiplicities, the sum
    caps, and within-row dedup; dead ends restart with a fresh key rather
    than backtracking, which keeps sampling fast.  The output always
    validates.  Raises :class:`BudgetExceeded` if ``budget`` placements are
    exhausted.

    The candidates are bitsets over ``Z_m``: ``avail`` holds the values
    still to be placed, ``half`` holds ``h`` while the sum ``2h`` is below
    its cap (2 for sum 0, else 3), and ``used`` the first components already
    in the row.  Row ``d`` may place ``u`` iff bit ``u`` of
    ``avail & rot(avail, d) & rot(half, d*inv2) & ~used`` is set, where
    ``rot`` shifts cyclically right on ``m`` bits and ``inv2 = (m + 1)/2``
    halves mod ``m``.  The pick is the ``i``-th candidate in ascending
    order for ``i = rng.randrange(n)`` among ``n``, the draw that
    ``rng.choice`` makes on the candidate list, so a seed yields the same
    table, or aborts at the same placement, as a sampler that lists the
    candidates.
    """
    if m < 5 or m % 2 == 0:
        raise InvalidInput(f"order must be odd and >= 5, got {m}")
    rng = random.Random(seed)
    randrange = rng.randrange
    q = (m - 1) // 2
    inv2 = (m + 1) // 2
    full = (1 << m) - 1
    # avail and half are kept doubled, x | x << m, so that x >> s is rot(x, s)
    # on the low m bits; both[u] is bit u of a doubled set.
    both = [(1 << u) | (1 << (u + m)) for u in range(m)]
    half_shift = [d * inv2 % m for d in range(q + 1)]
    steps = 0
    while True:
        key = randrange(1, m)
        counts = [2] + [3] * (m - 1)
        counts[key] -= 2
        # half_left[h]: placements left for the sum 2h
        half_left = [2] + [3] * (m - 1)
        half_left[key] -= 1
        # key != 0 leaves its value a count of 1 and its sum a slot of 2
        avail = half = (full << m) | full
        pairs: list[tuple[int, int]] = [(key, key)]
        dead = False
        for d in range(1, q + 1):
            b = half_shift[d]
            free = full  # ~used
            for _ in range(3):
                cand = avail & free & (avail >> d) & (half >> b)
                n = cand.bit_count()
                if not n:
                    dead = True
                    break
                # strip set bits from the nearer end down to the i-th
                i = randrange(n)
                if 2 * i < n:
                    for _ in range(i):
                        cand &= cand - 1
                    u = (cand & -cand).bit_length() - 1
                else:
                    for _ in range(n - 1 - i):
                        cand ^= 1 << (cand.bit_length() - 1)
                    u = cand.bit_length() - 1
                v = u + d
                if v >= m:
                    v -= m
                counts[u] -= 1
                if not counts[u]:
                    avail ^= both[u]
                counts[v] -= 1
                if not counts[v]:
                    avail ^= both[v]
                h = u + b  # 2h = u + v
                if h >= m:
                    h -= m
                half_left[h] -= 1
                if not half_left[h]:
                    half ^= both[h]
                free ^= 1 << u
                pairs.append((u, v))
                steps += 1
                if budget is not None and steps > budget:
                    raise BudgetExceeded(
                        f"random table sampling for m={m} exceeded {budget} placements"
                    )
            if dead:
                break
        if not dead:
            return validate(pairs, m)


def solution_to_json(ct: CongruousTable) -> dict:
    """JSON-ready dict aligned with the table JSON row layout."""
    n = len(ct.values)
    q = (n - 1) // 3
    rows: list[list[list[int]]] = [[list(ct.values[0])]]
    for d in range(1, q + 1):
        rows.append([list(ct.values[i]) for i in range(3 * d - 2, 3 * d + 1)])
    return {"scenario": ct.kind, "r": ct.r, "rows": rows}


def solution_from_json(data: dict) -> CongruousTable:
    try:
        kind = data["scenario"]
        r = _int(data["r"], "r")
        values = _int_pairs(p for row in data["rows"] for p in row)
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed solution JSON: {exc}") from exc
    return CongruousTable(kind=kind, r=r, values=values)
