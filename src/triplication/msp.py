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

:func:`solve` runs chronological backtracking that keeps every constraint
group generalized-arc-consistent (GAC).  ``unsat`` is reported only after
the search space is exhausted; running out of budget is a distinct
``aborted`` outcome.  The search runs on an explicit stack rather than by
recursion; it keeps the domains as one byte per table pair, picks the next
variable by a byte scan of them, and backtracks by restoring a copy.

Variable numbering: position ``<i, l>`` of the table (pair ``i``, component
``l``) is variable ``2*i + l``, so ``U_i`` is even and ``V_i`` odd.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cache

from .errors import BudgetExceeded, InvalidInput, ScenarioMismatch
from .pairings import _at_least_one, _int, _int_pairs, _odd_order
from .scenarios import _KINDS, Scenario
from .tables import TriplicationTable, _json_pairs, _json_rows, _rows, validate

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

_LIFT = (0, 1, 2)
#: Lift index of a term, ``tab[3*k_a + k_b]``: ``_DIFF[delta]`` for a row
#: difference, ``_SUM[sigma]`` for a weak sum, ``_COLOUR`` for a colour entry.
_DIFF = tuple(tuple((a - b - c) % 3 for a in _LIFT for b in _LIFT) for c in (0, 1))
_SUM = tuple(tuple((a + b + c) % 3 for a in _LIFT for b in _LIFT) for c in (0, 1))
_COLOUR = tuple(a for a in _LIFT for _ in _LIFT)
#: The rank of a nibble: the number of lifts of an unassigned variable, 0
#: for an assigned one; and per pair byte, the least nonzero rank of its two.
_RANK = bytes(n.bit_count() if n < 8 else 0 for n in range(16))
_LEAST = bytes(min(_RANK[b >> 4] or 4, _RANK[b & 15] or 4) & 3 for b in range(256))
#: The sides whose nibbles differ in ``old ^ new``: 0 ``U``, 1 ``V``, 2 both.
_SIDES = [(x > 15) + 2 * (x & 15 > 0) - 1 for x in range(256)]
_PAD = (0,) * 256  # the image of a padding term


@dataclass(frozen=True)
class ConstraintGroup:
    """Terms over lift indices, pairwise distinct; if ``forbid_zero``, also
    nonzero.

    A term is ``(a, b, tab)`` with the value ``tab[3*k_a + k_b]``.  A colour
    term has ``b == -1``, a lift that is always free, and the value ``k_a``.
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
    #: The most variables assigned at once.
    max_depth: int


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
    diffs = tuple((2 * i, 2 * i + 1, _DIFF[d]) for i, d in enumerate(carries.delta))
    sums = [(2 * i, 2 * i + 1, _SUM[s]) for i, s in enumerate(carries.sigma)]

    groups = [ConstraintGroup(f"row{d}", row, d == 0) for d, row in enumerate(_rows(diffs))]
    for s, idx in tt.weak_sets.by_sum.items():
        groups.append(
            ConstraintGroup(f"weak{s}", tuple(sums[i] for i in idx), s == 0)
        )
    for c, positions in tt.monochrome_sets.items():
        terms = tuple((2 * i + l, -1, _COLOUR) for i, l in positions)
        groups.append(ConstraintGroup(f"color{c}", terms, c == 0))
    return MspInstance(
        scenario=sc,
        residues=tuple(c for pair in tt.pairs for c in pair),
        groups=tuple(groups),
    )


@cache
def _term_lookups(tab: tuple[int, ...], shift: int) -> tuple[list[int], list[int]]:
    """``(image, push)`` of a term with table ``tab`` over a pair byte ``d``,
    which holds the lifts of ``k_a`` in bits 4-6 and those of ``k_b`` in
    bits 0-2: ``image[d]`` is the set of its values shifted left by
    ``shift``, and ``push[d << 3 | s]`` is ``d`` less the lifts that reach
    no value in ``s``."""
    image, push = [], []
    for d in range(256):
        reach = [0, 0, 0]  # per value, the lifts that reach it
        for ka in _LIFT:
            for kb in _LIFT:
                if d >> 4 >> ka & d >> kb & 1:
                    reach[tab[3 * ka + kb]] |= 16 << ka | 1 << kb
        image.append(sum(1 << v for v in _LIFT if reach[v]) << shift)
        unions = [d & 0x88]
        for r in reach:
            unions += [u | r for u in unions]
        push += unions
    return image, push


@cache
def _revision(n: int, forbid_zero: bool) -> list[tuple[int, tuple[int, ...]]]:
    """``(support, lost)`` for each ``key`` packing the images of ``n`` terms,
    3 bits a term: ``support`` holds the values of each that extend to
    pairwise distinct values of all, nonzero if ``forbid_zero``, and
    ``lost`` the indices of the terms with a value outside it.  Padded with
    free images ``0b111`` to three terms, the distinct values are the octal
    numbers with the digits 1, 2 and 4."""
    pad = 0o777 ^ ((1 << 3 * n) - 1)
    zmask = 0o777 ^ (0o111 & ~pad) if forbid_zero else 0o777
    revision, entries = [], {}
    for key in range(1 << 3 * n):
        support = 0
        for p in (0o124, 0o142, 0o214, 0o241, 0o412, 0o421):
            if (key | pad) & zmask & p == p:
                support |= p
        entry = (support, tuple(i for i in range(n) if (key ^ support) >> 3 * i & 7))
        revision.append(entries.setdefault(entry, entry))
    return revision


class _Search:
    """Backtracking that keeps every constraint group generalized-arc-
    consistent (GAC) over the lifts of each variable.

    ``domain`` holds one byte per table pair, ``U_i``'s nibble above
    ``V_i``'s: bit 3 marks the variable assigned, bits 0-2 hold its lifts.
    Every group is padded to three terms with the free last byte ``0x88``,
    whose image is empty; a term reads one byte (a colour term only its
    side's nibble).  Revising a group is three lookups: the term images,
    packed in a 9-bit key; the group's ``_revision`` entry for the key, its
    all-different support and the terms that lose a value; and the byte of
    each of those terms pushed onto its support.

    Variable order: fewest lifts first, lowest id on ties, found by a scan
    of the domain translated into the least rank of each pair (``_LEAST``;
    a nibble's ``_RANK`` is its number of lifts, 0 once assigned).  Value
    order: the scenario's ``lift_order``, or a seeded per-variable shuffle
    of it.  Each frame of the explicit stack, ``[var, next value index,
    domain copy]``, restores the domain on backtracking.  The GAC fixpoint
    is unique whatever the order in which groups are revised, so the nodes
    expanded depend only on the variable and value order.
    """

    def __init__(self, inst: MspInstance, seed=None):
        nv = inst.n_vars
        free = nv // 2
        self.domain = bytearray(b"\x77" * free + b"\x88")
        var_groups: list[list[int]] = [[] for _ in range(nv)]
        for index, g in enumerate(inst.groups):
            for a, b, _ in g.terms:
                var_groups[a].append(index)
                if b >= 0:
                    var_groups[b].append(index)
        self.side_groups = side_groups = [
            (frozenset(u), frozenset(v), frozenset(u + v))
            for u, v in zip(var_groups[::2], var_groups[1::2])
        ]
        self.groups = []
        for g in inst.groups:
            terms, reads = [], []
            for a, b, tab in g.terms:
                if b < 0 and a & 1:
                    tab = tab[::3] * 3  # a colour term on V_i reads the low nibble
                shift = 3 * len(terms)
                image, push = _term_lookups(tab, shift)
                terms.append((a >> 1, push, shift, side_groups[a >> 1]))
                reads += (a >> 1, image)
            reads += (free, _PAD) * (3 - len(terms))
            self.groups.append((*reads, terms, _revision(len(terms), g.forbid_zero)))
        order = inst.scenario.lift_order
        if seed is None:
            self.value_order = [order] * nv
        else:
            rng = random.Random(seed)
            self.value_order = [
                tuple(order[s] for s in rng.sample((0, 1, 2), 3)) for _ in range(nv)
            ]
        self.nodes = self.backtracks = self.max_depth = 0

    def _propagate(self, pending: set[int]) -> int | None:
        """Revise the groups in ``pending``, and those of every side that
        loses a lift, up to the fixpoint; the index of a group that wipes
        out, or None at the fixpoint."""
        domain, groups, sides = self.domain, self.groups, _SIDES
        while pending:
            g = pending.pop()
            p0, image0, p1, image1, p2, image2, terms, revision = groups[g]
            support, lost = revision[image0[domain[p0]] | image1[domain[p1]] | image2[domain[p2]]]
            if not lost:
                continue
            if not support:
                return g
            for i in lost:
                p, push, shift, changed = terms[i]
                old = domain[p]
                new = push[old << 3 | support >> shift & 7]
                if new != old:
                    domain[p] = new
                    pending |= changed[sides[new ^ old]]
            # A revised group is at its own fixpoint.
            pending.discard(g)
        return None

    def run(self, mode: str, budget, limit):
        found: list[tuple[int, ...]] = []
        count = nodes = backtracks = max_depth = 0
        aborted = False
        domain, side_groups, order = self.domain, self.side_groups, self.value_order
        stack: list[list] = []
        # A wipe-out at the root leaves nothing to search.
        descend = self._propagate(set(range(len(self.groups)))) is None
        while True:
            if descend:
                least = domain.translate(_LEAST)
                p = least.find(1)
                if p < 0:
                    p = least.find(2)
                    if p < 0:
                        p = least.find(3)
                if p >= 0:
                    # U_p, unless V_p alone has the least rank
                    var = 2 * p + (_RANK[domain[p] >> 4] != least[p])
                    stack.append([var, 0, bytes(domain)])
                else:
                    count += 1
                    if mode != "count":
                        found.append(tuple(
                            (d >> s & 7).bit_length() - 1 for d in domain[:-1] for s in (4, 0)
                        ))
                    if mode == "first":
                        break
                    if limit is not None and count >= limit:
                        aborted = True
                        break
            if not stack:
                break
            frame = stack[-1]
            var, k, saved = frame
            if k:
                # Back from the value tried last: take it back.
                domain[:] = saved
                backtracks += 1
            p, shift = var >> 1, 4 - 4 * (var & 1)
            dom = saved[p] >> shift & 7
            values = order[var]
            while k < 3 and not (dom >> values[k]) & 1:
                k += 1
            if k == 3:
                stack.pop()
                descend = False
                continue
            if nodes == budget:
                aborted = True
                break
            frame[1] = k + 1
            nodes += 1
            if len(stack) > max_depth:
                max_depth = len(stack)
            # var is assigned this one lift; the other side's nibble stays.
            single = 1 << values[k]
            domain[p] = saved[p] & 15 << 4 - shift | (8 | single) << shift
            # A singleton domain is already supported: nothing to revise.
            descend = single == dom or self._propagate(set(side_groups[p][var & 1])) is None
        self.nodes, self.backtracks, self.max_depth = nodes, backtracks, max_depth
        return found, count, aborted


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
    without materializing tables.  ``budget`` caps expanded nodes.  A
    ``budget`` or ``limit`` below 1 raises :class:`InvalidInput`.
    """
    if mode not in ("first", "all", "count"):
        raise InvalidInput(f"unknown mode {mode!r}")
    _at_least_one("limit", limit)
    _at_least_one("budget", budget)
    search = _Search(inst, seed=seed)
    t0 = time.perf_counter()
    found, count, aborted = search.run(mode, budget, limit)
    stats = SolveStats(
        nodes=search.nodes,
        backtracks=search.backtracks,
        elapsed=time.perf_counter() - t0,
        max_depth=search.max_depth,
    )
    tables = tuple(_table_from_assignment(inst, sel) for sel in found)
    status = "aborted" if aborted else "solution" if count else "unsat"
    return SolveOutcome(status=status, tables=tables, count=count, stats=stats)


@dataclass(frozen=True)
class CongruityReport:
    """Outcome of :func:`check_congruous`; truthy iff no violations."""

    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

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
        return CongruityReport(tuple(violations))

    # Pair i as its two encoded elements, left[i] = (u_i, U_i), right[i] = (v_i, V_i).
    left = [(u, bu) for (u, _), (bu, _) in zip(tt.pairs, ct.values)]
    right = [(v, bv) for (_, v), (_, bv) in zip(tt.pairs, ct.values)]
    boxdiffs = list(map(sc.box_sub, left, right))
    boxsums = list(map(sc.box_add, left, right))

    # ((1)) rows
    (special,), *rows = _rows(boxdiffs)
    if special == 0:
        violations.append("(1) special-pair difference is 0")
    for d, vals in enumerate(rows, 1):
        if len(set(vals)) != 3:
            violations.append(f"(1) row {d} differences {vals} not distinct")

    # ((2)) weak sets
    for s, idx in tt.weak_sets.by_sum.items():
        vals = [boxsums[i] for i in idx]
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

    return CongruityReport(tuple(violations))


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
    exhausted, and :class:`InvalidInput` for a ``budget`` below 1.

    The candidates are bitsets over ``Z_m``: ``avail`` holds the values
    still to be placed, ``half`` holds ``h`` while the sum ``2h`` is below
    its cap (2 for sum 0, else 3), and ``used`` the row's first components.
    Row ``d`` may place ``u`` iff bit ``u`` of ``avail & rot(avail, d) &
    rot(half, d*inv2) & ~used`` is set (``rot``: a cyclic right shift on
    ``m`` bits; ``inv2 = (m + 1)/2``).  The pick is the ``i``-th candidate
    in ascending order, ``i`` drawn as ``rng.randrange(n)`` draws it: a seed
    yields the same table, or abort, as ``rng.choice`` on the candidates.
    """
    _odd_order(m, least=5)
    _at_least_one("budget", budget)
    getrandbits = random.Random(seed).getrandbits
    q = (m - 1) // 2
    full = (1 << m) - 1
    # avail and half are kept doubled, x | x << m, so x >> s is rot(x, s) on
    # the low m bits; both[u] is bit u of a doubled set.
    bit = [1 << u for u in range(m)]
    both = [(1 << u) | (1 << (u + m)) for u in range(m)]
    width = [n.bit_length() for n in range(m + 1)]
    half_shift = [d * (m + 1) // 2 % m for d in range(q + 1)]
    left = budget or -1  # placements left; -1 (no budget) never hits 0
    while True:
        key = m
        while key >= m:  # randrange(1, m)
            key = 1 + getrandbits(width[m - 1])
        counts = [2] + [3] * (m - 1)
        counts[key] -= 2
        # half_left[h]: placements left for sum 2h
        half_left = [2] + [3] * (m - 1)
        half_left[key] -= 1
        # key != 0 leaves its value a count of 1 and its sum a slot of 2
        avail = half = (full << m) | full
        pairs = [(key, key)]
        place = pairs.append
        for d in range(1, q + 1):
            b = half_shift[d]
            free = full  # ~used
            for _ in range(3):
                cand = avail & free & (avail >> d) & (half >> b)
                n = cand.bit_count()
                if not n:
                    break
                k = width[n]
                i = getrandbits(k)
                while i >= n:
                    i = getrandbits(k)
                # strip set bits from the nearer end to the i-th
                if 2 * i < n:
                    for _ in range(i):
                        cand &= cand - 1
                    u = (cand & -cand).bit_length() - 1
                else:
                    for _ in range(n - 1 - i):
                        cand ^= 1 << (cand.bit_length() - 1)
                    u = cand.bit_length() - 1
                v = (u + d) % m
                counts[u] -= 1
                if not counts[u]:
                    avail ^= both[u]
                counts[v] -= 1
                if not counts[v]:
                    avail ^= both[v]
                h = (u + b) % m  # 2h = u + v
                half_left[h] -= 1
                if not half_left[h]:
                    half ^= both[h]
                free ^= bit[u]
                place((u, v))
                if not left:
                    raise BudgetExceeded(
                        f"random table sampling for m={m} exceeded {budget} placements"
                    )
                left -= 1
            else:
                continue
            break  # a dead end: restart with a fresh key
        else:
            return validate(pairs, m)


def solution_to_json(ct: CongruousTable) -> dict:
    """JSON-ready dict aligned with the table JSON row layout."""
    return {"scenario": ct.kind, "r": ct.r, "rows": _json_rows(ct.values)}


def solution_from_json(data: dict) -> CongruousTable:
    try:
        kind = data["scenario"]
        r = _int(data["r"], "r")
        values = _int_pairs(_json_pairs(data["rows"]))
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed solution JSON: {exc}") from exc
    if kind not in _KINDS:
        raise InvalidInput(f"unknown scenario kind {kind!r}")
    # A carry scenario has r = 3, a mod scenario a power of 3 from 3 up.
    power = 3
    while kind == "mod" and power < r:
        power *= 3
    if r != power:
        raise InvalidInput(f"no {kind} scenario has r = {r}")
    return CongruousTable(kind=kind, r=r, values=values)
