"""Triplication tables: validation, derived index structures, equivalence.

A triplication table of order ``m = 2q + 1`` is an ordered pairing of
``3q + 1`` pairs over ``Z_m``:

* (i)   every nonzero value occurs exactly 3 times among the components,
        the value 0 exactly twice;
* (ii)  pair 0 is the special pair ``(t, t)`` with key ``t != 0``; for each
        ``d = 1..q`` the pairs ``3d-2, 3d-1, 3d`` share one directed
        difference, either ``+d`` or ``-d``;
* (iii) at most 3 pairs share a nonzero sum, at most 2 share sum 0;
* (iv)  no two pairs are identical as ordered pairs.

Such a table is the mod-``m`` shadow of a (sought or given) strong starter
of order ``3m``.  Tables whose rows differ only by pair permutation and by
whole-row swaps ``(u, v) -> (v, u)`` are equivalent; canonical form uses
sign ``+d`` in every row with the three pairs sorted lexicographically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .errors import InputNotStrongStarter, InvalidInput, NotATable
from .pairings import Pairing, StarterKind, classify
from .pairings import _int, _table_order

__all__ = [
    "CarryTables",
    "MonochromeSets",
    "TriplicationTable",
    "WeakSets",
    "arrange_strong_starter",
    "canonicalize",
    "derive_index_structures",
    "equivalent",
    "induce_from_starter",
    "render_table",
    "table_from_json",
    "table_to_json",
    "validate",
]

Pair = tuple[int, int]

#: position of one component: (pair index, 0 for u / 1 for v)
DoubleIndex = tuple[int, int]

#: color -> sorted positions holding that color
MonochromeSets = dict[int, tuple[DoubleIndex, ...]]


@dataclass(frozen=True)
class WeakSets:
    """Pair indices grouped by shared sum.

    ``by_sum[s]`` lists the indices of pairs with sum ``s`` for every weak
    sum: ``s = 0`` (any multiplicity) or ``|W_s| > 1``.  Pairs whose sum is
    unique and nonzero are *strong* and listed in ``strong``.
    """

    by_sum: dict[int, tuple[int, ...]]
    strong: tuple[int, ...]


@dataclass(frozen=True)
class CarryTables:
    """Per-pair carries over the integers: ``delta[i] = 1`` iff
    ``u_i - v_i < 0`` and ``sigma[i] = 1`` iff ``u_i + v_i >= m``."""

    delta: tuple[int, ...]
    sigma: tuple[int, ...]


@dataclass(frozen=True)
class TriplicationTable:
    """A validated triplication table.  Construct via :func:`validate`.

    Everything else is read off ``m`` and the pairs, computed lazily and
    cached; the value itself is immutable and safe to share.
    """

    m: int
    pairs: tuple[Pair, ...]

    @property
    def q(self) -> int:
        return (self.m - 1) // 2

    @property
    def key(self) -> int:
        return self.pairs[0][0]

    def row(self, d: int) -> tuple[Pair, Pair, Pair]:
        """The three pairs of regular row ``d``, ``1 <= d <= q``."""
        d = _int(d, "row")
        if not 1 <= d <= self.q:
            raise InvalidInput(f"row {d} outside 1..{self.q}")
        return _rows(self.pairs)[d]

    @cached_property
    def signs(self) -> tuple[int, ...]:
        """``signs[d-1]`` is ``+1`` when row ``d`` carries directed
        difference ``+d`` and ``-1`` for ``-d``."""
        return tuple(1 if (v - u) % self.m == d else -1
                     for d, ((u, v), *_) in enumerate(_rows(self.pairs)[1:], 1))

    @cached_property
    def monochrome_sets(self) -> MonochromeSets:
        sets: dict[int, list[DoubleIndex]] = {}
        for i, (u, v) in enumerate(self.pairs):
            sets.setdefault(u, []).append((i, 0))
            sets.setdefault(v, []).append((i, 1))
        return {c: tuple(sorted(ps)) for c, ps in sorted(sets.items())}

    @cached_property
    def weak_sets(self) -> WeakSets:
        groups: dict[int, list[int]] = {}
        for i, (u, v) in enumerate(self.pairs):
            groups.setdefault((u + v) % self.m, []).append(i)
        by_sum = {
            s: tuple(idx)
            for s, idx in sorted(groups.items())
            if s == 0 or len(idx) > 1
        }
        strong = tuple(
            i
            for s, idx in sorted(groups.items())
            if s != 0 and len(idx) == 1
            for i in idx
        )
        return WeakSets(by_sum=by_sum, strong=strong)

    @cached_property
    def carry_tables(self) -> CarryTables:
        delta = tuple(1 if u < v else 0 for u, v in self.pairs)
        sigma = tuple(1 if u + v >= self.m else 0 for u, v in self.pairs)
        return CarryTables(delta=delta, sigma=sigma)


def _rows(seq) -> list:
    """Split ``seq``, aligned with a table's pairs, into ``[seq[:1], row 1,
    ..., row q]``; :class:`InvalidInput` unless ``len(seq)`` is ``3q + 1``."""
    if len(seq) % 3 != 1:
        raise InvalidInput(f"{len(seq)} pairs do not fill a special pair and rows of 3")
    return [seq[:1]] + [seq[i : i + 3] for i in range(1, len(seq), 3)]


def _check_sums(pairs: tuple[Pair, ...], m: int) -> None:
    """Check clause (iii): at most 3 pairs share a nonzero sum, 2 sum 0."""
    for s, k in Counter((u + v) % m for u, v in pairs).items():
        cap = 2 if s == 0 else 3
        if k > cap:
            raise NotATable("iii", f"sum {s} occurs {k} times, at most {cap} allowed")


def _check_clauses(pairs: tuple[Pair, ...], m: int) -> None:
    """Check clauses (i)-(iv) in order."""
    counts = Counter()
    for u, v in pairs:
        counts[u] += 1
        counts[v] += 1
    for c in range(m):
        want = 2 if c == 0 else 3
        if counts.get(c, 0) != want:
            raise NotATable(
                "i", f"value {c} occurs {counts.get(c, 0)} times, expected {want}"
            )

    u0, v0 = pairs[0]
    if u0 != v0:
        raise NotATable("ii", f"pair 0 is {pairs[0]}, expected a repeated pair (t, t)")
    if u0 == 0:
        raise NotATable("ii", "key must be nonzero")
    for d, row in enumerate(_rows(pairs)[1:], 1):
        diffs = [(v - u) % m for u, v in row]
        if len(set(diffs)) != 1 or diffs[0] not in (d % m, (-d) % m):
            raise NotATable(
                "ii", f"row {d} has directed differences {diffs}, expected all +{d} or all -{d}"
            )

    _check_sums(pairs, m)

    seen: dict[Pair, int] = {}
    for i, pair in enumerate(pairs):
        if pair in seen:
            raise NotATable("iv", f"pairs {seen[pair]} and {i} are both {pair}")
        seen[pair] = i


def validate(pairs, m: int) -> TriplicationTable:
    """Validate an ordered pairing of ``3q + 1`` pairs over ``Z_m``.

    Returns the table, or raises :class:`NotATable` naming the first failed
    clause.  Either row sign is accepted.  The pairs are read as a
    :class:`Pairing` over ``Z_m``.
    """
    p = Pairing(m, pairs)
    m, pairs = p.modulus, p.pairs
    n = (3 * m - 1) // 2  # 3q + 1
    if len(pairs) != n:
        raise InvalidInput(f"expected {n} pairs for order {m}, got {len(pairs)}")
    _check_clauses(pairs, m)
    return TriplicationTable(m, pairs)


def derive_index_structures(
    tt: TriplicationTable,
) -> tuple[MonochromeSets, WeakSets, CarryTables]:
    """Monochrome sets, weak sets, and carries of a validated table.

    The monochrome sets partition the ``2(3q + 1)`` component positions;
    every pair index is either in exactly one weak set or listed strong.
    """
    return tt.monochrome_sets, tt.weak_sets, tt.carry_tables


def arrange_strong_starter(s: Pairing) -> Pairing:
    """Rewrite a strong starter of order ``3m`` in table order over ``Z_m``
    (:func:`triplication.pairings._table_order`): the pair congruent mod
    ``m`` first, then the three pairs of each difference class ``d`` with
    reduced directed difference ``+d``, sorted by their reduced pair.
    Reducing the result mod ``m`` yields a valid triplication table.

    Raises :class:`InputNotStrongStarter` for any other pairing and
    :class:`InvalidInput` when 3 does not divide the order.
    """
    outcome = classify(s)
    if outcome.kind != StarterKind.STRONG_STARTER:
        raise InputNotStrongStarter(f"classify: {outcome}")
    n = s.modulus
    if n % 3 != 0:
        raise InvalidInput(f"order {n} is not divisible by 3")
    return Pairing(n, _table_order(s.pairs, n // 3))


def induce_from_starter(s: Pairing) -> TriplicationTable:
    """The table induced by a strong starter of order ``3m``: arrange, then
    reduce every component mod ``m``.  All row signs come out ``+d``, and
    the table is already canonical."""
    arranged = arrange_strong_starter(s)
    m = s.modulus // 3
    return validate([(x % m, y % m) for x, y in arranged.pairs], m)


def canonicalize(tt: TriplicationTable) -> TriplicationTable:
    """Unique representative of the equivalence class of ``tt``: its pairs
    in table order, so every row has sign ``+d`` and its three pairs are
    sorted lexicographically.  Idempotent."""
    return validate(_table_order(tt.pairs, tt.m), tt.m)


def equivalent(a: TriplicationTable, b: TriplicationTable) -> bool:
    """True when the tables differ only by within-row pair permutation and
    whole-row swaps."""
    return a.m == b.m and _table_order(a.pairs, a.m) == _table_order(b.pairs, b.m)


def render_table(tt: TriplicationTable) -> str:
    """Human-readable box layout: the special pair centered over column 1,
    one regular row per line."""
    cells = [[f"({u}, {v})" for u, v in row] for row in _rows(tt.pairs)[1:]]
    width = max((len(c) for row in cells for c in row), default=6)
    width = max(width, len(f"({tt.key}, {tt.key})"))
    blank = " " * width
    lines = [
        f"| {blank} | {f'({tt.key}, {tt.key})'.center(width)} | {blank} |"
    ]
    for row in cells:
        lines.append("| " + " | ".join(c.center(width) for c in row) + " |")
    return "\n".join(lines)


def _json_rows(pairs) -> list[list[list[int]]]:
    """``[[special], [row 1 triple], ...]``: the JSON row layout of a
    table's pairs, or of the values aligned with them."""
    return [[list(p) for p in row] for row in _rows(pairs)]


def _json_pairs(rows) -> list:
    """The pairs of the JSON row layout, in table index order;
    :class:`InvalidInput` for any other layout."""
    flat = [p for row in rows for p in row]
    if [len(row) for row in rows] != [len(row) for row in _rows(flat)]:
        raise InvalidInput("rows must be the special pair, then rows of three pairs")
    return flat


def table_to_json(tt: TriplicationTable) -> dict:
    """JSON-ready dict; row 0 holds the single special pair."""
    return {"m": tt.m, "key": tt.key, "rows": _json_rows(tt.pairs), "signs": list(tt.signs)}


def table_from_json(data: dict) -> TriplicationTable:
    try:
        m = _int(data["m"], "m")
        flat = _json_pairs(data["rows"])
        key = _int(data.get("key", -1), "key")
        signs = tuple(_int(s, "sign") for s in data.get("signs", ()))
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed table JSON: {exc}") from exc
    tt = validate(flat, m)
    if "key" in data and key != tt.key:
        raise InvalidInput(f"declared key {data['key']} but table has key {tt.key}")
    if "signs" in data and signs != tt.signs:
        raise InvalidInput(
            f"declared signs {data['signs']} but table rows have signs {list(tt.signs)}"
        )
    return tt
