"""Pairings over odd cyclic groups.

A :class:`Pairing` is an immutable tuple of ordered pairs with components in
``Z_m`` for a shared odd modulus ``m``.  Pairings are the universal carrier in
this package: starters, pseudostarters, table columns, and recovered starters
of order ``3m`` are all pairings.  Every transform returns a fresh value.

Classification vocabulary (strongest first):

* *strong starter* -- pairs partition ``Z_m^*``, the differences
  ``+-(y_i - x_i)`` cover ``Z_m^*``, and the pair sums are pairwise distinct
  and nonzero.
* *starter* -- partition plus difference coverage.
* *pseudostarter* -- difference coverage only; repeated or zero components
  are allowed.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum

from .errors import InvalidInput, OrderTooLarge

__all__ = [
    "Pairing",
    "StarterClass",
    "StarterKind",
    "canonical_unordered",
    "classify",
    "conjugate",
    "egcd",
    "enumerate_strong_starters",
    "modinv",
    "normalize_ordered",
    "pairing_from_json",
    "pairing_to_json",
    "sums",
]


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, s, t)`` with ``g = gcd(a, b)`` and ``s*a + t*b = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, n: int) -> int:
    """Inverse of ``a`` modulo ``n``; raises :class:`InvalidInput` if none."""
    g, s, _ = egcd(a % n, n)
    if g != 1:
        raise InvalidInput(f"{a} is not invertible modulo {n}")
    return s % n


def _odd_order(m: int, least: int = 3) -> None:
    """Raise :class:`InvalidInput` unless ``m`` is odd and ``>= least``."""
    if m < least or m % 2 == 0:
        raise InvalidInput(f"order must be odd and >= {least}, got {m}")


def _at_least_one(name: str, value) -> None:
    """Raise :class:`InvalidInput` unless ``value`` is an integer >= 1;
    ``None`` passes."""
    if value is not None and _int(value, name) < 1:
        raise InvalidInput(f"{name} must be >= 1, got {value}")


def _int(value, field: str) -> int:
    """``value`` as an int; a float is accepted only with an integral value.

    A bool, a string or a fractional float raises :class:`InvalidInput`
    naming ``field`` rather than being truncated.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInput(f"{field} must be an integer, got {value!r}")


def _int_pairs(pairs) -> tuple[tuple[int, int], ...]:
    """``pairs`` as integer pairs; :class:`InvalidInput` for any other shape."""
    try:
        return tuple((_int(x, "pair entry"), _int(y, "pair entry")) for x, y in pairs)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed pair list: {exc}") from exc


class StarterKind(IntEnum):
    """Classification levels; comparable, strongest has the largest value."""

    NOT_ANY = 0
    PSEUDOSTARTER = 1
    STARTER = 2
    STRONG_STARTER = 3


@dataclass(frozen=True)
class StarterClass:
    """Result of :func:`classify`: the strongest satisfied class plus, when
    the pairing falls short of the next class, the first violated property."""

    kind: StarterKind
    witness: str | None = None


@dataclass(frozen=True)
class Pairing:
    """Ordered tuple of ordered pairs over a shared odd modulus.

    A pairing is *ordered* when pair ``i`` (1-based) has directed difference
    ``y_i - x_i = +-i (mod m)``, the row discipline shared by ordered
    starters, ordered pseudostarters and table columns;
    :func:`normalize_ordered` rewrites a pairing into ordered form.
    """

    modulus: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        m = self.modulus
        _odd_order(m)
        object.__setattr__(self, "pairs", _int_pairs(self.pairs))
        for x, y in self.pairs:
            if not (0 <= x < m and 0 <= y < m):
                raise InvalidInput(f"component out of range for Z_{m}: ({x}, {y})")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    @property
    def q(self) -> int:
        return (self.modulus - 1) // 2

    def components(self) -> tuple[int, ...]:
        flat: list[int] = []
        for x, y in self.pairs:
            flat.append(x)
            flat.append(y)
        return tuple(flat)


def sums(p: Pairing) -> tuple[int, ...]:
    """Multiset of pair sums ``x_i + y_i (mod m)``, reported in index order."""
    m = p.modulus
    return tuple((x + y) % m for x, y in p.pairs)


def conjugate(p: Pairing) -> Pairing:
    """Componentwise negation with a swap: ``(x, y) -> (-y, -x) (mod m)``.

    An involution.  The directed difference of each pair is preserved, so an
    ordered pairing (and each row's sign) stays ordered under conjugation.
    """
    m = p.modulus
    return Pairing(m, tuple(((-y) % m, (-x) % m) for x, y in p.pairs))


def _difference_classes(pairs, m: int) -> set[int]:
    """The difference classes ``min(d, m - d)`` of ``pairs``, where ``d = (y
    - x) % m``; :class:`InvalidInput` names the first zero difference or
    repeated class."""
    classes: set[int] = set()
    for i, (x, y) in enumerate(pairs, start=1):
        d = (y - x) % m
        if d == 0:
            raise InvalidInput(f"zero difference at pair {i}")
        c = min(d, m - d)
        if c in classes:
            raise InvalidInput(f"difference class {c} repeats at pair {i}")
        classes.add(c)
    return classes


def classify(p: Pairing) -> StarterClass:
    """Return the strongest class whose defining properties all hold.

    The witness names the first failed property of the next-stronger class,
    which makes assertions in tests deterministic.
    """
    if not p.pairs:
        raise InvalidInput("cannot classify an empty pairing")
    m = p.modulus
    q = (m - 1) // 2

    # Difference coverage: the +-(y - x) must comprise Z_m^* exactly.
    if len(p.pairs) != q:
        return StarterClass(
            StarterKind.NOT_ANY,
            f"{len(p.pairs)} pairs cannot cover the {m - 1} nonzero differences of Z_{m}",
        )
    try:
        _difference_classes(p.pairs, m)
    except InvalidInput as exc:
        return StarterClass(StarterKind.NOT_ANY, str(exc))

    # Partition of Z_m^*: all 2q components distinct and nonzero.
    comps = p.components()
    partition_witness = None
    if 0 in comps:
        partition_witness = "component 0 cannot occur in a partition of Z_m^*"
    else:
        counts = Counter(comps)
        rep = next((c for c, k in counts.items() if k > 1), None)
        if rep is not None:
            partition_witness = f"element {rep} occurs {counts[rep]} times"
    if partition_witness is not None:
        return StarterClass(StarterKind.PSEUDOSTARTER, partition_witness)

    # Strongness: pair sums pairwise distinct and nonzero.
    seen_sums = set()
    for i, s in enumerate(sums(p), start=1):
        if s == 0:
            return StarterClass(StarterKind.STARTER, f"pair {i} sums to 0")
        if s in seen_sums:
            return StarterClass(StarterKind.STARTER, f"pair sum {s} repeats at pair {i}")
        seen_sums.add(s)
    return StarterClass(StarterKind.STRONG_STARTER)


def _table_order(pairs, m: int) -> tuple[tuple[int, int], ...]:
    """``pairs`` in table order over ``Z_m``: each pair turned to its
    positive difference class ``+d`` mod ``m`` (a pair congruent mod ``m``
    with its smaller element first), then sorted by ``((y - x) % m, x % m,
    y % m)``.  The one order of ordered pairings, of strong starters of
    order ``3m`` arranged over their table, and of canonical tables."""

    def turned(pair):
        x, y = pair
        d = (y - x) % m
        return pair if (2 * d < m if d else x < y) else (y, x)

    return tuple(
        sorted(map(turned, pairs), key=lambda p: ((p[1] - p[0]) % m, p[0] % m, p[1] % m))
    )


def normalize_ordered(p: Pairing) -> Pairing:
    """Rewrite ``p`` in the canonical ordered form, its table order
    (:func:`_table_order`): pair ``i`` carries directed difference ``+i``.

    Raises :class:`InvalidInput` for a zero difference, a repeated
    difference class, or classes other than ``1..len(p)``, i.e. when the
    input is not an ordered pseudostarter up to reordering.
    """
    m = p.modulus
    classes = _difference_classes(p.pairs, m)
    if classes != set(range(1, len(p.pairs) + 1)):
        raise InvalidInput(
            f"difference classes {sorted(classes)} do not form 1..{len(p.pairs)}"
        )
    return Pairing(m, _table_order(p.pairs, m))


def canonical_unordered(p: Pairing) -> tuple[tuple[int, int], ...]:
    """Canonical form of ``p`` as a set of unordered pairs: each pair sorted
    internally, pairs sorted lexicographically.  Used as a dedup key."""
    return tuple(sorted(tuple(sorted(pair)) for pair in p.pairs))


def enumerate_strong_starters(
    m: int, limit: int | None = None, allow_large: bool = False
) -> list[Pairing]:
    """Exhaustively enumerate the strong starters of order ``m`` by
    backtracking over partitions of ``Z_m^*``.

    Intended as an independent oracle for small orders; refuses ``m > 15``
    unless ``allow_large`` is set.  Each unordered strong starter is emitted
    exactly once, in canonical ordered form (directed differences ``+i``).
    """
    _odd_order(m)
    if m > 15 and not allow_large:
        raise OrderTooLarge(f"m={m} enumeration needs allow_large=True")
    _at_least_one("limit", limit)
    q = (m - 1) // 2
    out: list[Pairing] = []
    used = [False] * m
    class_used = [False] * (q + 1)
    sum_used = [False] * m
    chosen: list[tuple[int, int]] = []

    def extend() -> bool:
        # Returns False to stop the whole search (limit reached).
        if len(chosen) == q:
            out.append(normalize_ordered(Pairing(m, tuple(chosen))))
            return limit is None or len(out) < limit
        x = next(e for e in range(1, m) if not used[e])
        used[x] = True
        for y in range(x + 1, m):
            if used[y]:
                continue
            d = (y - x) % m
            c = min(d, m - d)
            if class_used[c]:
                continue
            s = (x + y) % m
            if s == 0 or sum_used[s]:
                continue
            used[y] = True
            class_used[c] = True
            sum_used[s] = True
            chosen.append((x, y))
            keep_going = extend()
            chosen.pop()
            used[y] = False
            class_used[c] = False
            sum_used[s] = False
            if not keep_going:
                used[x] = False
                return False
        used[x] = False
        return True

    extend()
    return out


def pairing_to_json(p: Pairing) -> dict:
    """JSON-ready dict: ``{"modulus": m, "pairs": [[x, y], ...]}``."""
    return {"modulus": p.modulus, "pairs": [[x, y] for x, y in p.pairs]}


def pairing_from_json(data: dict) -> Pairing:
    try:
        modulus = _int(data["modulus"], "modulus")
        pairs = data["pairs"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed pairing JSON: {exc}") from exc
    return Pairing(modulus, pairs)
