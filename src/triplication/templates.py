"""Explicit triplication-table constructions.

All constructions instantiate one template: given an ordered starter ``T0``,
a special pair of ordered pseudostarters ``(T1, T2)`` (their multiset union
covers ``Z_m^*`` exactly twice), and a key ``t != 0``, row ``i`` of the
template holds

    ``(x_i^0, y_i^0)   (t + x_i^1, t + y_i^1)   (t + x_i^2, t + y_i^2)``

with the special pair ``(t, t)`` on top.  A template satisfies table
clauses (i) and (ii) by construction.  Clause (iii) can fail for a base with
repeated sums, such as the non-strong order-11 starter
``1,4;2,7;3,5;6,10;8,9`` in one-starter mode.  A key is *admissible* when
clause (iv) (no duplicate pairs) holds; its template is a triplication table
when clause (iii) holds as well.

Specializations:

* one starter:    ``T1 = T0``, ``T2 = conjugate(T0)``;
* three starters: any consistently ordered starters;
* epicycloidal:   ``T1 = [(x_i, mu*x_i)]`` with ``(mu-1)*x_i = i`` and
  ``T2 = conjugate(T1)``.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import (
    InconsistentOrdering,
    InvalidInput,
    KeyNotAdmissible,
    MultiplierNotInvertible,
    SpecialPairViolation,
)
from .pairings import (
    Pairing,
    StarterKind,
    _int,
    _odd_order,
    classify,
    conjugate,
    modinv,
    normalize_ordered,
)
from .tables import TriplicationTable, _check_sums, validate

__all__ = [
    "admissible_keys",
    "build_template",
    "epicycloidal",
    "is_disjoint",
    "is_special_pair",
    "one_starter_table",
    "patterned_starter",
    "template_base_from_spec",
    "template_table",
    "three_starter_table",
]

Pair = tuple[int, int]


def is_special_pair(t1: Pairing, t2: Pairing) -> bool:
    """True when the multiset union of components of ``t1`` and ``t2``
    contains every element of ``Z_m^*`` exactly twice."""
    if t1.modulus != t2.modulus:
        return False
    m = t1.modulus
    counts = Counter(t1.components()) + Counter(t2.components())
    return all(counts.get(c, 0) == 2 for c in range(1, m)) and counts.get(0, 0) == 0


def is_disjoint(t1: Pairing, t2: Pairing) -> bool:
    """True when the pairings share no ordered pair."""
    return not set(t1.pairs) & set(t2.pairs)


def _align_bases(t0: Pairing, t1: Pairing, t2: Pairing) -> tuple[Pairing, ...]:
    """Normalize each base, then swap row ``i`` of all three wherever ``t0``
    holds that pair the other way round, so ``t0``'s (possibly mixed-sign)
    orientation wins.  A base that cannot be normalized is named in the error."""
    if not (t0.modulus == t1.modulus == t2.modulus):
        raise InconsistentOrdering("base pairings have different moduli")
    if not (len(t0) == len(t1) == len(t2)):
        raise InconsistentOrdering("base pairings have different lengths")
    bases = []
    for label, p in (("T0", t0), ("T1", t1), ("T2", t2)):
        try:
            bases.append(normalize_ordered(p))
        except InvalidInput as exc:
            raise InvalidInput(f"{label}: {exc}") from exc
    flip = [pair not in t0.pairs for pair in bases[0]]
    return tuple(
        Pairing(b.modulus, [p[::-1] if f else p for p, f in zip(b, flip)]) for b in bases
    )


def _require_starters(**bases: Pairing) -> None:
    for label, t in bases.items():
        outcome = classify(t)
        if outcome.kind < StarterKind.STARTER:
            raise InvalidInput(f"{label} is not a starter: {outcome.witness}")


def _three_starters(t0: Pairing, t1: Pairing, t2: Pairing) -> tuple[Pairing, ...]:
    _require_starters(T1=t1, T2=t2)
    return t0, t1, t2


def _checked_base(t0: Pairing, t1: Pairing, t2: Pairing) -> tuple[Pairing, ...]:
    t0, t1, t2 = _align_bases(t0, t1, t2)
    _require_starters(T0=t0)
    if not is_special_pair(t1, t2):
        raise SpecialPairViolation(
            "components of (T1, T2) do not cover Z_m^* exactly twice"
        )
    return t0, t1, t2


def _emit(t0: Pairing, t1: Pairing, t2: Pairing, key: int) -> list[Pair]:
    m = t0.modulus
    pairs: list[Pair] = [(key, key)]
    for (x0, y0), (x1, y1), (x2, y2) in zip(t0.pairs, t1.pairs, t2.pairs):
        pairs.append((x0, y0))
        pairs.append(((key + x1) % m, (key + y1) % m))
        pairs.append(((key + x2) % m, (key + y2) % m))
    return pairs


def build_template(t0: Pairing, t1: Pairing, t2: Pairing, key: int) -> tuple[Pair, ...]:
    """Instantiate the template; returns the raw ``3q + 1`` pairs.

    Requires ``t0`` to be a starter and ``(t1, t2)`` a special pair; the key
    must be nonzero.  Clauses (i) and (ii) hold for the result by
    construction.  Clause (iii) is checked and raises :class:`NotATable`
    naming the sum; clause (iv) may fail, so the result is not necessarily a
    valid table.
    """
    t0, t1, t2 = _checked_base(t0, t1, t2)
    m = t0.modulus
    if not 1 <= key < m:
        raise InvalidInput(f"key must lie in 1..{m - 1}, got {key}")
    pairs = _emit(t0, t1, t2, key)
    _check_sums(pairs, m)
    return tuple(pairs)


def admissible_keys(t0: Pairing, t1: Pairing, t2: Pairing) -> frozenset[int]:
    """Keys in ``Z_m^*`` whose template contains no duplicate pair.

    Computed by direct duplicate testing for every key; an empty set is a
    valid answer.  Only clause (iv) is tested: for a base with repeated sums
    an admissible key can still break clause (iii), which
    :func:`template_table` checks.
    """
    t0, t1, t2 = _checked_base(t0, t1, t2)
    m = t0.modulus
    good = []
    for key in range(1, m):
        pairs = _emit(t0, t1, t2, key)
        if len(set(pairs)) == len(pairs):
            good.append(key)
    return frozenset(good)


def template_table(
    t0: Pairing, t1: Pairing, t2: Pairing, key: int
) -> TriplicationTable:
    """The template of one key, built once and validated as a table.

    Raises :class:`KeyNotAdmissible` when ``key`` is not admissible: outside
    ``1..m-1``, or duplicating a pair in the template.  The message names the
    reason and the admissible key set ``K``.
    """
    t0, t1, t2 = _checked_base(t0, t1, t2)
    m = t0.modulus
    if not 1 <= key < m:
        reason = f"lies outside 1..{m - 1}"
    else:
        pairs = _emit(t0, t1, t2, key)
        repeats = [pair for pair, n in Counter(pairs).items() if n > 1]
        if not repeats:
            return validate(pairs, m)
        reason = f"duplicates the pair {repeats[0]} in the template"
    keys = sorted(admissible_keys(t0, t1, t2))
    raise KeyNotAdmissible(f"key {key} is not admissible: it {reason}; K = {keys}")


def one_starter_table(t: Pairing, key: int) -> TriplicationTable:
    """Table built from a single ordered starter: ``(T, T, T')`` plus key."""
    return template_table(t, t, conjugate(t), key)


def three_starter_table(
    t0: Pairing, t1: Pairing, t2: Pairing, key: int
) -> TriplicationTable:
    """Table built from three consistently ordered starters.

    ``t1`` and ``t2`` must be starters (two starters always form a special
    pair) and must differ; a shared pair forces an empty key set.
    """
    return template_table(*_three_starters(t0, t1, t2), key)


def epicycloidal(m: int, mu: int) -> Pairing:
    """The pseudostarter ``[(x_i, mu * x_i)]`` with ``(mu - 1) x_i = i``.

    Defined for ``mu`` in ``2..m-2`` with ``gcd(mu - 1, m) = 1``.  It is
    ordered by construction: pair ``i`` has directed difference ``+i``.
    """
    _odd_order(m)
    if not 2 <= mu <= m - 2:
        raise InvalidInput(f"multiplier must lie in 2..{m - 2}, got {mu}")
    if math.gcd(mu - 1, m) != 1:
        raise MultiplierNotInvertible(f"gcd({mu} - 1, {m}) != 1")
    inv = modinv(mu - 1, m)
    q = (m - 1) // 2
    pairs = []
    for i in range(1, q + 1):
        x = (inv * i) % m
        pairs.append((x, (mu * x) % m))
    return Pairing(m, tuple(pairs))


def patterned_starter(m: int) -> Pairing:
    """The starter ``{(x, m - x)}``; never strong (every pair sums to 0).

    Reordered to the canonical directed-difference form, pair ``i`` having
    difference ``+i``.
    """
    _odd_order(m)
    return normalize_ordered(Pairing(m, ((x, m - x) for x in range(1, (m + 1) // 2))))


def template_base_from_spec(spec: dict) -> tuple[Pairing, Pairing, Pairing]:
    """Resolve a template-spec dict into the base triple ``(T0, T1, T2)``.

    ``spec["mode"]`` selects the construction: ``"one-starter"`` needs
    ``T0``; ``"three-starter"`` needs the starters ``T0``, ``T1``, ``T2``;
    ``"epicycloidal"`` needs ``T0`` and ``mu``.  Pair lists are
    ``[[x, y], ...]`` over ``Z_m``.
    """
    try:
        mode = spec["mode"]
        m = _int(spec["m"], "m")
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed template spec: {exc}") from exc

    def take(name: str) -> Pairing:
        if name not in spec or spec[name] is None:
            raise InvalidInput(f"mode {mode!r} requires {name}")
        return Pairing(m, spec[name])

    if mode == "one-starter":
        t0 = take("T0")
        return t0, t0, conjugate(t0)
    if mode == "three-starter":
        return _three_starters(take("T0"), take("T1"), take("T2"))
    if mode == "epicycloidal":
        t0 = take("T0")
        t1 = epicycloidal(m, _int(spec.get("mu"), "mu"))
        return t0, t1, conjugate(t1)
    raise InvalidInput(f"unknown mode {mode!r}")
