"""Independent checks of the benchmark's outputs.

Written from the definitions alone; nothing here calls or copies
``triplication.pairings.classify`` or ``triplication.tables.validate``, so a
fault in either cannot hide itself.  Each function returns a list of faults;
an empty list means the object passes.
"""

from __future__ import annotations

from collections import Counter

Pair = tuple[int, int]


def strong_starter_faults(n: int, pairs: list[Pair]) -> list[str]:
    """Faults that stop ``pairs`` being a strong starter in ``Z_n``.

    The pairs must partition ``Z_n \\ {0}``, their ``+-`` differences must
    cover each nonzero residue exactly once, and their sums must be distinct
    and nonzero.
    """
    if n < 3 or n % 2 == 0:
        return [f"order {n} is not odd and >= 3"]
    faults = []
    if len(pairs) != (n - 1) // 2:
        faults.append(f"{len(pairs)} pairs, expected {(n - 1) // 2}")
    elements = Counter(x % n for pair in pairs for x in pair)
    if set(elements) != set(range(1, n)) or any(k != 1 for k in elements.values()):
        faults.append("pairs do not partition the nonzero residues")
    differences = Counter(d for x, y in pairs for d in ((x - y) % n, (y - x) % n))
    if set(differences) != set(range(1, n)) or any(k != 1 for k in differences.values()):
        faults.append("differences do not cover each nonzero residue once")
    sums = [(x + y) % n for x, y in pairs]
    if len(set(sums)) != len(sums):
        faults.append("pair sums are not distinct")
    if 0 in sums:
        faults.append("a pair sums to 0")
    return faults


def reduction_faults(m: int, starter: list[Pair], table: list[Pair]) -> list[str]:
    """Faults where pair ``i`` of the starter does not reduce mod ``m`` to
    pair ``i`` of the table."""
    if len(starter) != len(table):
        return [f"starter has {len(starter)} pairs, table has {len(table)}"]
    return [
        f"pair {i}: {(x, y)} mod {m} is not {tuple(t)}"
        for i, ((x, y), t) in enumerate(zip(starter, table))
        if (x % m, y % m) != tuple(t)
    ]


def table_faults(m: int, pairs: list[Pair]) -> list[str]:
    """Faults against clauses (i)-(iv) of a triplication table over ``Z_m``."""
    if m < 3 or m % 2 == 0:
        return [f"order {m} is not odd and >= 3"]
    q = (m - 1) // 2
    if len(pairs) != 3 * q + 1:
        return [f"{len(pairs)} pairs, expected {3 * q + 1}"]
    if any(not (0 <= c < m) for pair in pairs for c in pair):
        return [f"a component lies outside 0..{m - 1}"]
    faults = []
    # (i) every nonzero value three times, 0 twice
    values = Counter(c for pair in pairs for c in pair)
    for c in range(m):
        if values[c] != (2 if c == 0 else 3):
            faults.append(f"(i) value {c} occurs {values[c]} times")
    # (ii) special pair (t, t) with t != 0, then rows of one directed difference +-d
    t, t2 = pairs[0]
    if t != t2 or t == 0:
        faults.append(f"(ii) pair 0 is {pairs[0]}, not (t, t) with t != 0")
    for d in range(1, q + 1):
        directed = {(v - u) % m for u, v in pairs[3 * d - 2 : 3 * d + 1]}
        if directed not in ({d}, {m - d}):
            faults.append(f"(ii) row {d} has directed differences {sorted(directed)}")
    # (iii) at most three pairs per nonzero sum, at most two with sum 0
    for s, k in Counter((u + v) % m for u, v in pairs).items():
        if k > (2 if s == 0 else 3):
            faults.append(f"(iii) {k} pairs have sum {s}")
    # (iv) no repeated ordered pair
    for pair, k in Counter(map(tuple, pairs)).items():
        if k > 1:
            faults.append(f"(iv) pair {pair} occurs {k} times")
    return faults
