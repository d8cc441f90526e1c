"""The benchmark's workloads: fixed inputs and one round of work each.

A round calls the library only through ``lib``, a namespace of its public
functions, so that a traced run can time each call at the layer boundary.
It appends one :class:`Decision` per table to ``out`` as it goes, so that a
round cut short by an exception still shows which operations ended; the
checks in ``checker`` run on the decisions after the round, outside the
timed span.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checker import reduction_faults, strong_starter_faults, table_faults

# The paper's two exceptional tables: valid triplication tables whose
# constraint problems have no solution under either scenario.
UNSOLVABLE_11 = (
    (7, 7),
    (1, 2), (10, 0), (7, 8),
    (4, 6), (3, 5), (1, 3),
    (6, 9), (1, 4), (10, 2),
    (6, 10), (5, 9), (4, 8),
    (0, 5), (8, 2), (9, 3),
)
UNSOLVABLE_13 = (
    (10, 10),
    (3, 4), (10, 11), (4, 5),
    (9, 11), (3, 5), (12, 1),
    (1, 4), (8, 11), (5, 8),
    (2, 6), (9, 0), (3, 7),
    (2, 7), (9, 1), (7, 12),
    (2, 8), (6, 12), (0, 6),
)
UNSAT_SEARCHES = tuple(
    (m, pairs, kind)
    for m, pairs in ((11, UNSOLVABLE_11), (13, UNSOLVABLE_13))
    for kind in ("mod", "carry")
)

# Strong starter of order 7 that starts the chain 7 -> 21 -> 63 -> 189.
BASE_STARTER_7 = ((2, 3), (4, 6), (1, 5))
CHAIN_STEPS = 3

# (order, random_tt seed) of each sampled table; every one is solvable.
SAMPLE_TABLES = tuple((25, s) for s in range(4)) + tuple((31, s) for s in range(2))


@dataclass(frozen=True)
class Decision:
    """What one table came to: ``status`` is the solver's verdict, and
    ``starter`` the recovered ``Pairing`` when there is one."""

    label: str
    m: int
    kind: str
    table: tuple[tuple[int, int], ...]
    status: str
    starter: object = None


def make_inputs(workload: str, seed: int) -> list:
    """The operations of one round, in the order the seed sets.

    The work is the same for every seed, so that figures from different
    seeds compare; only the order of independent operations changes.  The
    chain of ``iterate`` has a single order.
    """
    if workload == "iterate":
        return [BASE_STARTER_7]
    ops = list(UNSAT_SEARCHES if workload == "unsat_cert" else SAMPLE_TABLES)
    random.Random(seed).shuffle(ops)
    return ops


def unsat_cert(lib, ops, out: list[Decision]) -> None:
    """Validate each exceptional table and search it exhaustively."""
    for m, pairs, kind in ops:
        tt = lib.validate(list(pairs), m)
        outcome = lib.solve(lib.compile_instance(tt, lib.Scenario(kind, m)))
        out.append(Decision(f"unsat{m}", m, kind, tt.pairs, outcome.status))


def _solve_and_recover(lib, label: str, tt, sc) -> Decision:
    outcome = lib.solve(lib.compile_instance(tt, sc), mode="first")
    starter = None
    if outcome.status == "solution":
        starter = lib.recover_starter(tt, outcome.tables[0], sc)
    return Decision(label, tt.m, sc.kind, tt.pairs, outcome.status, starter)


def iterate(lib, ops, out: list[Decision]) -> None:
    """Triplicate the order-7 starter three times, each step taking the last
    recovered starter as its base, with the smallest admissible key."""
    (base,) = ops
    starter = lib.Pairing(7, base)
    for _ in range(CHAIN_STEPS):
        keys = lib.admissible_keys(starter, starter, lib.conjugate(starter))
        tt = lib.one_starter_table(starter, min(keys))
        decision = _solve_and_recover(lib, f"chain{tt.m}", tt, lib.Scenario("carry", tt.m))
        out.append(decision)
        if decision.starter is None:
            return
        starter = decision.starter


def sample(lib, ops, out: list[Decision]) -> None:
    """Sample each seeded table, solve it for a first solution, recover."""
    for m, seed in ops:
        tt = lib.random_tt(m, seed, budget=None)
        sc = lib.Scenario("mod" if seed % 2 == 0 else "carry", m)
        out.append(_solve_and_recover(lib, f"sample{m}s{seed}", tt, sc))


def check(workload: str, decisions: list[Decision]) -> list[str]:
    """Faults in a round's decisions, judged by properties the method must
    have rather than by a copy of earlier output."""
    faults = []
    for d in decisions:
        where = f"{d.label} ({d.kind})"
        faults += [f"{where}: {f}" for f in table_faults(d.m, d.table)]
        if workload == "unsat_cert":
            # Both tables are known to be unsolvable, so every search must
            # say so, and mod and carry then agree.
            if d.status != "unsat":
                faults.append(f"{where}: {d.status}, expected unsat")
        elif d.starter is None:
            faults.append(f"{where}: {d.status}, expected a starter")
        else:
            pairs = list(d.starter.pairs)
            faults += [f"{where}: {f}" for f in strong_starter_faults(3 * d.m, pairs)]
            faults += [f"{where}: {f}" for f in reduction_faults(d.m, pairs, d.table)]
    if workload == "iterate":
        orders = [d.m for d in decisions]
        if orders != [7 * 3**i for i in range(len(orders))]:
            faults.append(f"chain orders {orders} do not triple from 7")
    return faults


ROUNDS = {"unsat_cert": unsat_cert, "iterate": iterate, "sample": sample}
OPS_PER_ROUND = {
    "unsat_cert": len(UNSAT_SEARCHES),
    "iterate": CHAIN_STEPS,
    "sample": len(SAMPLE_TABLES),
}
