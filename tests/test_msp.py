import hashlib
import itertools
import random
import sys

import pytest

from triplication import (
    BudgetExceeded,
    CongruousTable,
    InvalidInput,
    Pairing,
    Scenario,
    ScenarioMismatch,
    admissible_keys,
    check_congruous,
    compile_instance,
    conjugate,
    one_starter_table,
    random_tt,
    recover_starter,
    solution_from_json,
    solution_to_json,
    solve,
    validate,
)
from triplication.msp import _Search

import golden
from oracles import _groups, gac_closure, solutions_by_color_classes, solutions_literal


def table7():
    return validate(golden.TABLE_7_KEY1, 7)


def chain_tables(steps, budget=None):
    """Tables of the chain 7 -> 21 -> ...: each step builds the one-starter
    table of the last recovered starter with its smallest admissible key and
    solves it under ``carry`` within ``budget`` nodes.  Yields ``(table,
    outcome)``."""
    starter = Pairing(7, ((2, 3), (4, 6), (1, 5)))
    for step in range(steps):
        if step:
            starter = recover_starter(tt, outcome.tables[0], sc)
        keys = admissible_keys(starter, starter, conjugate(starter))
        tt = one_starter_table(starter, min(keys))
        sc = Scenario("carry", tt.m)
        outcome = solve(compile_instance(tt, sc), mode="first", budget=budget)
        yield tt, outcome


def printed_solution_carry():
    return CongruousTable(
        kind="carry", r=3, values=tuple(golden.TABLE_7_KEY1_SOLUTION_CARRY)
    )


# ------------------------------------------------------------------ compile


def test_compile_variable_count_and_domains():
    tt = validate(golden.TABLE_15_KEY4, 15)
    sc = Scenario("mod", 15)
    inst = compile_instance(tt, sc)
    assert inst.n_vars == 44 and inst.n_pairs == 22
    # every candidate discriminator keeps the residue of its position mod 3
    for i, (u, v) in enumerate(tt.pairs):
        assert inst.residues[2 * i : 2 * i + 2] == (u, v)
        mu, mv = golden.TABLE_15_KEY4_COMPAT[i]
        assert all(val % 3 == mu for val in sc.variable_domain(u))
        assert all(val % 3 == mv for val in sc.variable_domain(v))


def test_compile_group_census():
    tt = table7()
    inst = compile_instance(tt, Scenario("carry", 7))
    labels = [g.label for g in inst.groups]
    assert labels.count("row0") == 1
    assert sum(1 for l in labels if l.startswith("row") and l != "row0") == 3
    assert sum(1 for l in labels if l.startswith("weak")) == 4
    assert sum(1 for l in labels if l.startswith("color")) == 7
    zero_groups = [g for g in inst.groups if g.forbid_zero]
    assert {g.label for g in zero_groups} == {"row0", "weak0", "color0"}


def test_compile_rejects_mismatched_scenario():
    with pytest.raises(ScenarioMismatch):
        compile_instance(table7(), Scenario("carry", 9))


# -------------------------------------------------------------------- solve


def test_solutions_are_sound():
    for m in (5, 7, 9, 11):
        tt = random_tt(m, seed=m)
        for kind in ("mod", "carry"):
            sc = Scenario(kind, m)
            out = solve(compile_instance(tt, sc), mode="first")
            assert out.status == "solution"
            assert check_congruous(tt, out.tables[0], sc)


def test_printed_solution_is_congruous():
    assert check_congruous(table7(), printed_solution_carry(), Scenario("carry", 7))


def test_congruity_failure_reports_violations():
    ct = printed_solution_carry()
    broken = CongruousTable(
        kind="carry", r=3, values=((1, 1),) + ct.values[1:]
    )
    report = check_congruous(table7(), broken, Scenario("carry", 7))
    assert not report
    assert any("(1)" in v or "(3)" in v for v in report.violations)


@pytest.mark.parametrize(
    "table, order, kind, position, value, expected",
    [
        ("TABLE_7_KEY1", 7, "carry", (3, 0), 3, "(0) U_3=3 outside 0..2"),
        ("TABLE_7_KEY1", 7, "carry", (2, 0), 0, "(2) weak set 0 contains a zero sum"),
        ("TABLE_7_KEY1", 7, "carry", (5, 1), 0, "(3) color 0 contains value 0"),
        # the lifts of residue 3 in Z_45 have discriminators 3, 0 and 6 mod 9
        ("TABLE_15_KEY4", 15, "mod", (1, 0), 4,
         "(4) (3, 4) not an encoded pair at position U_1"),
    ],
)
def test_congruity_names_each_violation_kind(table, order, kind, position, value,
                                             expected):
    tt = validate(getattr(golden, table), order)
    sc = Scenario(kind, order)
    solution = {"carry": "_SOLUTION_CARRY", "mod": "_SOLUTION_MOD9"}[kind]
    values = [list(v) for v in getattr(golden, table + solution)]
    assert check_congruous(tt, CongruousTable(kind, sc.r, tuple(map(tuple, values))), sc)
    i, side = position
    values[i][side] = value
    report = check_congruous(tt, CongruousTable(kind, sc.r, tuple(map(tuple, values))), sc)
    assert not report
    assert expected in report.violations


def test_congruity_crossed_tables_do_not_pass():
    # a solution for one table fails against a different table of the same
    # order; mismatched sizes raise instead
    wild = validate(golden.WILD_TABLE_7, 7)
    ct = CongruousTable(kind="mod", r=3, values=tuple(golden.WILD_SOLUTION_A))
    assert check_congruous(wild, ct, Scenario("mod", 7))
    ct_wrong = CongruousTable(kind="carry", r=3, values=tuple(golden.WILD_SOLUTION_A))
    assert not check_congruous(table7(), ct_wrong, Scenario("carry", 7))
    with pytest.raises(ScenarioMismatch):
        check_congruous(validate(golden.UNSOLVABLE_11, 11), ct, Scenario("mod", 11))
    with pytest.raises(ScenarioMismatch):
        check_congruous(wild, ct, Scenario("carry", 7))
    with pytest.raises(ScenarioMismatch, match="scenario modulus 9"):
        check_congruous(wild, ct, Scenario("mod", 9))


def test_unsatisfiable_table_is_certified():
    tt = validate(golden.UNSOLVABLE_11, 11)
    out = solve(compile_instance(tt, Scenario("carry", 11)), mode="first")
    assert out.status == "unsat"
    assert out.count == 0 and out.tables == ()


def test_budget_abort_is_distinct_from_unsat():
    for kind in ("mod", "carry"):
        inst = compile_instance(validate(golden.UNSOLVABLE_11, 11), Scenario(kind, 11))
        for budget in (1, 2, 10, 50):
            out = solve(inst, mode="first", budget=budget)
            # an aborted search has expanded exactly its budget of nodes, and
            # its depth counts only the variables it assigned
            assert (out.status, out.stats.nodes) == ("aborted", budget)
            assert out.stats.max_depth <= budget
            if budget <= 10:
                assert out.stats.max_depth == budget


def test_budget_below_one_is_invalid_input():
    inst = compile_instance(table7(), Scenario("carry", 7))
    for budget in (0, -5, 2.5, True):
        for mode in ("first", "all", "count"):
            with pytest.raises(InvalidInput, match="budget"):
                solve(inst, mode=mode, budget=budget)
    assert solve(inst, mode="first", budget=1).status == "aborted"
    unsat = compile_instance(validate(golden.UNSOLVABLE_11, 11), Scenario("mod", 11))
    with pytest.raises(InvalidInput, match="budget must be an integer"):
        solve(unsat, budget=2.5)
    with pytest.raises(InvalidInput, match="unknown mode"):
        solve(inst, mode="any")


@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_search_counters_are_pinned(kind):
    # The exact search: a kernel change that keeps variable and value order
    # and the strength of propagation must expand exactly these nodes.
    for pairs, m, expected in (
        (golden.UNSOLVABLE_11, 11, ("unsat", 28842, 28842, 25)),
        (golden.UNSOLVABLE_13, 13, ("unsat", 25894, 25894, 31)),
    ):
        out = solve(compile_instance(validate(pairs, m), Scenario(kind, m)))
        st = out.stats
        assert (out.status, st.nodes, st.backtracks, st.max_depth) == expected
    if kind == "carry":
        *steps, (tt, last) = chain_tables(4, budget=20000)
        got = [(tt.m, o.stats.nodes, o.stats.backtracks) for tt, o in steps]
        assert got == [(7, 21, 1), (21, 63, 1), (63, 6585, 6397)]
        # m = 189: 566 variables, where the variable choice costs the most
        st = last.stats
        assert tt.m == 189
        assert (last.status, st.nodes, st.backtracks, st.max_depth) == (
            "aborted", 20000, 19526, 525
        )
    if kind == "mod":
        # m = 11 has 3-free part p = 11 = 2 (mod 3): the mod discriminators
        # list the lifts of a residue in the order 0, 2, 1, and so must the
        # search, plain and seeded.
        inst = compile_instance(random_tt(11, 0), Scenario("mod", 11))
        for seed, expected, first in (
            (None, (50, 18), (
                (1, 2), (0, 2), (2, 2), (2, 0), (1, 0), (1, 1), (1, 2), (1, 0),
                (0, 1), (1, 1), (0, 1), (0, 2), (0, 0), (0, 2), (1, 2), (2, 2),
            )),
            (3, (58, 26), (
                (1, 0), (2, 2), (0, 2), (1, 2), (0, 0), (1, 0), (2, 0), (1, 2),
                (1, 1), (1, 0), (1, 1), (1, 0), (1, 2), (2, 2), (0, 2), (2, 0),
            )),
        ):
            out = solve(inst, mode="first", seed=seed)
            assert (out.stats.nodes, out.stats.backtracks) == expected
            assert out.tables[0].values == first


def test_search_depth_is_not_bounded_by_recursion_limit():
    _, (tt, _) = chain_tables(2)
    inst = compile_instance(tt, Scenario("carry", tt.m))
    assert inst.n_vars == 62
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(60)
    try:
        out = solve(inst, mode="first")
    finally:
        sys.setrecursionlimit(limit)
    assert out.status == "solution" and out.stats.nodes == 63
    assert out.stats.max_depth == 62


@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_solution_counts_pinned_where_three_divides_m(kind):
    # m = 9, where 3 | m: counts taken from an exhaustive forward-checking
    # search, and the solution sets checked against the colour-class oracle
    for s, expected in enumerate((162, 84, 72, 204)):
        tt = random_tt(9, 3000 + s)
        sc = Scenario(kind, 9)
        out = solve(compile_instance(tt, sc), mode="all")
        assert out.count == len(set(out.tables)) == expected
        assert all(check_congruous(tt, ct, sc) for ct in out.tables)
        assert {ct.values for ct in out.tables} == solutions_by_color_classes(tt, sc)


def test_solve_modes_are_consistent():
    tt = table7()
    inst = compile_instance(tt, Scenario("carry", 7))
    all_out = solve(inst, mode="all")
    count_out = solve(inst, mode="count")
    first_out = solve(inst, mode="first")
    assert all_out.status == count_out.status == first_out.status == "solution"
    assert all_out.count == count_out.count == len(all_out.tables) == 216
    assert first_out.tables[0] in all_out.tables
    assert len(set(all_out.tables)) == all_out.count


def test_solve_all_limit_guard():
    inst = compile_instance(table7(), Scenario("carry", 7))
    out = solve(inst, mode="all", limit=10)
    assert out.status == "aborted" and out.count == 10
    for mode in ("all", "count"):
        for limit in (0, -3):
            with pytest.raises(InvalidInput):
                solve(inst, mode=mode, limit=limit)


def test_solve_is_deterministic():
    inst = compile_instance(table7(), Scenario("carry", 7))
    a = solve(inst, mode="first")
    b = solve(inst, mode="first")
    assert a.tables == b.tables and a.stats.nodes == b.stats.nodes
    s1 = solve(inst, mode="first", seed=99)
    s2 = solve(inst, mode="first", seed=99)
    assert s1.tables == s2.tables


def test_solution_set_is_seed_invariant():
    # value-order shuffling changes which solution comes first, never the
    # complete solution set
    inst = compile_instance(table7(), Scenario("carry", 7))
    base = set(solve(inst, mode="all").tables)
    for seed in (1, 2, 3):
        assert set(solve(inst, mode="all", seed=seed).tables) == base


def test_seeded_value_order_reaches_other_solutions():
    inst = compile_instance(table7(), Scenario("carry", 7))
    base = solve(inst, mode="first").tables[0]
    assert any(
        solve(inst, mode="first", seed=s).tables[0] != base for s in range(8)
    )


def test_printed_solution_among_enumerated():
    inst = compile_instance(table7(), Scenario("carry", 7))
    out = solve(inst, mode="all")
    assert printed_solution_carry() in out.tables


def test_wild_table_admits_both_known_solutions():
    wild = validate(golden.WILD_TABLE_7, 7)
    out = solve(compile_instance(wild, Scenario("mod", 7)), mode="all")
    values = {t.values for t in out.tables}
    assert out.count >= 2
    assert tuple(golden.WILD_SOLUTION_A) in values
    assert tuple(golden.WILD_SOLUTION_B) in values


# ----------------------------------------------------- oracle cross-checks


@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_solver_matches_color_class_oracle(kind):
    for m, seeds in ((5, (0, 1, 2)), (7, (0, 1))):
        for seed in seeds:
            tt = random_tt(m, seed=seed)
            sc = Scenario(kind, m)
            got = {t.values for t in solve(compile_instance(tt, sc), mode="all").tables}
            assert got == solutions_by_color_classes(tt, sc)


@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_color_class_oracle_matches_literal_enumeration(kind):
    # the factored oracle is itself validated against the unfactored
    # 3^(2N) sweep at the smallest order
    tt = random_tt(5, seed=3)
    sc = Scenario(kind, 5)
    assert solutions_by_color_classes(tt, sc) == solutions_literal(tt, sc)


def _lifts(domain):
    """The lift indices left at each variable, as sets, read off the nibbles
    of the pair bytes; the last byte is the free slot."""
    return [{k for k in range(3) if d >> s >> k & 1} for d in domain[:-1] for s in (4, 0)]


def _set_lifts(domain, j, lifts, assign=False):
    """Write the set ``lifts`` into the nibble of variable ``j``, marked
    assigned if ``assign``, as the search marks the lift it tries."""
    shift = 4 - 4 * (j & 1)
    nibble = sum(1 << k for k in lifts) | 8 * assign
    domain[j >> 1] = domain[j >> 1] & 15 << 4 - shift | nibble << shift


@pytest.mark.parametrize("m", [7, 9, 11])
def test_propagation_reaches_the_gac_closure(m):
    """From random reachable states, ``_Search._propagate`` prunes every
    group to the brute-force GAC closure, or wipes out exactly when it
    does.  It only clears lift bits: no assigned bit changes, a byte's
    other side keeps what the closure keeps, and the free slot stays."""
    rng = random.Random(m)
    checked = wipeouts = 0
    for seed, kind in ((0, "mod"), (1, "carry"), (2, "mod")):
        tt = random_tt(m, seed=seed)
        sc = Scenario(kind, m)
        inst = compile_instance(tt, sc)
        nv = inst.n_vars
        for _ in range(4):
            search = _Search(inst)
            domain = search.domain
            # Root: prune a few random lifts at once, then revise every group.
            for j in rng.sample(range(nv), 3):
                _set_lifts(domain, j, {0, 1, 2} - {rng.randrange(3)})
            pending = set(range(len(search.groups)))
            while True:
                before = bytes(domain)
                closure = gac_closure(tt, sc, _lifts(domain))
                if search._propagate(pending) is not None:
                    assert closure is None
                    wipeouts += 1
                    break
                assert closure is not None
                lifts = _lifts(domain)
                assert lifts == closure
                assert all(new & ~old == 0 and (new ^ old) & 0x88 == 0
                           for old, new in zip(before, domain))
                assert domain[-1] == 0x88
                checked += 1
                # Prune one lift of an open variable, assigning it if one
                # lift is left: only its side's groups change.
                open_vars = [j for j in range(nv) if len(lifts[j]) > 1]
                if not open_vars:
                    break
                j = rng.choice(open_vars)
                left = lifts[j] - {rng.choice(sorted(lifts[j]))}
                _set_lifts(domain, j, left, assign=len(left) == 1)
                pending = set(search.side_groups[j >> 1][j & 1])
    assert checked > 10 and wipeouts > 0


@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_wipe_out_names_a_group_without_support(kind):
    """``_propagate`` returns the group that wiped out: brute force over the
    domains it leaves finds no joint value of that group alone."""
    rng = random.Random(kind)
    named = 0
    for tt in (validate(golden.UNSOLVABLE_11, 11), random_tt(9, seed=5)):
        sc = Scenario(kind, tt.m)
        inst = compile_instance(tt, sc)
        residues = inst.residues
        # The oracle's groups, in the solver's order, matched by variables.
        oracle = {frozenset(group[0]): group for group in _groups(tt, sc)}
        aligned = [
            oracle.pop(frozenset(j for a, b, _ in g.terms for j in (a, b) if j >= 0))
            for g in inst.groups
        ]
        assert not oracle
        for _ in range(20):
            search = _Search(inst)
            domain = search.domain
            pending = set(range(len(search.groups)))
            # Assign random lifts, as the search does, until a wipe-out.
            while (g := search._propagate(pending)) is None:
                lifts = _lifts(domain)
                open_vars = [j for j in range(inst.n_vars) if len(lifts[j]) > 1]
                if not open_vars:
                    break
                j = rng.choice(open_vars)
                _set_lifts(domain, j, {rng.choice(sorted(lifts[j]))}, assign=True)
                pending = set(search.side_groups[j >> 1][j & 1])
            else:
                variables, nonzero, values = aligned[g]
                lifts = _lifts(domain)
                for ks in itertools.product(*(sorted(lifts[j]) for j in variables)):
                    ws = values([residues[j] + k * tt.m for j, k in zip(variables, ks)])
                    assert len(set(ws)) < len(ws) or (nonzero and 0 in ws)
                named += 1
    assert named >= 10


# ---------------------------------------------------------------- random_tt


def test_random_tt_validates_and_is_reproducible():
    for m in (5, 7, 9, 11, 13, 15, 17, 19):
        a = random_tt(m, seed=2024)
        b = random_tt(m, seed=2024)
        assert a == b and a.m == m  # output of validate() by construction


def test_random_tt_varies_with_seed():
    assert any(random_tt(9, seed=s) != random_tt(9, seed=0) for s in range(1, 5))


def test_random_tt_guards():
    with pytest.raises(InvalidInput):
        random_tt(3)
    with pytest.raises(BudgetExceeded):
        random_tt(15, seed=0, budget=5)
    for budget in (0, -5, 1.5, True):
        with pytest.raises(InvalidInput, match="budget"):
            random_tt(7, seed=1, budget=budget)
    with pytest.raises(InvalidInput, match="budget"):
        random_tt(41, seed=0, budget=1.5)


def test_random_tt_stream_is_pinned():
    """The tables each seed yields, and where a budget cuts sampling off,
    are fixed: experiments name their tables by ``(m, seed)``."""
    digest = hashlib.sha256()
    for m in range(5, 16, 2):
        for seed in range(40):
            digest.update(repr(random_tt(m, seed).pairs).encode())
    # budgets just above and below the placements a seed needs: most abort,
    # a few finish, so the placement count at which each ends is pinned too
    for m, budget in ((13, 300), (17, 1000)):
        for seed in range(20):
            try:
                outcome = repr(random_tt(m, seed, budget=budget).pairs)
            except BudgetExceeded as exc:
                outcome = str(exc)
            digest.update(outcome.encode())
    assert digest.hexdigest() == (
        "77f6c654ae439b64b032de5010140b2f507cabe458928963f409560d97f2e0fd"
    )


def test_random_tt_stream_is_pinned_where_sample_runs():
    """The same pin at the orders of the benchmark's ``sample`` workload,
    where the doubled bitsets are wider than 60 bits."""
    digest = hashlib.sha256()
    orders = ((17, range(8)), (21, (0, 1, 3, 8)), (25, (3, 4, 7, 8)), (31, (1, 6)))
    for m, seeds in orders:
        for seed in seeds:
            digest.update(repr(random_tt(m, seed, budget=None).pairs).encode())
    # m = 25 seeds 7 and 8 need 8,890 and 2,101 placements, seed 13 needs 9,322
    for seed, budget in ((7, 8889), (7, 8890), (8, 2100), (8, 2101), (13, 9000)):
        try:
            outcome = repr(random_tt(25, seed, budget=budget).pairs)
        except BudgetExceeded as exc:
            outcome = str(exc)
        digest.update(outcome.encode())
    assert digest.hexdigest() == (
        "83efc91a81106e48134008ae0867a6a510ca1f1035494b807918b47a2edcf947"
    )


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_inlined_draw_matches_randrange(seed):
    """``random_tt`` draws its indices from ``getrandbits`` the way CPython's
    ``randrange`` does; this pins that reading of ``random``."""

    def draw(getrandbits, n):
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    ours = random.Random(seed)
    theirs = random.Random(seed)
    for n in range(1, 71):
        assert draw(ours.getrandbits, n) == theirs.randrange(n)
        # the key draw, randrange(1, m) with n = m - 1
        assert 1 + draw(ours.getrandbits, n) == theirs.randrange(1, n + 1)
    assert ours.getstate() == theirs.getstate()


# --------------------------------------------------------------------- json


def test_solution_json_round_trip():
    ct = printed_solution_carry()
    doc = solution_to_json(ct)
    assert doc["scenario"] == "carry" and doc["r"] == 3
    assert doc["rows"][0] == [[0, 1]]
    assert solution_from_json(doc) == ct
    flat = [p for row in doc["rows"] for p in row]
    for rows in ([flat], [[p] for p in flat]):
        with pytest.raises(InvalidInput, match="rows must be"):
            solution_from_json({**doc, "rows": rows})
    # Only a kind and an r that some scenario has are read.
    for kind, r, match in (("bogus", -3, "unknown scenario kind 'bogus'"),
                           ("carry", 27, "no carry scenario has r = 27"),
                           ("mod", 1, "no mod scenario has r = 1"),
                           ("mod", 15, "no mod scenario has r = 15")):
        with pytest.raises(InvalidInput, match=match):
            solution_from_json({**doc, "scenario": kind, "r": r})
    assert solution_from_json({**doc, "scenario": "mod", "r": 27}).r == 27
    # A length other than 3q + 1 has no row layout to write.
    with pytest.raises(InvalidInput, match="5 pairs"):
        solution_to_json(CongruousTable("carry", 3, ct.values[:5]))
