import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplication import (
    CongruousTable,
    IncompatibleResidues,
    InputNotStrongStarter,
    NotCongruous,
    Pairing,
    Scenario,
    ScenarioMismatch,
    StarterKind,
    canonical_unordered,
    check_congruous,
    classify,
    induce_from_starter,
    random_tt,
    recover_starter,
    round_trip,
    solve,
    starter_from_json,
    starter_to_json,
    validate,
)
from triplication import tables
from triplication.msp import compile_instance

import golden


# ---------------------------------------------------------------------- crt
# Decoding a mod-scenario encoding is the Chinese-remainder lift with moduli
# ``m`` and ``r``: the ``x`` in ``Z_{3m}`` with ``x = u (mod m)``, ``x = U (mod r)``.


def test_crt_worked_example():
    assert Scenario("mod", 45).decode((22, 13)) == 67


def test_crt_coprime_case():
    assert Scenario("mod", 7).decode((1, 2)) == 8
    assert Scenario("mod", 45).decode((0, 0)) == 0


def test_crt_incompatible():
    with pytest.raises(IncompatibleResidues):
        Scenario("mod", 15).decode((1, 3))  # 1 != 3 mod 3


def test_crt_agrees_with_scan_for_table_moduli():
    for m in (7, 9, 15, 45):
        sc = Scenario("mod", m)
        h = sc.r
        for u in range(m):
            for U in range(h):
                want = [x for x in range(3 * m) if x % m == u and x % h == U]
                if (u - U) % math.gcd(m, h):
                    assert not want
                    with pytest.raises(IncompatibleResidues):
                        sc.decode((u, U))
                else:
                    assert sc.decode((u, U)) == want[0]


@given(
    st.sampled_from(["mod", "carry"]),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=300)
def test_crt_matches_any_integer_projection(kind, half, x):
    # encoding any element of Z_{3m} and decoding it gives it back
    sc = Scenario(kind, 2 * half + 1)
    x %= sc.n
    assert sc.decode(sc.encode(x)) == x


# ----------------------------------------------------------------- recovery


def test_recover_printed_carry_solution():
    tt = validate(golden.TABLE_7_KEY1, 7)
    ct = CongruousTable(kind="carry", r=3, values=tuple(golden.TABLE_7_KEY1_SOLUTION_CARRY))
    starter = recover_starter(tt, ct, Scenario("carry", 7))
    assert starter.pairs == tuple(golden.TABLE_7_KEY1_RECOVERED)
    assert canonical_unordered(starter) == tuple(
        sorted(tuple(sorted(p)) for p in golden.TABLE_7_KEY1_RECOVERED)
    )


def test_recover_printed_mod9_solution():
    tt = validate(golden.TABLE_15_KEY4, 15)
    ct = CongruousTable(kind="mod", r=9, values=tuple(golden.TABLE_15_KEY4_SOLUTION_MOD9))
    starter = recover_starter(tt, ct, Scenario("mod", 15))
    assert starter.pairs == tuple(golden.TABLE_15_KEY4_RECOVERED)
    assert starter.modulus == 45
    assert classify(starter).kind == StarterKind.STRONG_STARTER


def test_recover_both_wild_solutions():
    tt = validate(golden.WILD_TABLE_7, 7)
    sc = Scenario("mod", 7)
    for sol, expected in (
        (golden.WILD_SOLUTION_A, golden.WILD_RECOVERED_A),
        (golden.WILD_SOLUTION_B, golden.WILD_RECOVERED_B),
    ):
        ct = CongruousTable(kind="mod", r=3, values=tuple(sol))
        assert recover_starter(tt, ct, sc).pairs == tuple(expected)
    # the first solution decodes to the starter that induced the table
    assert canonical_unordered(Pairing(21, golden.WILD_RECOVERED_A)) == (
        canonical_unordered(Pairing(21, golden.WILD_STARTER_21))
    )


def test_recover_rejects_non_congruous_input():
    tt = validate(golden.TABLE_7_KEY1, 7)
    vals = list(golden.TABLE_7_KEY1_SOLUTION_CARRY)
    vals[0] = (1, 1)
    with pytest.raises(NotCongruous):
        recover_starter(
            tt, CongruousTable(kind="carry", r=3, values=tuple(vals)), Scenario("carry", 7)
        )


# --------------------------------------------------------------- round trip


@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_round_trip_wild_starter(kind, monkeypatch):
    s = Pairing(21, golden.WILD_STARTER_21)
    sc = Scenario(kind, 7)
    calls = []
    monkeypatch.setattr(tables, "classify", lambda p: calls.append(p) or classify(p))
    tt, ct = round_trip(s, sc)
    assert calls == [s]  # the starter is classified and arranged once
    assert tt == induce_from_starter(s)
    assert check_congruous(tt, ct, sc)
    back = recover_starter(tt, ct, sc)
    assert canonical_unordered(back) == canonical_unordered(s)


def test_round_trip_rejects_weak_input():
    with pytest.raises(InputNotStrongStarter):
        round_trip(Pairing(21, [(x, 21 - x) for x in range(1, 11)]), Scenario("mod", 7))


@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_round_trip_rejects_a_scenario_of_another_order(kind):
    with pytest.raises(ScenarioMismatch, match="does not match scenario order 27"):
        round_trip(Pairing(21, golden.WILD_STARTER_21), Scenario(kind, 9))


def test_round_trip_order27_samples():
    sc = Scenario("mod", 9)
    for key, pairs in golden.ORDER_27_SAMPLES.items():
        s = Pairing(27, pairs)
        assert classify(s).kind == StarterKind.STRONG_STARTER
        tt, ct = round_trip(s, sc)
        assert tt.key == key  # the special pair remembers its key
        back = recover_starter(tt, ct, sc)
        assert canonical_unordered(back) == canonical_unordered(s)


def test_round_trip_on_solver_output():
    for m, kind in ((5, "carry"), (7, "mod"), (9, "mod"), (11, "carry")):
        tt = random_tt(m, seed=77 + m)
        sc = Scenario(kind, m)
        out = solve(compile_instance(tt, sc), mode="first")
        s = recover_starter(tt, out.tables[0], sc)
        tt2, ct2 = round_trip(s, sc)
        assert canonical_unordered(recover_starter(tt2, ct2, sc)) == (
            canonical_unordered(s)
        )


def test_recovered_starter_induces_the_source_table():
    # solver output decoded to a starter induces the table it came from
    from triplication import equivalent, induce_from_starter

    for m, kind in ((7, "carry"), (9, "mod"), (11, "mod")):
        tt = random_tt(m, seed=m * 3 + 1)
        sc = Scenario(kind, m)
        out = solve(compile_instance(tt, sc), mode="first")
        s = recover_starter(tt, out.tables[0], sc)
        assert equivalent(induce_from_starter(s), tt)


def test_aligned_projections_are_congruous_for_enumerated_starters():
    # projecting any strong starter onto its table pair always satisfies
    # the constraints; exhaustive over all starters of orders 15 and 21
    from triplication import enumerate_strong_starters

    for order in (15, 21):
        m = order // 3
        for s in enumerate_strong_starters(order, allow_large=True):
            for kind in ("mod", "carry"):
                sc = Scenario(kind, m)
                tt, ct = round_trip(s, sc)
                assert check_congruous(tt, ct, sc)


def test_recovered_starters_classify_strong_small_sample():
    # exactness of the guarantee on a quick sample; the full thousand-case
    # sweep lives in the acceptance suite
    done = 0
    for m in (5, 7, 9, 11):
        for seed in range(10):
            tt = random_tt(m, seed=seed)
            sc = Scenario("carry", m)
            out = solve(compile_instance(tt, sc), mode="first")
            if out.status != "solution":
                continue
            s = recover_starter(tt, out.tables[0], sc)
            assert classify(s).kind == StarterKind.STRONG_STARTER
            done += 1
    assert done >= 35


# --------------------------------------------------------------------- json


def test_starter_json_round_trip():
    s = Pairing(21, golden.WILD_STARTER_21)
    doc = starter_to_json(s, provenance={"note": "test"})
    assert doc["order"] == 21 and doc["provenance"]["note"] == "test"
    assert starter_from_json(doc) == s
