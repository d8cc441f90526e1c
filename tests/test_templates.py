import math

import pytest

from triplication import (
    InvalidInput,
    KeyNotAdmissible,
    MultiplierNotInvertible,
    NotATable,
    Pairing,
    StarterKind,
    admissible_keys,
    build_template,
    classify,
    conjugate,
    enumerate_strong_starters,
    epicycloidal,
    equivalent,
    is_disjoint,
    is_special_pair,
    one_starter_table,
    patterned_starter,
    sums,
    template_base_from_spec,
    template_table,
    three_starter_table,
    validate,
)
from triplication.errors import InconsistentOrdering, SpecialPairViolation

import golden


def one_starter_base(pairs, m):
    t = Pairing(m, pairs)
    return t, t, conjugate(t)


def enumerate_starters(m):
    """All starters of order m (not only strong), as unordered partitions."""
    q = (m - 1) // 2
    out = []

    def extend(used, class_used, chosen):
        if len(chosen) == q:
            out.append(Pairing(m, tuple(chosen)))
            return
        x = next(e for e in range(1, m) if e not in used)
        for y in range(1, m):
            if y == x or y in used:
                continue
            c = min((y - x) % m, (x - y) % m)
            if c in class_used:
                continue
            extend(used | {x, y}, class_used | {c}, chosen + [(x, y)])

    extend(set(), set(), [])
    # dedup orientations: x < y enforced by construction order? not quite,
    # so dedup by canonical unordered form
    seen = set()
    unique = []
    for p in out:
        key = tuple(sorted(tuple(sorted(pair)) for pair in p.pairs))
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


# ----------------------------------------------------------------- template


def test_template_matches_printed_one_starter_layout():
    t0, t1, t2 = one_starter_base(golden.STARTER_7_A, 7)
    raw = build_template(t0, t1, t2, 3)
    assert raw == tuple(golden.TEMPLATE_7_KEY3)


def test_template_matches_printed_pseudostarter_layout():
    t0 = Pairing(7, golden.STARTER_7_A)
    t1 = epicycloidal(7, 2)
    raw = build_template(t0, t1, conjugate(t1), 3)
    assert raw == tuple(golden.TEMPLATE_7_EPI2_KEY3)
    validate(raw, 7)


def test_template_rejects_zero_key():
    t0, t1, t2 = one_starter_base(golden.STARTER_7_A, 7)
    with pytest.raises(InvalidInput):
        build_template(t0, t1, t2, 0)


def test_template_rejects_non_starter_column0():
    bad = Pairing(7, golden.EPI_7[2])  # pseudostarter only
    with pytest.raises(InvalidInput):
        build_template(bad, bad, conjugate(bad), 1)


def test_template_rejects_non_special_pair():
    # a pseudostarter paired with itself misses half of Z_m^*
    t0 = Pairing(7, golden.STARTER_7_A)
    e2 = epicycloidal(7, 2)
    with pytest.raises(SpecialPairViolation):
        build_template(t0, e2, e2, 1)


def test_starter_with_itself_is_special_but_keyless():
    # two copies of one starter cover Z_m^* twice, yet share every pair,
    # so no key avoids duplicates
    t0 = Pairing(7, golden.STARTER_7_A)
    assert is_special_pair(t0, t0)
    assert admissible_keys(t0, t0, t0) == frozenset()


def test_template_with_repeated_sums_raises_clause_iii():
    # a non-strong base can break clause (iii) under a key that clause (iv)
    # admits; the template reports it instead of asserting
    s = Pairing(11, ((1, 4), (2, 7), (3, 5), (6, 10), (8, 9)))
    t = Pairing(7, ((2, 3), (4, 6), (1, 5)))
    for base, sum_ in (((s, s, conjugate(s)), 8), ((t, t, patterned_starter(7)), 2)):
        assert 1 in admissible_keys(*base)
        with pytest.raises(NotATable) as exc:
            build_template(*base, 1)
        assert exc.value.clause == "iii"
        assert f"sum {sum_} occurs 4 times" in exc.value.detail


def test_template_preserves_base_orientation():
    # the one-starter table over the sign-mixed writing keeps that writing
    tt = one_starter_table(Pairing(7, golden.STARTER_7_B), 1)
    assert tt.pairs == tuple(golden.TABLE_7_KEY1)
    assert tt.signs == (1, 1, -1)


@pytest.mark.parametrize(
    "t0, t1, t2, match",
    [
        (((1, 1), (4, 6), (1, 5)), None, None, "T0: zero difference"),
        (None, ((2, 3), (4, 5), (1, 5)), None, "T1: difference class 1 repeats"),
        (((2, 3), (4, 6)), ((2, 3), (4, 6)), ((2, 3), (1, 5)),
         r"T2: difference classes \[1, 3\] do not form 1..2"),
    ],
)
def test_template_rejects_unalignable_base_naming_it(t0, t1, t2, match):
    # a base whose difference classes are not exactly 1..q cannot be aligned
    t = golden.STARTER_7_A
    base = [Pairing(7, p or t) for p in (t0, t1, t2)]
    for build in (admissible_keys, lambda *b: build_template(*b, 1)):
        with pytest.raises(InvalidInput, match=match):
            build(*base)


def test_template_rejects_bases_of_different_order_or_length():
    t = Pairing(7, golden.STARTER_7_A)
    with pytest.raises(InconsistentOrdering, match="moduli"):
        admissible_keys(t, Pairing(9, golden.STARTER_9), t)
    with pytest.raises(InconsistentOrdering, match="lengths"):
        admissible_keys(t, t, Pairing(7, golden.STARTER_7_A[:2]))


def test_three_starter_rejects_pseudostarter_on_every_path():
    # (T1, T2) is a special pair of pseudostarters (T1 repeats 2, T2 repeats
    # 5): template_table takes it, the three-starter paths do not
    t0, t1, t2 = (Pairing(7, p) for p in (
        golden.STARTER_7_B, ((1, 2), (2, 4), (3, 6)), ((5, 6), (3, 5), (1, 4))))
    assert is_special_pair(t1, t2)
    assert template_table(t0, t1, t2, 3).key == 3
    spec = {"mode": "three-starter", "m": 7,
            "T0": list(t0.pairs), "T1": list(t1.pairs), "T2": list(t2.pairs)}
    for build in (lambda: three_starter_table(t0, t1, t2, 3),
                  lambda: template_base_from_spec(spec),
                  lambda: three_starter_table(t0, t2, t1, 3)):
        with pytest.raises(InvalidInput, match="T1 is not a starter: element"):
            build()
    with pytest.raises(InvalidInput, match="T2 is not a starter"):
        three_starter_table(t0, t0, t1, 3)


# --------------------------------------------------------------------- keys


def test_admissible_keys_for_order9_starter():
    assert set(admissible_keys(*one_starter_base(golden.STARTER_9, 9))) == (
        golden.STARTER_9_KEYS
    )


def test_admissible_keys_complement_of_sums():
    t = Pairing(7, golden.STARTER_7_A)
    assert set(sums(t)) == {3, 5, 6}
    assert set(admissible_keys(t, t, conjugate(t))) == {1, 2, 4}
    for bad in (3, 5, 6):
        with pytest.raises(KeyNotAdmissible):
            one_starter_table(t, bad)


def test_inadmissible_key_error_names_reason_and_key_set():
    t = Pairing(7, golden.STARTER_7_A)
    for key in (0, 7, -1):
        with pytest.raises(KeyNotAdmissible, match=rf"^key {key} .* outside 1\.\.6; K = \[1, 2, 4\]"):
            one_starter_table(t, key)
    # row 2 of the key-3 template holds (4, 6) from T0 and again from T2 + 3
    with pytest.raises(KeyNotAdmissible, match=r"^key 3 .* the pair \(4, 6\) .*; K = \[1, 2, 4\]$"):
        one_starter_table(t, 3)


def test_patterned_starter_and_its_empty_key_set():
    p = patterned_starter(7)
    assert {tuple(sorted(pair)) for pair in p.pairs} == {(1, 6), (2, 5), (3, 4)}
    out = classify(p)
    assert out.kind == StarterKind.STARTER
    assert admissible_keys(*[p, p, conjugate(p)]) == frozenset()


def test_sums_complement_rule_over_all_starters():
    # for every starter: empty key set iff 0 is a pair sum, otherwise the
    # admissible keys are exactly the non-sums
    for m in (5, 7, 9, 11):
        for t in enumerate_starters(m):
            K = admissible_keys(t, t, conjugate(t))
            s = set(sums(t))
            if 0 in s:
                assert K == frozenset()
            else:
                assert set(K) == set(range(1, m)) - s


def test_key_count_law_for_strong_starters():
    for m in (5, 7, 9, 11):
        for t in enumerate_strong_starters(m):
            assert len(admissible_keys(t, t, conjugate(t))) == (m - 1) // 2


def test_key_set_symmetry_in_last_two_bases():
    P = {k: Pairing(19, v) for k, v in golden.STARTERS_19.items()}
    for i, j, k in ((1, 2, 3), (2, 1, 4), (4, 2, 3)):
        assert admissible_keys(P[i], P[j], P[k]) == admissible_keys(P[i], P[k], P[j])
    key = min(golden.KEY_TABLE_19[(1, 2, 3)])
    a = three_starter_table(P[1], P[2], P[3], key)
    b = three_starter_table(P[1], P[3], P[2], key)
    assert equivalent(a, b)


# ------------------------------------------------------------ three starter


def test_three_starter_order13():
    r = Pairing(13, golden.TRIPLE_13_R)
    s = Pairing(13, golden.TRIPLE_13_S)
    t = Pairing(13, golden.TRIPLE_13_T)
    assert set(admissible_keys(s, r, t)) == golden.TRIPLE_13_SRT_KEYS
    assert admissible_keys(r, s, t) == frozenset()
    assert admissible_keys(t, r, s) == frozenset()
    tt = three_starter_table(s, r, t, 1)
    assert tt.key == 1
    with pytest.raises(KeyNotAdmissible):
        three_starter_table(r, s, t, 1)


def test_three_starter_order11_families():
    R = {k: Pairing(11, v) for k, v in golden.DISJOINT_11.items()}
    assert R[3] == conjugate(R[1]) and R[4] == conjugate(R[2])
    for i in R:
        for j in R:
            for k in R:
                if j == k:
                    continue
                K = admissible_keys(R[i], R[j], R[k])
                empty = {(i, j, k), (i, k, j)} & golden.DISJOINT_11_EMPTY
                if empty:
                    assert K == frozenset(), (i, j, k)
                else:
                    assert len(K) == 5, (i, j, k)


def test_key_table_order19_all_rows():
    P = {k: Pairing(19, v) for k, v in golden.STARTERS_19.items()}
    for (i, j, k), expected in golden.KEY_TABLE_19.items():
        assert set(admissible_keys(P[i], P[j], P[k])) == expected, (i, j, k)


# ------------------------------------------------------------- epicycloidal


def test_epicycloidal_values_order7():
    for mu, expected in golden.EPI_7.items():
        e = epicycloidal(7, mu)
        assert e.pairs == tuple(expected)
        assert classify(e).kind >= StarterKind.PSEUDOSTARTER


def test_epicycloidal_rejects_bad_multiplier():
    with pytest.raises(MultiplierNotInvertible):
        epicycloidal(9, 4)  # gcd(3, 9) != 1
    with pytest.raises(InvalidInput):
        epicycloidal(7, 6)  # mu must be <= m - 2


def test_epicycloidal_keys_order7():
    t0 = Pairing(7, golden.STARTER_7_A)
    for mu, keys in golden.EPI_7_KEYS.items():
        e = epicycloidal(7, mu)
        assert set(admissible_keys(t0, e, conjugate(e))) == keys


def test_epicycloidal_key_count_exception_order13():
    t0 = Pairing(13, golden.TRIPLE_13_R)
    e = epicycloidal(13, 3)
    assert set(admissible_keys(t0, e, conjugate(e))) == golden.EPI_13_MU3_KEYS


def test_epicycloidal_special_and_disjoint_predicates():
    for m in (7, 11, 13):
        for mu in range(2, m - 1):
            if math.gcd(mu - 1, m) != 1:
                continue
            e = epicycloidal(m, mu)
            ec = conjugate(e)
            if math.gcd(mu, m) == 1:
                assert is_special_pair(e, ec)
                assert is_disjoint(e, ec) == (math.gcd(mu + 1, m) == 1)


def test_no_disjoint_epicycloidal_pairs_when_3_divides_m():
    for m in (9, 15):
        found = False
        for mu in range(2, m - 1):
            if math.gcd(mu - 1, m) != 1:
                continue
            e = epicycloidal(m, mu)
            ec = conjugate(e)
            if is_special_pair(e, ec):
                found = True
                assert not is_disjoint(e, ec), (m, mu)
        assert found  # special pairs do occur; none of them is disjoint


# ------------------------------------------------------------- spec parsing


def test_template_base_from_spec_modes():
    t0, t1, t2 = template_base_from_spec(
        {"mode": "one-starter", "m": 7, "T0": golden.STARTER_7_A}
    )
    assert t1 == t0 and t2 == conjugate(t0)
    t0, t1, t2 = template_base_from_spec(
        {"mode": "epicycloidal", "m": 7, "T0": golden.STARTER_7_A, "mu": 2}
    )
    assert t1.pairs == tuple(golden.EPI_7[2])
    with pytest.raises(InvalidInput):
        template_base_from_spec({"mode": "one-starter", "m": 7})
    with pytest.raises(InvalidInput):
        template_base_from_spec({"mode": "wat", "m": 7, "T0": golden.STARTER_7_A})
