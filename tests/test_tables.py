import random

import pytest

from triplication import (
    InputNotStrongStarter,
    InvalidInput,
    NotATable,
    Pairing,
    StarterKind,
    arrange_strong_starter,
    canonicalize,
    classify,
    derive_index_structures,
    enumerate_strong_starters,
    equivalent,
    induce_from_starter,
    one_starter_table,
    random_tt,
    render_table,
    table_from_json,
    table_to_json,
    validate,
)

import golden

# passes clauses (i) and (ii) but makes sum 0 five times
CLAUSE3_VIOLATION = [
    (3, 3),
    (3, 4), (0, 1), (0, 1),
    (6, 1), (4, 6), (4, 6),
    (2, 5), (2, 5), (2, 5),
]


# ---------------------------------------------------------------- validation


def test_validate_known_tables():
    for pairs, m in (
        (golden.TABLE_7_KEY1, 7),
        (golden.TABLE_15_KEY4, 15),
        (golden.UNSOLVABLE_11, 11),
        (golden.UNSOLVABLE_13, 13),
        (golden.WILD_TABLE_7, 7),
    ):
        tt = validate(pairs, m)
        assert tt.pairs == tuple(pairs)
        assert len(tt.signs) == tt.q


def test_validate_derives_signs():
    tt = validate(golden.TABLE_7_KEY1, 7)
    assert tt.signs == (1, 1, -1)
    assert tt.key == 1


def test_validate_rejects_duplicate_pairs():
    with pytest.raises(NotATable) as exc:
        validate(golden.TEMPLATE_7_KEY3, 7)
    assert exc.value.clause == "iv"
    assert "(4, 6)" in exc.value.detail


def test_validate_rejects_bad_multiplicities():
    bad = list(golden.TABLE_7_KEY1)
    bad[1] = (2, 2)  # 2 now occurs 4 times, 3 only twice; also breaks (ii)
    with pytest.raises(NotATable) as exc:
        validate(bad, 7)
    assert exc.value.clause == "i"


def test_validate_rejects_bad_row_structure():
    bad = list(golden.TABLE_7_KEY1)
    bad[1], bad[4] = bad[4], bad[1]  # swap a row-1 pair with a row-2 pair
    with pytest.raises(NotATable) as exc:
        validate(bad, 7)
    assert exc.value.clause == "ii"


def test_validate_rejects_zero_key():
    bad = [(0, 0)] + list(golden.TABLE_7_KEY1[1:])
    with pytest.raises(NotATable) as exc:
        validate(bad, 7)
    assert exc.value.clause in ("i", "ii")


@pytest.mark.parametrize(
    "changes, detail",
    [
        ({0: (1, 3), 1: (2, 1)}, "pair 0 is (1, 3), expected a repeated pair"),
        ({0: (0, 0), 5: (5, 1), 9: (3, 1)}, "key must be nonzero"),
    ],
    ids=["pair-0-not-repeated", "key-0"],
)
def test_validate_names_each_clause_ii_failure(changes, detail):
    # each change keeps clause (i)'s value counts
    bad = list(golden.TABLE_7_KEY1)
    for i, pair in changes.items():
        bad[i] = pair
    with pytest.raises(NotATable) as exc:
        validate(bad, 7)
    assert exc.value.clause == "ii" and detail in exc.value.detail


def test_validate_rejects_sum_overflow():
    with pytest.raises(NotATable) as exc:
        validate(CLAUSE3_VIOLATION, 7)
    assert exc.value.clause == "iii"


def test_rows_are_read_for_d_in_1_to_q_only():
    tt = validate(golden.TABLE_7_KEY1, 7)
    assert [tt.row(d) for d in (1, 2, 3)] == [tuple(golden.TABLE_7_KEY1[i : i + 3])
                                             for i in (1, 4, 7)]
    for d in (0, -1, 4):
        with pytest.raises(InvalidInput, match=f"row {d} outside 1..3"):
            tt.row(d)
    assert tt.row(1.0) == tt.row(1)
    for d in ("1", 1.5):
        with pytest.raises(InvalidInput, match="row must be an integer"):
            tt.row(d)


def test_validate_rejects_wrong_length():
    with pytest.raises(InvalidInput):
        validate(golden.TABLE_7_KEY1[:-1], 7)
    # an integral float order acts as the int; any other non-int is invalid
    assert validate(golden.TABLE_7_KEY1, 7.0) == validate(golden.TABLE_7_KEY1, 7)
    for m in ("7", 7.5):
        with pytest.raises(InvalidInput, match="order must be an integer"):
            validate(golden.TABLE_7_KEY1, m)


# --------------------------------------------------------- index structures


def test_carries_of_key1_table():
    tt = validate(golden.TABLE_7_KEY1, 7)
    _, weak, carries = derive_index_structures(tt)
    assert carries.delta == golden.TABLE_7_KEY1_DELTA
    assert {i: carries.sigma[i] for i in golden.TABLE_7_KEY1_SIGMA_WEAK} == (
        golden.TABLE_7_KEY1_SIGMA_WEAK
    )


def test_weak_and_strong_sets_of_key1_table():
    tt = validate(golden.TABLE_7_KEY1, 7)
    weak = tt.weak_sets
    assert weak.by_sum == golden.TABLE_7_KEY1_WEAK
    assert set(weak.strong) == golden.TABLE_7_KEY1_STRONG
    strong_pairs = {tt.pairs[i] for i in weak.strong}
    assert strong_pairs == {(1, 1), (5, 6), (2, 6)}


def test_monochrome_sets_of_key1_table():
    tt = validate(golden.TABLE_7_KEY1, 7)
    assert tt.monochrome_sets == golden.TABLE_7_KEY1_MONO


def test_weak_sets_of_order15_table():
    tt = validate(golden.TABLE_15_KEY4, 15)
    weak = tt.weak_sets
    assert weak.by_sum == golden.TABLE_15_KEY4_WEAK
    for s, idx in weak.by_sum.items():
        assert {tt.pairs[i] for i in idx} == golden.TABLE_15_KEY4_WEAK_PAIRS[s]


def test_monochrome_sets_of_order15_table():
    tt = validate(golden.TABLE_15_KEY4, 15)
    assert {c: set(ps) for c, ps in tt.monochrome_sets.items()} == (
        golden.TABLE_15_KEY4_MONO
    )


def test_index_structures_partition_everything():
    for pairs, m in ((golden.TABLE_15_KEY4, 15), (golden.UNSOLVABLE_13, 13)):
        tt = validate(pairs, m)
        mono, weak, _ = derive_index_structures(tt)
        assert sum(len(ps) for ps in mono.values()) == 2 * len(tt.pairs)
        assert len(mono[0]) == 2
        assert all(len(mono[c]) == 3 for c in range(1, m))
        covered = sorted(
            [i for idx in weak.by_sum.values() for i in idx] + list(weak.strong)
        )
        assert covered == list(range(len(tt.pairs)))


def test_regular_columns_form_balanced_pseudostarter_triple():
    # multiset union of the three regular columns: 0 twice, key once,
    # everything else three times; each column covers all differences
    for pairs, m in ((golden.TABLE_7_KEY1, 7), (golden.TABLE_15_KEY4, 15)):
        tt = validate(pairs, m)
        cols = [[tt.row(d)[c] for d in range(1, tt.q + 1)] for c in range(3)]
        from collections import Counter

        union = Counter(x for col in cols for pair in col for x in pair)
        assert union[0] == 2 and union[tt.key] == 1
        assert all(union[c] == 3 for c in range(1, m) if c != tt.key)
        for col in cols:
            classes = {min((v - u) % m, (u - v) % m) for u, v in col}
            assert classes == set(range(1, tt.q + 1))


# ------------------------------------------------------------------ induce


def test_induce_from_wild_starter():
    s = Pairing(21, golden.WILD_STARTER_21)
    tt = induce_from_starter(s)
    printed = validate(golden.WILD_TABLE_7, 7)
    assert equivalent(tt, printed)
    assert all(sign == 1 for sign in tt.signs)


def test_induce_from_recovered_order45():
    s = Pairing(45, golden.TABLE_15_KEY4_RECOVERED)
    assert classify(s).kind == StarterKind.STRONG_STARTER
    tt = induce_from_starter(s)
    assert equivalent(tt, validate(golden.TABLE_15_KEY4, 15))


def test_induce_rejects_non_strong_input():
    with pytest.raises(InputNotStrongStarter):
        induce_from_starter(Pairing(9, [(1, 8), (2, 7), (3, 6), (4, 5)]))


def test_arrange_and_induce_reject_an_order_not_divisible_by_3():
    s = Pairing(7, golden.STARTER_7_B)
    assert classify(s).kind == StarterKind.STRONG_STARTER
    for fn in (arrange_strong_starter, induce_from_starter):
        with pytest.raises(InvalidInput, match="not divisible by 3"):
            fn(s)


def test_induced_tables_are_canonical_whatever_the_pair_order():
    rng = random.Random(3)
    for order in (9, 15):
        for s in enumerate_strong_starters(order):
            tt = induce_from_starter(s)
            assert canonicalize(tt) == tt
            pairs = [(y, x) if rng.random() < 0.5 else (x, y) for x, y in s.pairs]
            rng.shuffle(pairs)
            assert induce_from_starter(Pairing(order, pairs)) == tt


def test_arrange_is_order_preserving_modm():
    s = Pairing(21, golden.WILD_STARTER_21)
    arranged = arrange_strong_starter(s)
    assert sorted(map(tuple, map(sorted, arranged.pairs))) == sorted(
        map(tuple, map(sorted, s.pairs))
    )
    m = 7
    for i, (x, y) in enumerate(arranged.pairs):
        if i == 0:
            assert x % m == y % m
        else:
            d = 1 + (i - 1) // 3
            assert (y - x) % m == d


# ------------------------------------------------- equivalence and canonical


def test_canonicalize_idempotent():
    tt = validate(golden.TABLE_7_KEY1, 7)
    c1 = canonicalize(tt)
    assert canonicalize(c1) == c1
    assert all(sign == 1 for sign in c1.signs)


def test_canonicalize_collapses_row_permutations():
    rng = random.Random(5)
    tables = [validate(golden.TABLE_15_KEY4, 15)]
    tables += [random_tt(m, seed) for m in (5, 9, 13, 17) for seed in range(3)]
    for tt in tables:
        for _ in range(3):
            pairs = [tt.pairs[0]]
            for d in range(1, tt.q + 1):
                row = list(tt.row(d))
                rng.shuffle(row)
                if rng.random() < 0.5:
                    row = [(v, u) for u, v in row]
                pairs.extend(row)
            shuffled = validate(pairs, tt.m)
            assert canonicalize(shuffled) == canonicalize(tt)
            assert equivalent(shuffled, tt) and equivalent(tt, shuffled)
    for a in tables:
        for b in tables:
            assert equivalent(a, b) == (canonicalize(a) == canonicalize(b))


def test_sign_flip_normalizes_to_plus():
    tt = validate(golden.TABLE_7_KEY1, 7)  # row 3 has sign -1
    c = canonicalize(tt)
    assert c.signs == (1, 1, 1)
    assert equivalent(tt, c)


def test_equivalent_distinguishes_tables():
    # same order, same key, structurally different tables
    a = one_starter_table(Pairing(7, golden.STARTER_7_B), 1)
    b = validate(golden.WILD_TABLE_7, 7)
    assert a.key == b.key == 1
    assert not equivalent(a, b)
    assert not equivalent(b, validate(golden.TEMPLATE_7_EPI2_KEY3, 7))


def test_equivalent_trivial_cases():
    tt = validate(golden.TABLE_7_KEY1, 7)
    rotated = [tt.pairs[0], tt.pairs[2], tt.pairs[3], tt.pairs[1]] + list(tt.pairs[4:])
    assert equivalent(tt, validate(rotated, 7))


# ------------------------------------------------------------ render / json


def test_render_centers_special_pair():
    tt = validate(golden.TABLE_7_KEY1, 7)
    lines = render_table(tt).splitlines()
    assert len(lines) == 4
    assert "(1, 1)" in lines[0]
    assert "(2, 3)" in lines[1] and "(5, 6)" in lines[1]


def test_table_json_round_trip():
    tt = validate(golden.TABLE_15_KEY4, 15)
    doc = table_to_json(tt)
    assert doc["m"] == 15 and doc["key"] == 4
    assert doc["rows"][0] == [[4, 4]]
    assert table_from_json(doc) == tt
    # The same pairs in any other row layout are not a table file.
    flat = [p for row in doc["rows"] for p in row]
    for rows in ([flat], [[p] for p in flat]):
        with pytest.raises(InvalidInput, match="rows must be"):
            table_from_json({**doc, "rows": rows})


def test_table_json_rejects_inconsistent_metadata():
    doc = table_to_json(validate(golden.TABLE_7_KEY1, 7))
    doc["key"] = 2
    with pytest.raises(InvalidInput):
        table_from_json(doc)
    doc = table_to_json(validate(golden.TABLE_7_KEY1, 7))
    doc["signs"][0] = -1
    with pytest.raises(InvalidInput, match="declared signs"):
        table_from_json(doc)
