import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplication import (
    InvalidInput,
    OrderTooLarge,
    Pairing,
    StarterClass,
    StarterKind,
    canonical_unordered,
    classify,
    conjugate,
    enumerate_strong_starters,
    epicycloidal,
    normalize_ordered,
    pairing_from_json,
    pairing_to_json,
    sums,
)
from triplication.pairings import egcd, modinv

import golden


# ---------------------------------------------------------------- container


def test_pairing_rejects_even_or_tiny_modulus():
    with pytest.raises(InvalidInput):
        Pairing(6, [(1, 2)])
    with pytest.raises(InvalidInput):
        Pairing(1, [])


def test_pairing_rejects_out_of_range_components():
    with pytest.raises(InvalidInput):
        Pairing(7, [(2, 7)])


def test_egcd_and_modinv():
    g, s, t = egcd(240, 46)
    assert g == 2 and s * 240 + t * 46 == 2
    assert (modinv(4, 7) * 4) % 7 == 1
    with pytest.raises(InvalidInput):
        modinv(3, 9)


# ----------------------------------------------------------------- classify


def test_classify_strong_starter():
    out = classify(Pairing(7, golden.STARTER_7_A))
    assert out.kind == StarterKind.STRONG_STARTER and out.witness is None


def test_classify_patterned_is_starter_not_strong():
    out = classify(Pairing(7, [(1, 6), (2, 5), (3, 4)]))
    assert out.kind == StarterKind.STARTER
    assert "sums to 0" in out.witness


def test_classify_pseudostarter_with_repeat():
    out = classify(Pairing(7, golden.EPI_7[2]))
    assert out.kind == StarterKind.PSEUDOSTARTER
    assert "element 2" in out.witness
    out = classify(Pairing(7, [(0, 1), (2, 4), (3, 6)]))
    assert out.kind == StarterKind.PSEUDOSTARTER
    assert "component 0" in out.witness


def test_classify_not_any():
    assert classify(Pairing(7, [(1, 1), (2, 4), (3, 6)])).kind == StarterKind.NOT_ANY
    assert classify(Pairing(7, [(1, 2), (2, 3), (3, 4)])).kind == StarterKind.NOT_ANY
    assert classify(Pairing(7, [(1, 2), (3, 5)])).kind == StarterKind.NOT_ANY


def test_classify_empty_raises():
    with pytest.raises(InvalidInput):
        classify(Pairing(7, []))


def test_classify_is_monotone_hierarchy():
    # every enumerated strong starter also passes the weaker predicates
    for p in enumerate_strong_starters(7) + enumerate_strong_starters(11):
        assert classify(p).kind == StarterKind.STRONG_STARTER
        comps = p.components()
        assert sorted(comps) == list(range(1, p.modulus))


# --------------------------------------------------------------------- sums


def test_sums_examples():
    assert sums(Pairing(7, golden.STARTER_7_A)) == (5, 3, 6)
    assert sums(Pairing(7, [(1, 6), (2, 5), (3, 4)])) == (0, 0, 0)
    assert sums(Pairing(15, golden.STARTER_15)) == (7, 11, 2, 8, 6, 1, 10)


def test_strong_starter_sum_invariants():
    for p in enumerate_strong_starters(11):
        ss = sums(p)
        assert 0 not in ss
        assert len(set(ss)) == p.q


# ---------------------------------------------------------------- conjugate


def test_conjugate_examples():
    assert conjugate(Pairing(7, golden.STARTER_7_A)).pairs == ((4, 5), (1, 3), (6, 2))
    assert conjugate(Pairing(7, golden.EPI_7[2])).pairs == ((5, 6), (3, 5), (1, 4))


@given(
    st.integers(min_value=1, max_value=7).map(lambda k: 2 * k + 3),
    st.data(),
)
@settings(max_examples=200)
def test_conjugate_is_involution(m, data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
            min_size=n,
            max_size=n,
        )
    )
    p = Pairing(m, pairs)
    assert conjugate(conjugate(p)) == p


def test_conjugate_preserves_classification():
    for m in (7, 11):
        for p in enumerate_strong_starters(m):
            assert classify(conjugate(p)).kind == StarterKind.STRONG_STARTER
    assert (
        classify(conjugate(Pairing(7, [(1, 6), (2, 5), (3, 4)]))).kind
        == StarterKind.STARTER
    )


def test_conjugate_preserves_directed_differences():
    p = Pairing(7, golden.STARTER_7_B)  # mixed signs
    m = p.modulus
    for (x, y), (cx, cy) in zip(p.pairs, conjugate(p).pairs):
        assert (y - x) % m == (cy - cx) % m


# -------------------------------------------------------------- enumeration


def test_enumerate_small_orders():
    assert enumerate_strong_starters(3) == []
    # the only partition of Z_5^* with full difference coverage has both
    # sums zero, so no strong starter of order 5 exists
    assert enumerate_strong_starters(5) == []
    assert enumerate_strong_starters(9) == []


def test_enumerate_order_7():
    ss = enumerate_strong_starters(7)
    assert len(ss) == 2
    assert any(p.pairs == ((2, 3), (4, 6), (5, 1)) for p in ss)
    for p in ss:
        assert classify(p).kind == StarterKind.STRONG_STARTER
        assert [(y - x) % 7 for x, y in p.pairs] == [1, 2, 3]


def test_enumerate_no_duplicates_and_counts():
    for m, expect in ((7, 2), (11, 4), (13, 8)):
        ss = enumerate_strong_starters(m)
        assert len(ss) == expect
        keys = {canonical_unordered(p) for p in ss}
        assert len(keys) == len(ss)


def test_enumerate_limit_and_guard():
    assert len(enumerate_strong_starters(11, limit=2)) == 2
    assert len(enumerate_strong_starters(7, limit=2)) == 2
    for limit in (0, -1, 1.5, True):
        with pytest.raises(InvalidInput):
            enumerate_strong_starters(7, limit=limit)
    with pytest.raises(OrderTooLarge):
        enumerate_strong_starters(17)
    assert len(enumerate_strong_starters(17, limit=1, allow_large=True)) == 1


# ------------------------------------------------------------ normalization


def test_normalize_ordered_reorients_and_sorts():
    p = normalize_ordered(Pairing(7, golden.STARTER_7_B))
    assert p.pairs == ((2, 3), (4, 6), (5, 1))
    assert normalize_ordered(p) == p  # idempotent


def test_normalize_ordered_rejects_bad_classes():
    with pytest.raises(InvalidInput):
        normalize_ordered(Pairing(7, [(1, 2), (2, 3), (3, 4)]))


def test_classify_and_normalize_name_the_same_difference_witness():
    # one scan names the first zero difference or repeated class for both
    for pairs, witness in (([(1, 2), (3, 3), (4, 6)], "zero difference at pair 2"),
                           ([(1, 2), (4, 6), (6, 5)], "difference class 1 repeats at pair 3")):
        p = Pairing(7, pairs)
        assert classify(p) == StarterClass(StarterKind.NOT_ANY, witness)
        with pytest.raises(InvalidInput, match=witness):
            normalize_ordered(p)


def test_canonical_unordered_is_orientation_invariant():
    a = Pairing(7, [(2, 3), (4, 6), (5, 1)])
    b = Pairing(7, [(3, 2), (5, 1), (4, 6)])
    assert canonical_unordered(a) == canonical_unordered(b)


# --------------------------------------------------------------------- json


def test_pairing_json_round_trip():
    # a pairing is its modulus and pairs: how it was made is not part of it
    for p in (Pairing(15, golden.STARTER_15), *enumerate_strong_starters(7),
              epicycloidal(7, 2)):
        assert pairing_from_json(pairing_to_json(p)) == p
        assert len({p, Pairing(p.modulus, p.pairs)}) == 1
    with pytest.raises(InvalidInput):
        pairing_from_json({"pairs": [[1, 2]]})
