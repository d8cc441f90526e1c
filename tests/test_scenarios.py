import pytest

from triplication import IncompatibleResidues, InvalidInput, Scenario
from triplication.scenarios import EncodedElement


def test_parameters():
    assert Scenario("mod", 7).nu == 0 and Scenario("mod", 7).r == 3
    assert Scenario("mod", 15).nu == 1 and Scenario("mod", 15).r == 9
    assert Scenario("mod", 9).nu == 2 and Scenario("mod", 9).r == 27
    assert Scenario("mod", 45).nu == 2 and Scenario("mod", 45).p == 5
    assert Scenario("carry", 15).r == 3
    with pytest.raises(InvalidInput):
        Scenario("weird", 7)
    with pytest.raises(InvalidInput):
        Scenario("mod", 8)
    # an integral float order acts as the int; any other non-int is invalid
    assert Scenario("mod", 7.0) == Scenario("mod", 7)
    assert type(Scenario("mod", 7.0).encode(3).u) is int
    for m in ("7", 7.5):
        with pytest.raises(InvalidInput, match="order must be an integer"):
            Scenario("mod", m)


def test_encode_examples():
    assert Scenario("mod", 7).encode(8) == (1, 2)
    assert Scenario("mod", 15).encode(16) == (1, 7)
    assert Scenario("carry", 15).encode(16) == (1, 1)
    assert Scenario("mod", 15).encode(0) == (0, 0)  # zero anchors to zero


def test_decode_examples():
    assert Scenario("mod", 7).decode((1, 2)) == 8
    assert Scenario("mod", 15).decode((1, 7)) == 16
    assert Scenario("carry", 15).decode((1, 1)) == 16
    with pytest.raises(IncompatibleResidues):
        Scenario("mod", 15).decode((1, 3))
    with pytest.raises(InvalidInput):
        Scenario("carry", 15).decode((15, 1))
    with pytest.raises(InvalidInput, match="discriminator 3 outside Z_3"):
        Scenario("carry", 15).decode((1, 3))
    with pytest.raises(InvalidInput, match="45 outside Z_45"):
        Scenario("mod", 15).f(45)
    with pytest.raises(InvalidInput, match="residue -1 outside Z_7"):
        Scenario("mod", 7).variable_domain(-1)


def test_discriminator_column_order7():
    # residue 1 lifts to 1, 8, 15 with discriminators 1, 2, 0
    sc = Scenario("mod", 7)
    assert [sc.f(x) for x in (1, 8, 15)] == [1, 2, 0]
    sc = Scenario("mod", 15)
    assert [sc.f(x) for x in (1, 16, 31)] == [1, 7, 4]


@pytest.mark.parametrize("m", [3, 7, 9, 15, 45])
@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_encode_decode_bijection(kind, m):
    sc = Scenario(kind, m)
    seen = set()
    for x in range(3 * m):
        e = sc.encode(x)
        assert sc.decode(e) == x
        seen.add(e)
    assert len(seen) == 3 * m
    for e in seen:
        assert sc.encode(sc.decode(e)) == e


def test_variable_domain():
    assert set(Scenario("mod", 15).variable_domain(3)) == {3, 6, 0}
    assert set(Scenario("mod", 7).variable_domain(4)) == {0, 1, 2}
    assert Scenario("carry", 15).variable_domain(11) == (0, 1, 2)
    # mod domains are exactly the f-images of the three lifts
    for m in (7, 9, 15):
        sc = Scenario("mod", m)
        for u in range(m):
            lifts = {sc.f(u), sc.f(u + m), sc.f(u + 2 * m)}
            assert set(sc.variable_domain(u)) == lifts


def test_box_sub_golden():
    sc = Scenario("mod", 7)
    # decode((2,2)) = 2, decode((3,0)) = 3, f(2 - 3 mod 21) = f(20) = 2
    assert sc.box_sub(EncodedElement(2, 2), EncodedElement(3, 0)) == 2
    carry = Scenario("carry", 7)
    # table pair (2, 3) underflows, so delta = 1; cell reads 2 - 0 - 1
    assert carry.box_sub((2, 2), (3, 0)) == 1
    assert carry.box_sub((5, 1), (5, 1)) == 0


def test_box_add_golden():
    carry = Scenario("carry", 7)
    # weak pair (3, 4): residues overflow, so sigma = 1
    assert carry.box_add((3, 2), (4, 2)) == 2
    # weak pair (2, 3): no overflow
    assert carry.box_add((2, 2), (3, 0)) == 2
    assert carry.box_add((0, 0), (0, 0)) == 0


@pytest.mark.parametrize("m", [7, 9, 15])
@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_box_operations_match_decode_arithmetic(kind, m):
    # the defining identity: box ops on encodings equal f of the sum or
    # difference of the decoded elements
    sc = Scenario(kind, m)
    n = 3 * m
    enc = [sc.encode(x) for x in range(n)]
    for x in range(n):
        a = enc[x]
        for y in range(n):
            b = enc[y]
            assert sc.box_add(a, b) == sc.f((x + y) % n)
            assert sc.box_sub(a, b) == sc.f((x - y) % n)


@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_equal_residue_distinct_iff_distinct_discriminator(kind):
    # x != y with equal residues forces distinct discriminators
    for m in (7, 9):
        sc = Scenario(kind, m)
        for x in range(3 * m):
            for y in range(3 * m):
                if x % m != y % m:
                    continue
                ex, ey = sc.encode(x), sc.encode(y)
                assert (x != y) == (ex.U != ey.U)


@pytest.mark.parametrize("kind", ["mod", "carry"])
def test_box_sums_discriminate_equal_residue_sums(kind):
    # exhaustive over all quadruples (x1, y1, x2, y2) at m = 7, grouped by
    # residue class: when two pairs have equal residue sums, their element
    # sums differ exactly when their box sums differ; dually for differences
    m = 7
    sc = Scenario(kind, m)
    n = 3 * m
    enc = [sc.encode(x) for x in range(n)]
    add_by_class = {}
    sub_by_class = {}
    for x in range(n):
        a = enc[x]
        for y in range(n):
            b = enc[y]
            add_by_class.setdefault((a.u + b.u) % m, []).append(
                ((x + y) % n, sc.box_add(a, b))
            )
            sub_by_class.setdefault((a.u - b.u) % m, []).append(
                ((x - y) % n, sc.box_sub(a, b))
            )
    for groups in (add_by_class, sub_by_class):
        for entries in groups.values():
            for t1, w1 in entries:
                for t2, w2 in entries:
                    assert (t1 != t2) == (w1 != w2)
