"""The benchmark's checker accepts good outputs and rejects a one-pair fault.

Run with ``python -m pytest bench``.
"""

from checker import reduction_faults, strong_starter_faults, table_faults
from workloads import BASE_STARTER_7, UNSOLVABLE_11


def test_accepts_a_strong_starter_and_valid_tables():
    assert strong_starter_faults(7, list(BASE_STARTER_7)) == []
    assert table_faults(11, list(UNSOLVABLE_11)) == []


def test_rejects_a_starter_with_one_altered_pair():
    altered = list(BASE_STARTER_7)
    altered[0] = (2, 4)  # 4 now occurs twice and 3 not at all
    assert strong_starter_faults(7, altered)


def test_rejects_a_table_with_one_duplicated_pair():
    duplicated = list(UNSOLVABLE_11)
    duplicated[6] = duplicated[5]  # row 2 now holds (3, 5) twice
    faults = table_faults(11, duplicated)
    assert any(f.startswith("(iv)") for f in faults)


def test_reduction_is_checked_pair_by_pair():
    table = [(1, 1), (2, 3)]
    assert reduction_faults(7, [(8, 15), (9, 17)], table) == []
    assert reduction_faults(7, [(8, 15), (17, 9)], table)
