"""Sort-merge on values where ``repr`` order and ``==`` disagree.

Each case must return the pair set ``hash_join`` returns, and must return
at all: the join runs in a daemon thread joined with a timeout, so a
merge that stops advancing fails the test instead of stalling the suite.
"""

from __future__ import annotations

import threading

import pytest

from repro.joins.algorithms import hash_join, sort_merge_join
from repro.relations.relation import Relation

TIMEOUT_S = 10.0

NAN = float("nan")

CASES = {
    "two-nans": ([float("nan"), 1.0], [float("nan"), 2.0]),
    "same-nan-object": ([NAN, 1.0], [NAN, 2.0]),
    "signed-zero": ([0.0, 1.0], [-0.0, 1]),
    "int-vs-float": ([1, 2], [1.0, 2.0]),
}


def _sort_merge_with_timeout(left: Relation, right: Relation) -> list:
    outcome: dict = {}

    def run() -> None:
        outcome["pairs"] = sort_merge_join(left, right)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(TIMEOUT_S)
    if worker.is_alive():
        pytest.fail(f"sort_merge_join did not return within {TIMEOUT_S} s")
    return outcome["pairs"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_sort_merge_agrees_with_hash_join(case):
    left_values, right_values = CASES[case]
    left, right = Relation("R", left_values), Relation("S", right_values)
    pairs = _sort_merge_with_timeout(left, right)
    expected = hash_join(left, right)
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(expected)


def test_equal_values_of_both_types_form_one_group():
    left, right = Relation("R", [1, 0.0, 1.0]), Relation("S", [1.0, -0.0, 1])
    pairs = _sort_merge_with_timeout(left, right)
    assert set(pairs) == set(hash_join(left, right))
    assert len(pairs) == 5
