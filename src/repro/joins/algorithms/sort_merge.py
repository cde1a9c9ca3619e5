"""Sort-merge equijoin.

The merge phase enumerates each key group's cross product.  This module
emits the group's pairs in *boustrophedon* order — left tuple 0 against all
right tuples forward, left tuple 1 backward, and so on — which is both a
legitimate merge-phase enumeration and exactly the Lemma 3.2 perfect
pebbling of the group's complete bipartite join subgraph.  The paper points
at this connection twice: "the merge phase of a sort-merge join does in
some sense resemble this pebbling game" (§2) and "the construction given in
Theorem 3.2 is similar to the merge phase of sort-merge join" (§4).

Consequently sort-merge achieves ``π = m`` on every equijoin — the
algorithmic face of Theorems 3.2/4.1 — which the test-suite asserts.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import itemgetter

from repro.errors import PredicateError
from repro.relations.relation import Relation, TupleRef


def _runs(relation: Relation, rank: dict) -> list[tuple[int, list[TupleRef]]]:
    """The relation's tuples sorted on the merge key, as ``(key, refs)`` runs."""
    ordered = sorted((rank[value], ref.ordinal, ref) for ref, value in relation.items())
    return [
        (key, [ref for _key, _ordinal, ref in run])
        for key, run in groupby(ordered, key=itemgetter(0))
    ]


def sort_merge_join(left: Relation, right: Relation) -> list[tuple[TupleRef, TupleRef]]:
    """All equality-matching pairs in merge emission order.

    The merge key of a tuple is the rank of its value among the distinct
    join values of both inputs, taken in ``repr`` order.  The distinct
    values are collected in a hash table, so two values share a key exactly
    when ``hash_join`` matches them (``1 == 1.0``, ``0.0 == -0.0``, a NaN
    only itself), and the merge compares integers, so it always advances.
    """
    if left.domain != right.domain:
        raise PredicateError(
            f"cannot equijoin {left.domain.value} with {right.domain.value}"
        )
    try:
        distinct = dict.fromkeys(v for _ref, v in chain(left.items(), right.items()))
    except TypeError as exc:
        raise PredicateError(f"unhashable join key: {exc}") from exc
    rank = {value: index for index, value in enumerate(sorted(distinct, key=repr))}
    left_runs, right_runs = _runs(left, rank), _runs(right, rank)
    out: list[tuple[TupleRef, TupleRef]] = []
    i = j = 0
    while i < len(left_runs) and j < len(right_runs):
        (key, group_left), (r_key, group_right) = left_runs[i], right_runs[j]
        if key < r_key:
            i += 1
        elif key > r_key:
            j += 1
        else:  # a key group: emit boustrophedon
            for row, l_ref in enumerate(group_left):
                for r_ref in group_right if row % 2 == 0 else reversed(group_right):
                    out.append((l_ref, r_ref))
            i, j = i + 1, j + 1
    return out
