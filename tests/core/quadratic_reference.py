"""Reference versions of the solver steps that used to run in quadratic
time, kept only so the differential tests can pin the near-linear
versions in ``src/`` to them move for move.

- ``peel_chunks``: Theorem 3.1 peeling over a materialised DFS tree of
  ``L(G)``, eliminating twins by a global scan and peeling the deepest
  node with at least 4 nodes below it, found by walking parent pointers.
- ``reorder_paths_greedily``: rescans every remaining path per step.
- ``two_opt_pass`` / ``or_opt_pass``: try every ``(i, j)`` / ``(i, k)``.
- ``split_components``: the component split every solve path used to
  repeat: copy the graph without its isolated vertices, then build each
  component with ``subgraph``, which scans the whole copy per component
  (O(V·C)).
"""

from __future__ import annotations

from repro.errors import SolverError
from repro.graphs.components import component_vertex_sets
from repro.graphs.line_graph import line_graph
from repro.graphs.traversal import dfs_tree


def share_endpoint(e1, e2) -> bool:
    return bool(set(e1) & set(e2))


def w(a, b) -> int:
    return 1 if share_endpoint(a, b) else 2


def _find_twins(tree):
    for node in tree.nodes():
        children = tree.children(node)
        if len(children) == 2 and all(tree.is_leaf(c) for c in children):
            return (node, children[0], children[1])
    return None


def _eliminate_twins(tree, line) -> None:
    while True:
        twins = _find_twins(tree)
        if twins is None:
            return
        parent, l1, l2 = twins
        grandparent = tree.parent(parent)
        if grandparent is None:
            return
        if line.has_edge(grandparent, l1):
            tree.reattach(l1, grandparent)
            tree.reattach(parent, l1)
        elif line.has_edge(grandparent, l2):
            tree.reattach(l2, grandparent)
            tree.reattach(parent, l2)
        elif line.has_edge(l1, l2):
            tree.reattach(l2, l1)
        else:
            raise SolverError("claw K_{1,3} found in a line graph")


def _chain_down(tree, node) -> list:
    chain = [node]
    while tree.children(node):
        node = tree.children(node)[0]
        chain.append(node)
    return chain


def _subtree_as_path(tree, node) -> list:
    children = tree.children(node)
    if not children:
        return [node]
    if len(children) == 1:
        return [node] + _chain_down(tree, children[0])
    first = _chain_down(tree, children[0])
    return list(reversed(first)) + [node] + _chain_down(tree, children[1])


def peel_chunks(component) -> list[list]:
    """The path chunks of one connected component, in peeling order."""
    line = line_graph(component)
    if line.num_vertices == 0:
        return []
    tree = dfs_tree(line, min(line.vertices, key=repr))
    chunks: list[list] = []
    while len(tree) >= 4:
        _eliminate_twins(tree, line)
        if len(tree) < 4:
            break
        sizes = tree.subtree_sizes()
        candidates = [n for n in tree.nodes() if sizes[n] >= 4]
        target = max(candidates, key=lambda n: (tree.depth(n), repr(n)))
        chunks.append(_subtree_as_path(tree, target))
        tree.remove_subtree(target)
    if len(tree) > 0:
        root = tree.root
        children = tree.children(root)
        if len(children) <= 1:
            chunks.append(_chain_down(tree, root))
        else:
            chunks.append([children[0], root, children[1]])
    return chunks


def reorder_paths_greedily(paths):
    remaining = [list(p) for p in paths]
    if not remaining:
        return []
    chain = [remaining.pop(0)]
    while remaining:
        tail = chain[-1][-1]
        head = chain[0][0]
        placed = False
        for index, path in enumerate(remaining):
            if share_endpoint(tail, path[0]):
                chain.append(remaining.pop(index))
                placed = True
                break
            if share_endpoint(tail, path[-1]):
                chosen = remaining.pop(index)
                chosen.reverse()
                chain.append(chosen)
                placed = True
                break
            if share_endpoint(head, path[-1]):
                chain.insert(0, remaining.pop(index))
                placed = True
                break
            if share_endpoint(head, path[0]):
                chosen = remaining.pop(index)
                chosen.reverse()
                chain.insert(0, chosen)
                placed = True
                break
        if not placed:
            chain.append(remaining.pop(0))
    return chain


def two_opt_pass(tour: list) -> bool:
    n = len(tour)
    for i in range(n - 1):
        for j in range(i + 1, n):
            before = 0
            after = 0
            if i > 0:
                before += w(tour[i - 1], tour[i])
                after += w(tour[i - 1], tour[j])
            if j < n - 1:
                before += w(tour[j], tour[j + 1])
                after += w(tour[i], tour[j + 1])
            if after < before:
                tour[i : j + 1] = reversed(tour[i : j + 1])
                return True
    return False


def or_opt_pass(tour: list) -> bool:
    n = len(tour)
    for i in range(n):
        node = tour[i]
        removal_gain = 0
        if i > 0:
            removal_gain += w(tour[i - 1], node)
        if i < n - 1:
            removal_gain += w(node, tour[i + 1])
        if 0 < i < n - 1:
            removal_gain -= w(tour[i - 1], tour[i + 1])
        rest = tour[:i] + tour[i + 1 :]
        for k in range(len(rest) + 1):
            if k == i:
                continue
            insertion_cost = 0
            if k > 0:
                insertion_cost += w(rest[k - 1], node)
            if k < len(rest):
                insertion_cost += w(node, rest[k])
            if 0 < k < len(rest):
                insertion_cost -= w(rest[k - 1], rest[k])
            if insertion_cost < removal_gain:
                tour[:] = rest[:k] + [node] + rest[k:]
                return True
    return False


def split_components(graph):
    working = graph.without_isolated_vertices()
    return [working.subgraph(vs) for vs in component_vertex_sets(working)]
