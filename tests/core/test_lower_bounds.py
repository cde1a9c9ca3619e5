"""Tests for the deficiency lower bounds (generalizing Theorem 3.3)."""

from repro.graphs.generators import (
    complete_bipartite,
    matching_graph,
    path_graph,
    random_connected_bipartite,
    star_graph,
)
from repro.graphs.line_graph import line_graph
from repro.core.families import (
    jump_count_of_family,
    worst_case_family,
)
from repro.core.lower_bounds import (
    component_deficiency_report,
    effective_cost_lower_bound,
    isolated_line_nodes_bound,
    jump_lower_bound,
    path_partition_lower_bound,
)
from repro.core.solvers.exact import solve_exact


class TestPathPartitionBound:
    def test_path_line_graph_needs_one_path(self):
        assert path_partition_lower_bound(line_graph(path_graph(5))) == 1

    def test_matching_line_graph_needs_m_paths(self):
        line = line_graph(matching_graph(4))
        assert path_partition_lower_bound(line) == 4

    def test_empty(self):
        from repro.graphs.simple import Graph

        assert path_partition_lower_bound(Graph()) == 0

    def test_corona_bound_matches_theorem_3_3(self):
        # Thm 3.3's counting: for G_n, J >= ceil(n/2) - 1.
        for n in range(2, 9):
            line = line_graph(worst_case_family(n))
            expected_paths = jump_count_of_family(n) + 1
            assert path_partition_lower_bound(line) == expected_paths


class TestJumpBound:
    def test_perfect_graphs_have_zero_bound(self, k23):
        assert jump_lower_bound(k23) == 0

    def test_family_bound_tight(self):
        for n in range(1, 8):
            family = worst_case_family(n)
            assert jump_lower_bound(family) == jump_count_of_family(n)

    def test_bound_is_sound(self):
        # The bound never exceeds the true optimum (checked exactly).
        for seed in range(6):
            g = random_connected_bipartite(4, 4, extra_edges=2, seed=seed)
            lb = effective_cost_lower_bound(g)
            assert lb <= solve_exact(g).effective_cost

    def test_bound_at_least_m(self, tiny_zoo):
        for g in tiny_zoo:
            assert effective_cost_lower_bound(g) >= g.num_edges


class TestReports:
    def test_report_shape(self):
        report = component_deficiency_report(worst_case_family(4))
        assert len(report) == 1
        entry = report[0]
        assert entry["edges"] == 8
        assert entry["line_nodes"] == 8
        assert entry["line_degree_one_nodes"] == 4
        assert entry["effective_cost_lb"] == entry["edges"] + entry["jump_lb"]

    def test_report_skips_empty_components(self):
        from repro.graphs.bipartite import BipartiteGraph

        g = BipartiteGraph(left=["iso"])
        assert component_deficiency_report(g) == []

    def test_isolated_line_nodes_bound(self):
        line = line_graph(matching_graph(3))
        assert isolated_line_nodes_bound(line) == 3
        line2 = line_graph(star_graph(3))
        assert isolated_line_nodes_bound(line2) == 1


class TestDegreeFormula:
    def test_jump_bound_equals_line_graph_count(self):
        # jump_lower_bound reads deg_L(u, v) = deg(u) + deg(v) - 2 off G;
        # it must equal the bound computed on each component's L(G).
        from repro.graphs.components import component_vertex_sets
        from repro.graphs.generators import random_bipartite_gnm

        for seed in range(300):
            graph = random_bipartite_gnm(8, 8, 4 + seed % 30, seed=seed)
            expected = 0
            for vertex_set in component_vertex_sets(graph):
                sub = graph.subgraph(vertex_set)
                if sub.num_edges:
                    expected += path_partition_lower_bound(line_graph(sub)) - 1
            assert jump_lower_bound(graph) == expected, seed
