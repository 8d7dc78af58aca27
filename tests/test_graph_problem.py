import math
import re

import numpy as np
import pytest

from nvqaoa.graph_problem import (
    CutReport,
    Graph,
    brute_force,
    cost,
    cut_value,
    diagonal_costs,
    load_graph,
    parse_graph,
)


def k2():
    return Graph.complete(2)


def k3():
    return Graph.complete(3)


def test_cut_values_two_vertices():
    g = k2()
    assert cut_value(g, "00") == 0.0
    assert cut_value(g, "01") == 1.0
    assert cut_value(g, "10") == 1.0
    assert cut_value(g, "11") == 0.0
    assert cost(g, "10") == -1.0


def test_uncut_partition_costs_positive_zero():
    for g, bits in ((k2(), "00"), (k2(), "11"), (Graph(1, np.zeros((1, 1))), "0"), (Graph(2, np.zeros((2, 2))), "01")):
        assert math.copysign(1.0, cost(g, bits)) == 1.0
    assert math.copysign(1.0, brute_force(Graph(2, np.zeros((2, 2)))).best_cost) == 1.0


def test_cut_values_triangle():
    g = k3()
    # any split of a triangle cuts either 0 or 2 edges
    assert cut_value(g, "000") == 0.0
    assert cut_value(g, "011") == 2.0
    assert cost(g, "001") == -2.0
    assert cost(g, "111") == 0.0


def test_bit_sequence_inputs_match_strings():
    g = k3()
    assert cut_value(g, [0, 1, 1]) == cut_value(g, "011")
    assert cut_value(g, np.array([1, 0, 1])) == cut_value(g, "101")


def test_global_flip_invariance():
    rng = np.random.default_rng(11)
    weights = np.triu(rng.uniform(0.0, 2.0, size=(4, 4)), k=1)
    g = Graph(4, weights + weights.T)
    for k in range(16):
        bits = format(k, "04b")
        flipped = "".join("1" if b == "0" else "0" for b in bits)
        assert cut_value(g, bits) == cut_value(g, flipped)


def test_brute_force_k2():
    report = brute_force(k2())
    assert report.best_cost == -1.0
    assert report.best_strings == ("01", "10")
    assert report.cost_table == {"00": 0.0, "01": -1.0, "10": -1.0, "11": 0.0}


def test_brute_force_k3_all_six_optima():
    report = brute_force(k3())
    assert report.best_cost == -2.0
    assert report.best_strings == ("001", "010", "011", "100", "101", "110")


def test_brute_force_single_vertex():
    report = brute_force(Graph(1, np.zeros((1, 1))))
    assert report.best_cost == 0.0
    assert report.best_strings == ("0", "1")


def test_brute_force_agrees_with_diagonal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        weights = np.triu(rng.integers(0, 2, size=(n, n)).astype(float), k=1)
        g = Graph(n, weights + weights.T)
        diag = diagonal_costs(g)
        report = brute_force(g)
        assert report.best_cost == diag.min()
        for index, label in enumerate(sorted(report.cost_table)):
            assert report.cost_table[label] == diag[index]


def test_diagonal_costs_k2_and_edgeless():
    np.testing.assert_array_equal(diagonal_costs(k2()), [0.0, -1.0, -1.0, 0.0])
    empty = Graph(2, np.zeros((2, 2)))
    np.testing.assert_array_equal(diagonal_costs(empty), np.zeros(4))


def test_diagonal_costs_k3():
    np.testing.assert_array_equal(diagonal_costs(k3()), [0, -2, -2, -2, -2, -2, -2, 0])


def test_diagonal_costs_are_bit_identical_to_the_per_edge_expression():
    # each edge once recomputed both vertices' bits from the basis index; the
    # bits are now made once per vertex for the half with vertex 0 on side 0,
    # the other half is its mirror, and every sum runs in the same order
    rng = np.random.default_rng(14)
    n = 14
    weights = np.triu(rng.uniform(0.5, 1.5, size=(n, n)), k=1)
    g = Graph(n, weights + weights.T)
    idx = np.arange(1 << n, dtype=np.int64)
    expected = np.zeros(1 << n)
    for i, j, w in g.edges():
        expected -= w * (((idx >> (n - 1 - i)) & 1) ^ ((idx >> (n - 1 - j)) & 1))
    np.testing.assert_array_equal(diagonal_costs(g).view(np.int64), expected.view(np.int64))


def test_unweighted_cut_is_integral_and_bounded():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        weights = np.triu(rng.integers(0, 2, size=(n, n)).astype(float), k=1)
        g = Graph(n, weights + weights.T)
        num_edges = len(g.edges())
        for label in brute_force(g).cost_table.values():
            assert label == int(label)
            assert -num_edges <= label <= 0


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0, np.zeros((0, 0)))
    with pytest.raises(ValueError):
        Graph(2, np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        Graph(2, np.array([[0.0, -1.0], [-1.0, 0.0]]))  # negative weight
    with pytest.raises(ValueError):
        Graph(2, np.array([[1.0, 0.0], [0.0, 0.0]]))  # self loop
    with pytest.raises(ValueError):
        Graph(2, np.zeros((3, 3)))  # shape mismatch
    with pytest.raises(ValueError, match="total edge weight"):
        Graph.complete(3, 1e308)  # every weight finite, their sum not
    assert Graph.complete(2, 1e308).total_weight() == 1e308
    assert Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 2.0)]).total_weight() == 2.5
    assert Graph(1, np.zeros((1, 1))).total_weight() == 0.0


def test_from_edges_validation():
    with pytest.raises(ValueError, match="self loop"):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        Graph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="outside"):
        Graph.from_edges(2, [(0, 2)])
    # a bool or non-integer vertex, and a bool or non-real weight, is refused, naming the edge
    for edge in ((0.5, 1), (True, 0), (0, 1.0), (0, "1"), (0, 1, True), (0, 1, "2"), (0, 1, 1j)):
        with pytest.raises(ValueError, match=re.escape(repr(edge))):
            Graph.from_edges(2, [edge])
    # numpy scalars are Integral and Real
    assert Graph.from_edges(2, [(np.int64(0), np.int32(1), np.float64(0.5))]).total_weight() == 0.5


def test_bitstring_length_mismatch():
    with pytest.raises(ValueError):
        cut_value(k2(), "011")


def test_enum_capacity_guard():
    g = Graph(25, np.zeros((25, 25)))
    with pytest.raises(ValueError):
        brute_force(g)
    with pytest.raises(ValueError):
        diagonal_costs(g)


def test_adjacency_is_read_only():
    g = k2()
    with pytest.raises(ValueError):
        g.adjacency[0, 1] = 5.0


GOOD_FILE = """\
# triangle with one reweighted edge
n 3
0 1
1 2 2.5   # trailing comment
0 2
"""


def test_parse_graph_file():
    g = parse_graph(GOOD_FILE)
    assert g.num_vertices == 3
    assert g.edges() == [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 2.5)]


def test_parse_graph_errors():
    with pytest.raises(ValueError, match="header"):
        parse_graph("0 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        parse_graph("n 2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="self loop"):
        parse_graph("n 2\n1 1\n")
    with pytest.raises(ValueError, match="malformed"):
        parse_graph("n 2\n0 x\n")
    with pytest.raises(ValueError, match="outside"):
        parse_graph("n 2\n0 5\n")
    with pytest.raises(ValueError, match="no 'n"):
        parse_graph("# nothing here\n")
    # refused before the n x n adjacency matrix is made
    with pytest.raises(ValueError, match="graph has 25 vertices; graphs are capped at 24"):
        parse_graph("n 25\n0 1\n")
    with pytest.raises(ValueError, match="capped at 24"):
        Graph.from_edges(10**9, [])


def test_load_graph(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(GOOD_FILE)
    assert load_graph(path).num_vertices == 3


def test_cut_report_shape():
    report = brute_force(k2())
    assert isinstance(report, CutReport)
    assert all(report.cost_table[s] == report.best_cost for s in report.best_strings)
    assert len(report.cost_table) == 4
