import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from neardgd.graph import (Graph, TopologyError, adjacency, build_erdos_renyi,
                           build_ring, build_star, from_edge_list,
                           is_connected)


def test_ring_paper_size():
    g = build_ring(12)
    assert len(g.edges) == 12
    assert all(d == 2 for d in adjacency(g).sum(axis=1))


def test_ring_triangle():
    assert build_ring(3).edges == frozenset({(0, 1), (1, 2), (0, 2)})


def test_ring_four():
    assert build_ring(4).edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_ring_too_small():
    with pytest.raises(TopologyError):
        build_ring(2)


def test_no_self_loops_or_duplicates():
    with pytest.raises(TopologyError):
        Graph(3, frozenset({(1, 1)}))
    g = Graph(3, frozenset({(0, 1), (1, 0)}))
    assert g.edges == frozenset({(0, 1)})


@pytest.mark.parametrize("build, says", [
    (lambda: Graph(0), "node count must be positive"),
    (lambda: Graph(3, frozenset({(0, 5)})), "edge (0,5) out of range for n=3"),
    (lambda: build_star(1), "star requires n >= 2, got n=1"),
    (lambda: build_erdos_renyi(1, 0.5, 0), "invalid Erdos-Renyi parameters n=1, prob=0.5"),
    (lambda: build_erdos_renyi(4, 1.5, 0), "invalid Erdos-Renyi parameters n=4, prob=1.5"),
    (lambda: build_erdos_renyi(4, 0.0, 0), "no connected G(4, 0) sample within 200 tries"),
    (lambda: Graph(2.5), "node count must be an integer, got 2.5"),
    (lambda: from_edge_list(3.5, "0 1"), "node count must be an integer, got 3.5"),
    (lambda: build_ring(12.5), "node count must be an integer, got 12.5"),
    (lambda: build_star(4.0), "node count must be an integer, got 4.0"),
    (lambda: build_erdos_renyi(5.5, 0.5, 0), "node count must be an integer, got 5.5")],
    ids=["no-nodes", "edge-out-of-range", "one-node-star", "one-node-erdos-renyi",
         "probability-above-1", "never-connected", "fractional-graph",
         "fractional-edge-list", "fractional-ring", "float-star", "fractional-erdos-renyi"])
def test_invalid_topology_is_rejected(build, says):
    with pytest.raises(TopologyError, match="^%s$" % re.escape(says)):
        build()


def test_connectivity():
    assert is_connected(build_ring(5))
    assert is_connected(Graph(1))
    assert not is_connected(Graph(2, frozenset()))
    assert not is_connected(Graph(4, frozenset({(0, 1), (2, 3)})))


def test_degrees():
    assert list(adjacency(build_ring(4)).sum(axis=1)) == [2, 2, 2, 2]
    assert list(adjacency(build_star(4)).sum(axis=1)) == [3, 1, 1, 1]
    assert list(adjacency(Graph(2, frozenset({(0, 1)}))).sum(axis=1)) == [1, 1]
    assert list(adjacency(Graph(2, frozenset())).sum(axis=1)) == [0, 0]
    np.testing.assert_array_equal(adjacency(build_star(3)),
                                  [[False, True, True], [True, False, False], [True, False, False]])


@given(st.integers(min_value=3, max_value=30))
def test_ring_connected_and_degree_sum(n):
    g = build_ring(n)
    assert is_connected(g)
    assert adjacency(g).sum(axis=1).sum() == 2 * len(g.edges)


def test_erdos_renyi_connected_and_deterministic():
    g1 = build_erdos_renyi(8, 0.4, seed=5)
    g2 = build_erdos_renyi(8, 0.4, seed=5)
    assert g1.edges == g2.edges
    assert is_connected(g1)


def test_erdos_renyi_pinned_sample():
    # one uniform draw per pair i < j in row-major order, redrawn until
    # connected; this seed is accepted on the eighth try
    g = build_erdos_renyi(6, 0.3, seed=4)
    assert g.edges == frozenset({(0, 4), (0, 5), (1, 2), (2, 5), (3, 4)})


def test_edge_list_round_trip():
    text = "0 1\n1 2\n2 3\n3 4\n0 4"
    assert from_edge_list(5, text).edges == build_ring(5).edges


@pytest.mark.parametrize("line", ["a b", "0 1 2", "3", "0 1.5"])
def test_edge_list_error_names_the_line(line):
    with pytest.raises(TopologyError, match="malformed edge line: %r" % line):
        from_edge_list(4, "0 1\n  %s  \n1 2" % line)
