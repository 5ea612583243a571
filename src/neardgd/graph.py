"""Undirected communication topologies for consensus networks."""

import operator
from collections import deque
from dataclasses import dataclass, field

import numpy as np

ER_MAX_TRIES = 200  # samples build_erdos_renyi draws before it gives up


class TopologyError(ValueError):
    """Raised for invalid or unusable graph specifications."""


def _node_count(n) -> int:
    try:  # int and NumPy integers; 2.5 nodes is no graph
        return operator.index(n)
    except TypeError:
        raise TopologyError("node count must be an integer, got %r" % (n,)) from None


def _canonical(i, j):
    if i == j:
        raise TopologyError("self-loop at node %d" % i)
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..n-1.

    Edges are stored canonically as (min, max) pairs; construction rejects
    self-loops and out-of-range endpoints.
    """

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "n", _node_count(self.n))
        if self.n < 1:
            raise TopologyError("node count must be positive")
        canon = set()
        for (i, j) in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise TopologyError("edge (%d,%d) out of range for n=%d" % (i, j, self.n))
            canon.add(_canonical(i, j))
        object.__setattr__(self, "edges", frozenset(canon))


def adjacency(g: Graph) -> np.ndarray:
    """Symmetric boolean n x n adjacency matrix with a False diagonal."""
    a = np.zeros((g.n, g.n), dtype=bool)
    i, j = np.array(list(g.edges), dtype=int).reshape(-1, 2).T
    a[i, j] = a[j, i] = True
    return a


def is_connected(g: Graph) -> bool:
    """Breadth-first search from node 0 reaches every node."""
    adj = [[] for _ in range(g.n)]
    for (i, j) in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == g.n


def build_ring(n: int) -> Graph:
    """Cycle graph on n >= 3 nodes; every node has degree 2."""
    n = _node_count(n)
    if n < 3:
        raise TopologyError("ring requires n >= 3, got n=%d" % n)
    return Graph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def build_star(n: int) -> Graph:
    """Star graph: every node connected to node 0."""
    n = _node_count(n)
    if n < 2:
        raise TopologyError("star requires n >= 2, got n=%d" % n)
    return Graph(n, frozenset((0, i) for i in range(1, n)))


def build_erdos_renyi(n: int, prob: float, seed) -> Graph:
    """G(n, prob) resampled until connected, at most ER_MAX_TRIES times."""
    n = _node_count(n)
    if n < 2 or not 0.0 <= prob <= 1.0:
        raise TopologyError("invalid Erdos-Renyi parameters n=%d, prob=%r" % (n, prob))
    rng = np.random.default_rng(seed)
    rows, cols = np.triu_indices(n, 1)  # pairs i < j in row-major order
    for _ in range(ER_MAX_TRIES):
        keep = rng.uniform(size=rows.size) < prob
        g = Graph(n, frozenset(zip(rows[keep].tolist(), cols[keep].tolist())))
        if is_connected(g):
            return g
    raise TopologyError("no connected G(%d, %g) sample within %d tries"
                        % (n, prob, ER_MAX_TRIES))


def from_edge_list(n: int, text: str) -> Graph:
    """Graph on n nodes with one edge "i j" per nonblank line of text."""
    edges = set()
    for line in filter(None, map(str.strip, text.splitlines())):
        try:
            i, j = map(int, line.split())
        except ValueError:  # not two integers
            raise TopologyError("malformed edge line: %r" % line) from None
        edges.add((i, j))
    return Graph(n, frozenset(edges))
