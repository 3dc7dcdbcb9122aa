"""Exact triangle counting and edge statistics on simple undirected graphs.

The graphs here are the ground truth side of the toolkit: everything the
sampling estimators claim is checked against these routines.  Counting
intersects id-ordered forward neighbor sets, fwd[a] = {b in N(a) : b > a}:
`set & set` walks the smaller set, so an edge (a, b) costs at most
min(d_a, d_b), and that sum over all edges is O(m^{3/2}) (Chiba and
Nishizeki 1985), practical up to a few million edges.  Dense graphs with
small vertex ranges additionally get a BLAS matrix path that computes the
same count, census and heavy/light split much faster.

The counts take an AdjacencyGraph, or a pair (U, V) of int64 arrays of
canonical endpoints (U[i] < V[i], no edge twice) such as
`edgelist.read_edge_arrays` returns, so a file is counted without building
a graph.
"""

import numpy as np


class GraphError(ValueError):
    pass


class DuplicateEdgeError(GraphError):
    pass


# dense counting (here, in the estimators' dense engine and in their heavy
# core) needs an adjacency matrix this small, and here a graph this dense
_DENSE_MAX_N = 2048
_DENSE_MIN_FILL = 1.0 / 32.0


def canonical_edge(u, v):
    """Return the edge as (min, max), rejecting self-loops and bad ids."""
    u = int(u)
    v = int(v)
    if u < 0 or v < 0:
        raise GraphError("vertex ids must be non-negative, got (%d, %d)" % (u, v))
    if u == v:
        raise GraphError("self-loop at vertex %d" % u)
    return (u, v) if u < v else (v, u)


class AdjacencyGraph:
    """Simple undirected graph stored as a dict of neighbor sets.

    Duplicate edges are an error, not silently dropped: every input model
    in this package streams distinct edges, so a repeat means the input is
    broken.  Isolated vertices may be declared through `vertices`.
    """

    def __init__(self, edges=(), vertices=()):
        self.adj = {}
        self.edge_count = 0
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    def add_vertex(self, v):
        v = int(v)
        if v < 0:
            raise GraphError("vertex ids must be non-negative, got %d" % v)
        if v not in self.adj:
            self.adj[v] = set()

    def add_edge(self, u, v):
        u, v = canonical_edge(u, v)
        nbrs = self.adj.get(u)
        if nbrs is not None and v in nbrs:
            raise DuplicateEdgeError("duplicate edge (%d, %d)" % (u, v))
        if nbrs is None:
            self.adj[u] = {v}
        else:
            nbrs.add(v)
        if v in self.adj:
            self.adj[v].add(u)
        else:
            self.adj[v] = {u}
        self.edge_count += 1

    def has_edge(self, u, v):
        u, v = canonical_edge(u, v)
        nbrs = self.adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, v):
        return self.adj.get(int(v), set())

    def degree(self, v):
        return len(self.adj.get(int(v), ()))

    @property
    def vertex_count(self):
        return len(self.adj)

    def vertices(self):
        return sorted(self.adj)

    def edges(self):
        """All edges as canonical pairs, sorted for deterministic output."""
        out = []
        for u in self.adj:
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out

    def edge_arrays(self):
        """Edges as two int64 arrays (canonical, sorted)."""
        es = self.edges()
        if not es:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        a = np.array(es, dtype=np.int64)
        return a[:, 0].copy(), a[:, 1].copy()

    def __contains__(self, v):
        return int(v) in self.adj

    def __repr__(self):
        return "AdjacencyGraph(n=%d, m=%d)" % (self.vertex_count, self.edge_count)


class TriangleStats:
    """Exact triangle census: total t, per-edge counts, and the maxima
    J (over edges) and K (over vertices)."""

    def __init__(self, t, per_edge, J, K):
        self.t = t
        self.per_edge = per_edge
        self.J = J
        self.K = K

    def __repr__(self):
        return "TriangleStats(t=%d, J=%d, K=%d)" % (self.t, self.J, self.K)


class EdgePartition:
    """Split of the edge set into heavy and light at threshold 3*sqrt(t/eps).

    An edge is heavy when it lies in strictly more than the threshold many
    triangles ("at most threshold" reads as light, which forces this
    tie-break).  two_light_triangle_count is the number of triangles having
    at least two light edges.
    """

    def __init__(self, heavy, light, threshold, two_light_triangle_count):
        self.heavy = heavy
        self.light = light
        self.threshold = threshold
        self.two_light_triangle_count = two_light_triangle_count

    def __repr__(self):
        return "EdgePartition(heavy=%d, light=%d, threshold=%.3f)" % (
            len(self.heavy), len(self.light), self.threshold)


def _extent(g):
    """(largest id + 1, edge count) of a graph or a canonical (U, V) pair."""
    if isinstance(g, AdjacencyGraph):
        return (max(g.adj) + 1 if g.adj else 0), g.edge_count
    V = g[1]
    return (int(V.max()) + 1 if V.size else 0), int(V.size)


def _dense_eligible(nmax, m):
    return 0 < nmax <= _DENSE_MAX_N and m >= _DENSE_MIN_FILL * nmax * nmax


def _dense_kernel(a, census=True):
    """Common neighbour counts of a symmetric 0/1 float32 adjacency matrix
    `a`, and its triangle count when `census` is true (else 0).  `a @ a.T`
    equals `a @ a` and runs as BLAS syrk; entries are at most n < 2^24, so
    exact in float32, and the census sums in float64."""
    aa = a @ a.T
    if not census:
        return aa, 0
    return aa, int(round(float((aa * a).sum(dtype=np.float64)))) // 6


def _dense_matrix(g):
    """Symmetric 0/1 float32 adjacency matrix of a graph or a canonical
    (U, V) pair, indexed by vertex id."""
    nmax = _extent(g)[0]
    a = np.zeros((nmax, nmax), dtype=np.float32)
    if isinstance(g, AdjacencyGraph):
        for u, nbrs in g.adj.items():
            a[u, list(nbrs)] = 1.0
    else:
        U, V = g
        a[U, V] = a[V, U] = 1.0
    return a


def _dense_triangle_count(g):
    return _dense_kernel(_dense_matrix(g))[1]


def _dense_stats(g):
    """triangle_stats read off the dense kernel: w = A^2 * A holds at each
    edge (u, v) its triangle count, so row v of w sums to twice the
    triangles at v."""
    a = _dense_matrix(g)
    aa, t = _dense_kernel(a)
    w = aa * a
    U, V = np.nonzero(np.triu(w, 1))
    per_edge = dict(zip(zip(U.tolist(), V.tolist()), w[U, V].astype(np.int64).tolist()))
    K = int(w.sum(axis=1, dtype=np.float64).max()) // 2
    return TriangleStats(t, per_edge, max(per_edge.values(), default=0), K)


def _dense_two_light(g, light):
    """The triangles of g with at least two edges in `light`, read off the
    dense kernel: with L the light edges' adjacency matrix and H = A - L
    the heavy ones', trace(L^3) / 6 counts the all-light triangles and
    sum(H * L^2) / 2 those whose one heavy edge closes a light wedge."""
    a = _dense_matrix(g)
    l = np.zeros_like(a)
    if light:
        U, V = np.array(list(light), dtype=np.int64).T
        l[U, V] = l[V, U] = 1.0
    ll, t_light = _dense_kernel(l)
    a -= l  # now H
    a *= ll
    return t_light + int(round(float(a.sum(dtype=np.float64)))) // 2


def _edge_pairs(g):
    """The canonical edges of a graph or a (U, V) pair, as (a, b) tuples."""
    if isinstance(g, AdjacencyGraph):
        return ((a, b) for a, nbrs in g.adj.items() for b in nbrs if a < b)
    return zip(g[0].tolist(), g[1].tolist())


def _forward_sets(g):
    """fwd[a] = {b in N(a) : b > a} for every vertex a with a higher
    neighbour, built from the canonical edges of a graph or a (U, V) pair."""
    fwd = {}
    for a, b in _edge_pairs(g):
        fa = fwd.get(a)
        if fa is None:
            fwd[a] = {b}
        else:
            fa.add(b)
    return fwd


def _triangle_walk(fwd):
    """Yield (a, b, common) for each edge a < b on some triangle, where
    common is the set of its third vertices c > b.  Every triangle
    a < b < c comes out once, at its edge (a, b), with its edges (a, b),
    (a, c) and (b, c) canonical."""
    empty = frozenset()
    get = fwd.get
    for a, fa in fwd.items():
        for b in fa:
            common = fa & get(b, empty)
            if common:
                yield a, b, common


def count_triangles_exact(g):
    """Exact number of triangles in g, a graph or a canonical (U, V) pair."""
    nmax, m = _extent(g)
    if _dense_eligible(nmax, m):
        return _dense_triangle_count(g)
    return sum(len(common) for _, _, common in _triangle_walk(_forward_sets(g)))


def triangle_stats(g):
    """Full census of a graph or a canonical (U, V) pair: t, triangles per
    edge (edges on no triangle left out), max per edge (J), max per vertex
    (K)."""
    if _dense_eligible(*_extent(g)):
        return _dense_stats(g)
    per_edge = {}
    per_vertex = {}
    t = 0
    for a, b, common in _triangle_walk(_forward_sets(g)):
        k = len(common)
        t += k
        per_edge[a, b] = per_edge.get((a, b), 0) + k
        per_vertex[a] = per_vertex.get(a, 0) + k
        per_vertex[b] = per_vertex.get(b, 0) + k
        for c in common:
            per_edge[a, c] = per_edge.get((a, c), 0) + 1
            per_edge[b, c] = per_edge.get((b, c), 0) + 1
            per_vertex[c] = per_vertex.get(c, 0) + 1
    J = max(per_edge.values(), default=0)
    K = max(per_vertex.values(), default=0)
    return TriangleStats(t, per_edge, J, K)


def classify_edges(g, epsilon, stats=None):
    """Partition edges into heavy and light at threshold 3*sqrt(t/epsilon).

    Undefined on triangle-free graphs and only meaningful for
    0 < epsilon < 1/2; both are rejected.  Pass a precomputed census in
    `stats` to avoid recounting.
    """
    if not (0.0 < epsilon < 0.5):
        raise GraphError("epsilon must lie in (0, 1/2), got %r" % (epsilon,))
    if stats is None:
        stats = triangle_stats(g)
    t = stats.t
    if t <= 0:
        raise GraphError("edge classification needs a graph with at least one triangle")
    threshold = 3.0 * (t / epsilon) ** 0.5
    heavy = set()
    light = set()
    per_edge = stats.per_edge
    for e in _edge_pairs(g):
        if per_edge.get(e, 0) > threshold:
            heavy.add(e)
        else:
            light.add(e)
    # triangles with at least two light edges
    if _dense_eligible(*_extent(g)):
        s_count = _dense_two_light(g, light)
    else:
        s_count = 0
        for a, b, common in _triangle_walk(_forward_sets(g)):
            for c in common:
                n_light = ((a, b) in light) + ((a, c) in light) + ((b, c) in light)
                if n_light >= 2:
                    s_count += 1
    return EdgePartition(frozenset(heavy), frozenset(light), threshold, s_count)
