"""Exact triangle counting and edge statistics on simple undirected graphs.

The graphs here are the ground truth side of the toolkit: everything the
sampling estimators claim is checked against these routines.  Counting
runs one batched numpy kernel, `_triangles`, over id-ordered forward
lists fwd[a] = {b in N(a) : b > a}.  Its cost is the sum, over the edges
(a, b) it keeps, of the shorter of fwd[b] and fwd[a] past b: at most
min(d_a, d_b) an edge, so O(m^{3/2}) (Chiba and Nishizeki 1985), and far
less where the id order prunes most edges.  Dense graphs with small
vertex ranges instead get a BLAS matrix path that computes the same
count, census and heavy/light split much faster.

An AdjacencyGraph is an immutable value of its canonical edge arrays
(U, V): U[i] < V[i], sorted, no edge twice, read-only.  The counts read
canonical (U, V) pairs only, a graph's own or one such as
`edgelist.read_edge_arrays` returns, so a file is counted without
building a graph.
"""

import itertools

import numpy as np


class GraphError(ValueError):
    pass


class DuplicateEdgeError(GraphError):
    pass


# dense counting (here and in the estimators' dense engine) needs an
# adjacency matrix this small, and here a graph this dense; the estimators'
# heavy core is no matrix, but their _HEAVY_MAX_N, the width of its bit
# rows, takes the same value
_DENSE_MAX_N = 2048
_DENSE_MIN_FILL = 1.0 / 32.0
_INT64_MAX = 2**63 - 1


def canonical_edge(u, v):
    """Return the edge as (min, max), rejecting self-loops and bad ids."""
    u = int(u)
    v = int(v)
    if u < 0 or v < 0:
        raise GraphError("vertex ids must be non-negative, got (%d, %d)" % (u, v))
    if u == v:
        raise GraphError("self-loop at vertex %d" % u)
    return (u, v) if u < v else (v, u)


def _first_repeat(U, V, order=None):
    """Index of the first edge (U[i], V[i]) equal to an earlier one, or
    None when all are distinct.  `order` is np.lexsort((V, U)), when the
    caller has it already."""
    if U.size < 2:
        return None
    if order is None:
        order = np.lexsort((V, U))  # stable: equal edges stay in input order
    same = U[order[1:]] == U[order[:-1]]
    same &= V[order[1:]] == V[order[:-1]]
    if not same.any():
        return None
    return int(order[1:][same].min())


def _check_edges(U, V):
    """The canonical ends (lo, hi) of the int64 edges (U[i], V[i]) and
    np.lexsort((hi, lo)).  Raises what `canonical_edge` or a repeat would,
    at the first offending edge in input order."""
    lo, hi = np.minimum(U, V), np.maximum(U, V)
    order = np.lexsort((hi, lo))
    i = _first_repeat(lo, hi, order)
    bad = (lo < 0) | (lo == hi)
    if bad.any() and (i is None or bad.argmax() < i):
        canonical_edge(U[bad.argmax()], V[bad.argmax()])  # raises its GraphError
    if i is not None:
        raise DuplicateEdgeError("duplicate edge (%d, %d)" % (lo[i], hi[i]))
    return lo, hi, order


def _vertex_slots(*ids):
    """(n, distinct) for the n distinct ids in the int64 arrays `ids`.  The
    slots number them 0..n-1 in id order: an id's slot is its place in the
    sorted array `distinct`, found by `distinct.searchsorted`.  `distinct`
    is None when the ids are exactly 0..n-1 and so their own slots, which
    a presence table settles without a sort."""
    ids = np.concatenate(ids)
    if not ids.size:
        return 0, None
    top = int(ids.max())
    if top < ids.size and ids.min() == 0:
        seen = np.zeros(top + 1, dtype=bool)
        seen[ids] = True
        if seen.all():
            return top + 1, None
    # a sort and a neighbour compare beat np.unique's hashing
    ids.sort()
    ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
    return ids.size, ids


def _id_arrays(*arrays, copy=False):
    """The vertex id arrays `arrays` as int64, copied when `copy`; a
    ValueError unless they are 1-D, of one length, and hold integers within
    int64 (numpy holds Python ints past it as uint64, float64 or object)."""
    arrays = [np.asarray(X) for X in arrays]
    if any(X.ndim != 1 or X.size != arrays[0].size for X in arrays):
        raise ValueError("vertex id arrays must be 1-D and of equal length")
    for X in arrays:
        if X.size and (X.dtype.kind not in "iu" or X.dtype.kind == "u" and X.max() > _INT64_MAX):
            raise ValueError("vertex ids must be integers within int64, got a %s array" % X.dtype)
    return [(np.array if copy else np.asarray)(X, dtype=np.int64) for X in arrays]


def _pair_arrays(pairs):
    """The ends of the (u, v) pairs as two checked int64 arrays; two lists
    convert in about 2/3 the time np.array takes on the list of pairs."""
    us, vs = [], []
    for u, v in pairs:
        us.append(u)
        vs.append(v)
    return _id_arrays(us, vs)


class AdjacencyGraph:
    """Simple undirected graph held as its canonical edge arrays: int64
    (U, V) with U[i] < V[i], sorted, read-only, which the exact counts
    read directly.  `vertex_count` is the n a generator builds the graph
    with, or else the number of distinct edge ends.

    Duplicate edges are an error, not silently dropped: every input model
    in this package streams distinct edges, so a repeat means the input is
    broken.  The constructor checks all edges at once and raises at the
    first negative id, self-loop or repeat in input order.
    """

    def __init__(self, edges=()):
        lo, hi, order = _check_edges(*_pair_arrays(edges))
        self._hold(lo[order], hi[order], _vertex_slots(lo, hi)[0])

    @classmethod
    def _of_arrays(cls, U, V, n):
        """The graph of n vertices whose edges are the canonical sorted
        distinct arrays (U, V), taken unchecked."""
        g = cls.__new__(cls)
        g._hold(U, V, n)
        return g

    def _hold(self, U, V, n):
        U.setflags(write=False)
        V.setflags(write=False)
        self._U, self._V = U, V
        self.edge_count = int(U.size)
        self.vertex_count = int(n)

    def edges(self):
        """All edges as canonical pairs, sorted for deterministic output."""
        return list(zip(self._U.tolist(), self._V.tolist()))

    def edge_arrays(self):
        """Edges as two read-only int64 arrays (canonical, sorted)."""
        return self._U, self._V

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


def _pair(g):
    """The canonical (U, V) arrays of a graph, or g itself when it is
    such a pair already."""
    return g.edge_arrays() if isinstance(g, AdjacencyGraph) else g


def _extent(g):
    """(largest id + 1, edge count) of a canonical (U, V) pair."""
    V = g[1]
    return (int(V.max()) + 1 if V.size else 0), int(V.size)


def _dense_eligible(nmax, m):
    return 0 < nmax <= _DENSE_MAX_N and m >= _DENSE_MIN_FILL * nmax * nmax


def _dense_kernel(a):
    """Common neighbour counts of a symmetric 0/1 float32 adjacency matrix
    `a`, and its triangle count.  `a @ a.T` equals `a @ a` and runs as BLAS
    syrk; entries are at most n < 2^24, so exact in float32, and the
    triangle count sums in float64."""
    aa = a @ a.T
    return aa, int(round(float((aa * a).sum(dtype=np.float64)))) // 6


def _dense_matrix(g):
    """Symmetric 0/1 float32 adjacency matrix of a canonical (U, V) pair,
    indexed by vertex id."""
    nmax = _extent(g)[0]
    a = np.zeros((nmax, nmax), dtype=np.float32)
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


# wedge probes per batch of `_triangles`, which bounds its temporary
# arrays at a few tens of MB whatever the graph
_PROBE_BATCH = 1 << 20


def _triangles(U, V):
    """Yield the triangles of the canonical distinct edges (U[i], V[i]), in
    any order, in batches (ab, ac, bc) of index arrays into U and V: the
    edges (a, b), (a, c) and (b, c) of triangles a < b < c, each once."""
    key, B, order, sides = _wedge_plan(U, V)
    for flip, side in enumerate(sides):
        for ab, src, hit in _probe(key, B, *side):
            tri = (ab, hit, src) if flip else (ab, src, hit)
            yield tri if order is None else tuple(order[x] for x in tri)


def _wedge_plan(U, V):
    """The lookups `_triangles` makes: (key, B, order, sides), each side
    (e, first, cost, other) as `_probe` takes it, and order the sort of
    the edges into key order, or None when they come in it.

    The edges sort into forward lists held as the keys a*n + b of vertex
    slots (so n < 3e9).  An edge (a, b) can be a triangle's lowest edge
    only when fwd[a] goes on past b and fwd[b] is not empty; each such edge
    probes the shorter of the two, every c past b in fwd[a] for the key
    b*n + c or every c in fwd[b] for a*n + c, by searchsorted."""
    n, ids = _vertex_slots(U, V)
    A, B = (U, V) if ids is None else (ids.searchsorted(U), ids.searchsorted(V))
    key = A * n + B
    order = None
    if not (key[1:] > key[:-1]).all():  # a graph's own edges come sorted
        order = np.argsort(key)
        key, A, B = key[order], A[order], B[order]
    deg = np.bincount(A, minlength=n)
    end = np.cumsum(deg)
    past = end[A] - np.arange(U.size) - 1
    fwd_b = deg[B]
    lo = np.flatnonzero((past > 0) & (fwd_b > 0))
    on_a = past[lo] <= fwd_b[lo]
    a, b = lo[on_a], lo[~on_a]
    # a key past every probe ends the keys, so a probe's place is an index
    key = np.append(key, _INT64_MAX)
    # edges a probe fwd[a] past b for (b, c), edges b probe fwd[b] for (a, c)
    sides = ((a, a + 1, past[a], B[a] * n),
             (b, end[B[b]] - fwd_b[b], fwd_b[b], A[b] * n))
    return key, B, order, sides


def _probe_count(U, V):
    """How many lookups `_triangles` makes on the edges (U[i], V[i])."""
    return sum(int(cost.sum()) for _, _, cost, _ in _wedge_plan(U, V)[3])


def _probe(key, B, e, first, cost, other):
    """Yield, in batches of about _PROBE_BATCH lookups, (e, src, hit) for
    each lookup that finds its key: edge e[i] looks up other[i] + B[s] for
    the cost[i] sorted edge indices s = first[i], first[i] + 1, ...; src
    is that s, and key[hit] the key found."""
    done = np.cumsum(cost)
    i = 0
    while i < e.size:
        j = max(int(np.searchsorted(done, done[i] - cost[i] + _PROBE_BATCH, "right")), i + 1)
        c = cost[i:j]
        src = np.repeat(first[i:j] - (np.cumsum(c) - c), c)
        src += np.arange(src.size)
        probe = np.repeat(other[i:j], c)
        probe += B[src]
        hit = np.searchsorted(key, probe)
        got = key[hit] == probe
        tri = np.repeat(e[i:j], c), src, hit
        yield tri if got.all() else tuple(x[got] for x in tri)
        i = j


def count_triangles_exact(g):
    """Exact number of triangles in g, a graph or a canonical (U, V) pair."""
    g = _pair(g)
    nmax, m = _extent(g)
    if _dense_eligible(nmax, m):
        return _dense_triangle_count(g)
    return sum(ab.size for ab, _, _ in _triangles(*g))


def triangle_stats(g):
    """Full census of a graph or a canonical (U, V) pair: t, triangles per
    edge (edges on no triangle left out), max per edge (J), max per vertex
    (K)."""
    g = _pair(g)
    if _dense_eligible(*_extent(g)):
        return _dense_stats(g)
    U, V = g
    count = np.zeros(U.size, dtype=np.int64)
    for tri in _triangles(U, V):
        count += np.bincount(np.concatenate(tri), minlength=U.size)
    on = np.flatnonzero(count)
    per_edge = dict(zip(zip(U[on].tolist(), V[on].tolist()), count[on].tolist()))
    # a vertex's triangles are half the sum of its edges' triangles
    ends = np.concatenate((U[on], V[on]))
    ids = _vertex_slots(ends)[1]
    at_vertex = np.bincount(ends if ids is None else ids.searchsorted(ends),
                            weights=np.tile(count[on], 2))
    K = int(at_vertex.max(initial=0)) // 2
    return TriangleStats(int(count.sum()) // 3, per_edge, int(count.max(initial=0)), K)


def classify_edges(g, epsilon, stats=None):
    """Partition edges into heavy and light at threshold 3*sqrt(t/epsilon).

    Undefined on triangle-free graphs and only meaningful for
    0 < epsilon < 1/2; both are rejected.  Pass a precomputed census in
    `stats` to avoid recounting.
    """
    if not (0.0 < epsilon < 0.5):
        raise GraphError("epsilon must lie in (0, 1/2), got %r" % (epsilon,))
    g = _pair(g)
    if stats is None:
        stats = triangle_stats(g)
    t = stats.t
    if t <= 0:
        raise GraphError("edge classification needs a graph with at least one triangle")
    threshold = 3.0 * (t / epsilon) ** 0.5
    per_edge = stats.per_edge
    edges = list(zip(g[0].tolist(), g[1].tolist()))
    is_light = [per_edge.get(e, 0) <= threshold for e in edges]
    light = frozenset(itertools.compress(edges, is_light))
    heavy = frozenset(edges) - light
    # triangles with at least two light edges
    if _dense_eligible(*_extent(g)):
        s_count = _dense_two_light(g, light)
    else:
        is_light = np.array(is_light, dtype=np.int8)
        s_count = sum(int(np.count_nonzero(is_light[ab] + is_light[ac] + is_light[bc] >= 2))
                      for ab, ac, bc in _triangles(*g))
    return EdgePartition(heavy, light, threshold, s_count)
