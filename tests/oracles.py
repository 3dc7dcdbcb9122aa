"""Independent reference implementations for the test suite.

Everything here favors obviousness over speed: triangle counts by triple
enumeration, estimator expectations by summing over every sampling outcome
(and every arrival order for the one-pass variants), generated graphs by
nested loops over their definitions.  Production code is never called
from this module.
"""

import itertools
import math

import numpy as np


def _adj_from_edges(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def first_edge_fault(edges):
    """The first edge in input order that a graph must refuse, as
    (kind, message) with the library's message: ("invalid", ...) for a
    negative id or a self-loop, ("duplicate", ...) for a repeat of an
    earlier edge in either orientation; None when every edge is fine."""
    seen = set()
    for u, v in edges:
        if u < 0 or v < 0:
            return "invalid", "vertex ids must be non-negative, got (%d, %d)" % (u, v)
        if u == v:
            return "invalid", "self-loop at vertex %d" % u
        e = (min(u, v), max(u, v))
        if e in seen:
            return "duplicate", "duplicate edge (%d, %d)" % e
        seen.add(e)
    return None


def brute_triangles(edges):
    """Triangle count by enumerating all vertex triples."""
    adj = _adj_from_edges(edges)
    verts = sorted(adj)
    t = 0
    for a, b, c in itertools.combinations(verts, 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            t += 1
    return t


def brute_stats(edges):
    """(t, per_edge, per_vertex, J, K) by triple enumeration."""
    adj = _adj_from_edges(edges)
    verts = sorted(adj)
    per_edge = {}
    per_vertex = {}
    t = 0
    for a, b, c in itertools.combinations(verts, 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            t += 1
            for e in ((a, b), (a, c), (b, c)):
                per_edge[e] = per_edge.get(e, 0) + 1
            for v in (a, b, c):
                per_vertex[v] = per_vertex.get(v, 0) + 1
    J = max(per_edge.values(), default=0)
    K = max(per_vertex.values(), default=0)
    return t, per_edge, per_vertex, J, K


def brute_triangle_edges(edges):
    """The edges ((a, b), (a, c), (b, c)) of every triangle a < b < c, by
    triple enumeration."""
    adj = _adj_from_edges(edges)
    return [((a, b), (a, c), (b, c)) for a, b, c in itertools.combinations(sorted(adj), 3)
            if b in adj[a] and c in adj[a] and c in adj[b]]


def brute_two_light(edges, light):
    """Triangles with at least two of their edges in `light`, a set of
    (min, max) pairs, by triple enumeration."""
    adj = _adj_from_edges(edges)
    n = 0
    for a, b, c in itertools.combinations(sorted(adj), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            n += ((a, b) in light) + ((a, c) in light) + ((b, c) in light) >= 2
    return n


def two_pass_counts(edges, keep):
    """(s, r) of alg1 and of one alg2 repetition for one keep mask: s sums,
    over the dropped edges, the common neighbours of their endpoints among
    the kept edges; r adds the kept edges' own triangle count."""
    kept = [e for e, k in zip(edges, keep) if k]
    adj = _adj_from_edges(kept)
    s = sum(len(adj.get(u, set()) & adj.get(v, set()))
            for (u, v), k in zip(edges, keep) if not k)
    return s, brute_triangles(kept) + s


def one_pass_counts(edges_in_order, keep):
    """(s, r) of alg1-rand and of one alg2-rand repetition, by a plain walk
    in arrival order: each arriving edge (u, v) counts the vertices w whose
    edges to u and to v were both kept earlier; s sums that count over the
    dropped edges, r over every edge."""
    verts = sorted({x for e in edges_in_order for x in e})
    kept = set()
    s = r = 0
    for (u, v), k in zip(edges_in_order, keep):
        c = sum(1 for w in verts
                if frozenset((u, w)) in kept and frozenset((v, w)) in kept)
        r += c
        if k:
            kept.add(frozenset((u, v)))
        else:
            s += c
    return s, r


def mask_weight(mask, m, p):
    k = bin(mask).count("1")
    return p ** k * (1.0 - p) ** (m - k)


def mask_bools(mask, m):
    return [bool(mask >> i & 1) for i in range(m)]


def expectation_over_samplings(edges, p, counter):
    """Exact E[counter(edges, keep)] over all 2^m keep masks."""
    m = len(edges)
    total = 0.0
    for mask in range(1 << m):
        total += mask_weight(mask, m, p) * counter(edges, mask_bools(mask, m))
    return total


def expectation_over_orders_and_samplings(edges, p, counter):
    """Exact E[counter(order, keep)] over all m! arrival orders and 2^m masks."""
    m = len(edges)
    n_orders = math.factorial(m)
    total = 0.0
    for order in itertools.permutations(edges):
        for mask in range(1 << m):
            total += mask_weight(mask, m, p) * counter(list(order), mask_bools(mask, m))
    return total / n_orders


def petersen_edges():
    """Outer 5-cycle, inner pentagram, five spokes; girth 5, no triangles."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return outer + inner + spokes


# Reference generators: each returns (sorted canonical edge list, vertex
# count), the vertex count including the isolated vertices the generator
# declares.

def complete_graph(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)], n


def tripartite_graph(a, b, c):
    parts = [list(range(a)), list(range(a, a + b)), list(range(a + b, a + b + c))]
    edges = [(u, v) for p, q in ((0, 1), (0, 2), (1, 2))
             for u in parts[p] for v in parts[q]]
    return sorted(edges), a + b + c


def planted_graph(m, t, seed):
    """t disjoint triangles on 0 .. 3t-1, then m - 3t filler edges drawn
    as cells (i, j) of a side x side grid, the smallest square with room
    for them, by the generator's documented seeding, (seed, 7)."""
    edges = []
    for i in range(t):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (a, c), (b, c)]
    fill = m - 3 * t
    if fill > 0:
        side = 1
        while side * side < fill:
            side += 1
        rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
        for x in rng.choice(side * side, size=fill, replace=False).tolist():
            edges.append((3 * t + x // side, 3 * t + side + x % side))
    return sorted(edges), len({x for e in edges for x in e})


def disjointness_graph(x, y, T):
    """Bit positions 0 .. len-1, then blocks B and C of sqrt(T) vertices:
    i joins all of B when y[i] = 1 and all of C when x[i] = 1, and B x C
    is complete."""
    sq = math.isqrt(T)
    B = range(len(x), len(x) + sq)
    C = range(len(x) + sq, len(x) + 2 * sq)
    edges = [(i, b) for i in range(len(y)) if y[i] for b in B]
    edges += [(i, c) for i in range(len(x)) if x[i] for c in C]
    edges += [(b, c) for b in B for c in C]
    return sorted(edges), len(x) + 2 * sq
