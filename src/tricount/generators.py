"""Test graphs and hard-instance gadgets with known triangle counts.

Each generator builds its graph's canonical edge arrays with numpy, in
sorted order, and hands them to AdjacencyGraph unchecked; the test suite
checks every generator against a plain nested-loop reference.  Ground
truth is never assumed: gen_planted re-counts its output before returning
it, by a forward-set walk of its own, and the gadgets are small enough
that the test suite checks them against the exact counter as well.
"""

import math

import numpy as np

from .graph import AdjacencyGraph, _vertex_slots, _INT64_MAX
from .stream import (EdgeStream, Order, open_stream, _ExpanderSource, _rechunk,
                     check_seed)


class GeneratorError(ValueError):
    pass


def _walk_count(U, V):
    """Triangles of the canonical edges (U[i], V[i]) by intersecting
    id-ordered forward neighbour sets, apart from the exact counter that
    gen_planted's graphs help test.

    It also keeps the blow-up benchmark's set-up, gen_planted(2000, 200),
    at about 1-1.5 ms: the exact counter takes it to 0.7-0.9 ms, and a
    set-up shorter than a ninth of the untimed gc.collect() calls around
    it (~8-10 ms) never lets perfbench's Run._setup_due stop setting up
    (ROADMAP item 1).  Once that is fixed, gen_planted checks itself with
    count_triangles_exact and this goes."""
    fwd = {}
    for a, b in zip(U.tolist(), V.tolist()):
        fa = fwd.get(a)
        if fa is None:
            fwd[a] = {b}
        else:
            fa.add(b)
    empty = frozenset()
    return sum(len(fa & fwd.get(b, empty)) for fa in fwd.values() for b in fa)


def gen_planted(m, t_target, seed=0):
    """Graph with exactly t_target triangles and m edges.

    t_target vertex-disjoint 3-cliques, then a random bipartite filler on
    fresh vertices for the remaining m - 3*t_target edges.  Bipartite
    filler is triangle-free and shares no vertex with the cliques, so the
    count is exact by construction; we still re-count it, by `_walk_count`.
    """
    m = int(m)
    t_target = int(t_target)
    if t_target < 0 or m < 0:
        raise GeneratorError("m and t_target must be non-negative")
    if 3 * t_target > m:
        raise GeneratorError("need m >= 3*t_target (each planted triangle "
                             "spends 3 edges); got m=%d, t_target=%d" % (m, t_target))
    # clique i's edges (3i, 3i+1), (3i, 3i+2), (3i+1, 3i+2), in order
    base = 3 * t_target
    first = np.arange(0, base, 3).repeat(3)
    U = [first + np.tile([0, 0, 1], t_target)]
    V = [first + np.tile([1, 2, 2], t_target)]
    n = base
    fill = m - base
    if fill > 0:
        side = math.isqrt(fill - 1) + 1  # the smallest side with side^2 >= fill
        rng = np.random.default_rng(np.random.SeedSequence((check_seed(seed), 7)))
        # sorting the picks sorts the filler edges (base + i, base + side + j)
        i, j = np.divmod(np.sort(rng.choice(side * side, size=fill, replace=False)), side)
        U.append(base + i)
        V.append(base + side + j)
        n += _vertex_slots(i)[0] + _vertex_slots(j)[0]
    g = AdjacencyGraph._of_arrays(np.concatenate(U), np.concatenate(V), n)
    got = _walk_count(*g.edge_arrays())
    if got != t_target:
        raise GeneratorError("internal check failed: wanted %d triangles, built %d"
                             % (t_target, got))
    return g


def gen_complete(n):
    """Complete graph K_n."""
    n = int(n)
    if n < 1:
        raise GeneratorError("n must be at least 1")
    U, V = np.triu_indices(n, 1)
    return AdjacencyGraph._of_arrays(U, V, n)


def gen_tripartite(a, b, c):
    """Complete tripartite graph; every triangle takes one vertex per part,
    so t = a*b*c and m = ab + ac + bc."""
    a, b, c = int(a), int(b), int(c)
    if min(a, b, c) < 1:
        raise GeneratorError("all three part sizes must be at least 1")
    # each vertex of A is joined to all of B and C, each of B to all of C
    n = a + b + c
    U = np.concatenate((np.arange(a).repeat(b + c), np.arange(a, a + b).repeat(c)))
    V = np.concatenate((np.tile(np.arange(a, n), a), np.tile(np.arange(a + b, n), b)))
    return AdjacencyGraph._of_arrays(U, V, n)


def blow_up(source, T):
    """Replace every vertex v by copies v*T .. v*T+T-1 and every edge by the
    full T x T biclique between the copy blocks.

    Triangles multiply by T^3 and edges by T^2.  The transform streams:
    each input edge expands to T^2 output edges with O(1) working state, so
    the result is returned as a replayable EdgeStream rather than a
    materialized graph.  Accepts an AdjacencyGraph or an EdgeStream; an
    output id past the int64 range is a GeneratorError.
    """
    T = int(T)
    if T < 1:
        raise GeneratorError("blow-up factor must be at least 1")
    if isinstance(source, AdjacencyGraph):
        base = open_stream(source)
    elif isinstance(source, EdgeStream):
        base = source
    else:
        raise GeneratorError("blow_up wants an AdjacencyGraph or EdgeStream")
    max_out = (base.max_vertex_id + 1) * T - 1 if base.max_vertex_id is not None else None
    if max_out is not None and max_out > _INT64_MAX:
        raise GeneratorError("blow-up ids would reach %d, past the int64 limit %d"
                             % (max_out, _INT64_MAX))

    offsets_i, offsets_j = np.meshgrid(np.arange(T, dtype=np.int64),
                                       np.arange(T, dtype=np.int64), indexing="ij")
    oi = offsets_i.ravel()
    oj = offsets_j.ravel()

    def expand_chunks(chunk_size):
        # T^2 copies per input edge, regrouped into chunks of the requested size
        copies = (((U[:, None] * T + oi[None, :]).ravel(),
                   (V[:, None] * T + oj[None, :]).ravel())
                  for U, V in base.iter_chunks())
        return _rechunk(copies, chunk_size)

    n_out = base.n * T if base.n is not None else None
    src = _ExpanderSource(base.m * T * T, expand_chunks)
    return EdgeStream(src, order=Order.AS_GIVEN, seed=0, n=n_out, max_vertex_id=max_out)


def _check_bitvector(x, name):
    out = [int(b) for b in x]
    if any(b not in (0, 1) for b in out):
        raise GeneratorError("%s must contain only 0s and 1s" % name)
    return out


def gen_disjointness(x, y, T):
    """Tripartite gadget whose triangles witness intersections of x and y.

    Vertices: A = one per bit position, B and C of size sqrt(T) each.
    y routes A to B (a_i joined to all of B iff y[i] = 1), x routes C to A
    (c_j joined to a_i for all j iff x[i] = 1), and C x B is complete.
    Position i then contributes sqrt(T)^2 = T triangles iff x[i] = y[i] = 1;
    disjoint vectors give a triangle-free graph and a single shared
    position gives exactly T triangles.
    """
    x = _check_bitvector(x, "x")
    y = _check_bitvector(y, "y")
    if len(x) != len(y):
        raise GeneratorError("x and y must have equal length, got %d and %d"
                             % (len(x), len(y)))
    T = int(T)
    sq = math.isqrt(T)
    if T < 1 or sq * sq != T:
        raise GeneratorError("T must be a positive perfect square, got %d" % T)
    n_len = len(x)
    B = n_len + np.arange(sq)
    C = B + sq
    ya, xa = np.flatnonzero(y), np.flatnonzero(x)
    U = np.concatenate((ya.repeat(sq), xa.repeat(sq), B.repeat(sq)))
    V = np.concatenate((np.tile(B, ya.size), np.tile(C, xa.size), np.tile(C, sq)))
    order = np.lexsort((V, U))
    n = n_len + 2 * sq
    return AdjacencyGraph._of_arrays(U[order], V[order], n)


def gen_disjointness_random(n_len, T, intersecting, seed=0):
    """Random weight-n/2 instance of the disjointness gadget.

    Draws x and y with exactly n_len/2 ones each and |x & y| = 1 when
    intersecting, 0 otherwise (the disjoint case forces y to be the
    complement of x).
    """
    n_len = int(n_len)
    if n_len < 2 or n_len % 2:
        raise GeneratorError("n_len must be a positive even integer, got %d" % n_len)
    w = n_len // 2
    rng = np.random.default_rng(np.random.SeedSequence((check_seed(seed), 8)))
    x = np.zeros(n_len, dtype=np.int64)
    if intersecting:
        y = x.copy()
        shared = int(rng.integers(n_len))
        rest = np.delete(np.arange(n_len), shared)
        xs = rest[rng.choice(rest.size, size=w - 1, replace=False)]
        pool = np.setdiff1d(rest, xs)  # the w positions left for y
        ys = pool[rng.choice(pool.size, size=w - 1, replace=False)]
        x[xs] = y[ys] = 1
        x[shared] = y[shared] = 1
    else:
        x[rng.choice(n_len, size=w, replace=False)] = 1
        y = 1 - x
    return gen_disjointness(x, y, T)
