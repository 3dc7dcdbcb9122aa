import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricount import (AdjacencyGraph, GraphError, DuplicateEdgeError, open_stream,
                      canonical_edge, count_triangles_exact, triangle_stats,
                      classify_edges, gen_complete, generators, graph)
from tricount.graph import _dense_triangle_count, _dense_eligible, _extent

from conftest import path_graph
import oracles


def random_graph(n, p_edge, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p_edge]
    return edges


def test_canonical_edge():
    assert canonical_edge(2, 1) == (1, 2)
    assert canonical_edge(1, 2) == (1, 2)
    with pytest.raises(GraphError):
        canonical_edge(3, 3)
    with pytest.raises(GraphError):
        canonical_edge(-1, 2)


def test_graph_shape():
    g = AdjacencyGraph([(2, 1), (9, 0), (0, 1)])
    assert g.vertex_count == 4
    assert g.edge_count == 3
    assert g.edges() == [(0, 1), (0, 9), (1, 2)]
    U, V = g.edge_arrays()
    assert (U.tolist(), V.tolist()) == ([0, 0, 1], [1, 9, 2])
    assert U.dtype == V.dtype == np.int64
    # the arrays are read-only: a graph is a value, and streams share them
    for X in (U, V):
        with pytest.raises(ValueError):
            X[:1] = 5
    # a generator's n counts its isolated vertices
    assert gen_complete(1).vertex_count == 1


def test_count_small_cliques():
    assert count_triangles_exact(gen_complete(3)) == 1
    assert count_triangles_exact(gen_complete(4)) == 4
    assert count_triangles_exact(AdjacencyGraph()) == 0
    assert count_triangles_exact(path_graph(4)) == 0


def test_count_petersen():
    g = AdjacencyGraph(oracles.petersen_edges())
    assert count_triangles_exact(g) == 0


def test_count_matches_brute_force_small():
    # and gen_planted's own walk
    for seed in range(40):
        edges = random_graph(8, 0.45, seed)
        g = AdjacencyGraph(edges)
        want = oracles.brute_triangles(edges)
        assert count_triangles_exact(g) == generators._walk_count(*g.edge_arrays()) == want, seed


def force_kernel(mp):
    """Send count_triangles_exact, triangle_stats and classify_edges to
    the wedge-probe kernel on any input, past the dense matrix path."""
    mp.setattr(graph, "_dense_eligible", lambda nmax, m: False)


def test_dense_and_sparse_paths_agree(monkeypatch):
    for seed in range(10):
        edges = random_graph(40, 0.35, 100 + seed)
        g = AdjacencyGraph(edges)
        assert _dense_eligible(*_extent(g.edge_arrays()))
        want = oracles.brute_triangles(edges)
        assert _dense_triangle_count(g.edge_arrays()) == want
        assert count_triangles_exact(g) == want
        with monkeypatch.context() as mp:
            force_kernel(mp)
            assert count_triangles_exact(g) == want
            assert count_triangles_exact(g.edge_arrays()) == want


def test_dense_and_kernel_stats_agree():
    # K_n, and a random graph just past the dense fill of 1/32
    for edges in (gen_complete(30).edges(), random_graph(300, 0.08, 7)):
        g = AdjacencyGraph(edges)
        assert _dense_eligible(*_extent(g.edge_arrays()))
        for source in (g, g.edge_arrays()):
            dense = triangle_stats(source)
            with pytest.MonkeyPatch.context() as mp:
                force_kernel(mp)
                kernel = triangle_stats(source)
            assert dense.t == kernel.t == count_triangles_exact(g)
            assert dense.per_edge == kernel.per_edge
            assert (dense.J, dense.K) == (kernel.J, kernel.K)
            assert all(type(k) is int for k in dense.per_edge.values())


def test_dense_and_kernel_classify_agree():
    # two 60-page books with spines (0, 1) and (0, 2) on the same pages,
    # plus five chords between pages: the spines turn heavy at eps = 0.4,
    # and the chords close all-light triangles; dense, at 183 edges on 63 ids
    pages = range(3, 63)
    edges = [(0, 1), (0, 2)] + [(s, v) for v in pages for s in (0, 1, 2)]
    edges += [(v, v + 1) for v in range(3, 13, 2)]
    g = AdjacencyGraph(edges)
    assert _dense_eligible(*_extent(g.edge_arrays()))
    for source in (g, g.edge_arrays()):
        dense = classify_edges(source, 0.4)
        with pytest.MonkeyPatch.context() as mp:
            force_kernel(mp)
            kernel = classify_edges(source, 0.4)
        assert dense.heavy == kernel.heavy == {(0, 1), (0, 2)}
        assert dense.light == kernel.light
        assert (dense.two_light_triangle_count == kernel.two_light_triangle_count
                == oracles.brute_two_light(edges, dense.light) == 135)


def test_stats_k4():
    st = triangle_stats(gen_complete(4))
    assert (st.t, st.J, st.K) == (4, 2, 3)
    assert sum(st.per_edge.values()) == 3 * st.t
    assert all(c == 2 for c in st.per_edge.values())


def test_stats_k3_and_edgeless():
    st = triangle_stats(gen_complete(3))
    assert (st.t, st.J, st.K) == (1, 1, 1)
    for g in (AdjacencyGraph(), gen_complete(1)):
        st = triangle_stats(g)
        assert (st.t, st.J, st.K, st.per_edge) == (0, 0, 0, {})


def test_stats_match_brute_force():
    for seed in range(25):
        edges = random_graph(9, 0.4, 500 + seed)
        st = triangle_stats(AdjacencyGraph(edges))
        t, per_edge, per_vertex, J, K = oracles.brute_stats(edges)
        assert st.t == t
        assert st.J == J
        assert st.K == K
        assert {e: c for e, c in st.per_edge.items() if c} == per_edge
        assert sum(st.per_edge.values()) == 3 * t


def test_classify_k3():
    part = classify_edges(gen_complete(3), 0.25)
    assert part.threshold == pytest.approx(6.0)
    assert len(part.heavy) == 0
    assert len(part.light) == 3
    assert part.two_light_triangle_count == 1


def test_classify_k4():
    part = classify_edges(gen_complete(4), 0.25)
    assert part.threshold == pytest.approx(12.0)
    assert len(part.light) == 6
    assert part.two_light_triangle_count == 4


def test_classify_rejections():
    with pytest.raises(GraphError):
        classify_edges(path_graph(3), 0.25)  # no triangles
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(GraphError):
            classify_edges(gen_complete(3), bad)


def test_classify_partition_and_bounds():
    for seed in range(12):
        edges = random_graph(10, 0.5, 900 + seed)
        g = AdjacencyGraph(edges)
        st = triangle_stats(g)
        if st.t == 0:
            continue
        for eps in (0.1, 0.25, 0.4):
            part = classify_edges(g, eps, stats=st)
            assert part.heavy | part.light == set(g.edges())
            assert not (part.heavy & part.light)
            for e in part.light:
                assert st.per_edge.get(e, 0) <= part.threshold
            for e in part.heavy:
                assert st.per_edge.get(e, 0) > part.threshold
            assert len(part.heavy) <= math.sqrt(eps * st.t)
            assert part.two_light_triangle_count >= (1 - eps) * st.t


def exact_sources(edges):
    """`edges` as a graph, as its sorted canonical arrays, and as canonical
    arrays in the order of `edges`, as a file lists them."""
    g = AdjacencyGraph(edges)
    U = np.array([min(e) for e in edges], dtype=np.int64)
    V = np.array([max(e) for e in edges], dtype=np.int64)
    return g, (g, g.edge_arrays(), (U, V))


def check_against_oracles(edges):
    """The kernel's triangles and every exact count of `edges`, in each
    form of `exact_sources`, on the path the input picks and on the forced
    kernel, and the heavy/light split of each form at three epsilons,
    against tests/oracles.py."""
    t, per_edge, _, J, K = oracles.brute_stats(edges)
    g, sources = exact_sources(edges)
    # the kernel's own output: each triangle once, its edges in order
    for U, V in sources[1:]:
        ends = list(zip(U.tolist(), V.tolist()))
        got = [tuple(ends[i] for i in tri) for batch in graph._triangles(U, V)
               for tri in zip(*(x.tolist() for x in batch))]
        assert sorted(got) == sorted(oracles.brute_triangle_edges(edges))
    for source in sources:
        for kernel in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                if kernel:
                    force_kernel(mp)
                assert count_triangles_exact(source) == t
                stats = triangle_stats(source)
            assert (stats.t, stats.J, stats.K) == (t, J, K)
            assert stats.per_edge == per_edge
    if t == 0:
        return
    for eps in (0.1, 0.25, 0.4):
        light = {e for e in g.edges() if per_edge.get(e, 0) <= 3.0 * (t / eps) ** 0.5}
        for source in sources:
            for kernel in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    if kernel:
                        force_kernel(mp)
                    part = classify_edges(source, eps)
                assert part.light == light
                assert part.heavy == set(g.edges()) - light
                assert part.two_light_triangle_count == oracles.brute_two_light(edges, light)


@st.composite
def graphs_with_a_book(draw):
    """Up to 40 random edges on ids 0..11, plus a book of up to 30 pages
    (triangles sharing the spine (12, 13)) whose spine turns heavy once it
    has enough of them, with every id relabelled by a random permutation
    so that the spine lands anywhere in the id order."""
    edges = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11))
                          .filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: (min(e), max(e)), max_size=40))
    pages = draw(st.integers(0, 30))
    if pages:
        edges += [(12, 13)] + [(s, 14 + i) for i in range(pages) for s in (12, 13)]
    perm = draw(st.permutations(range(44)))
    return [(perm[u], perm[v]) for u, v in edges]


@settings(max_examples=100, deadline=None)
@given(graphs_with_a_book())
def test_exact_counts_match_oracles(edges):
    check_against_oracles(edges)


@pytest.mark.parametrize("hub", [0, 10 ** 6])
def test_exact_counts_match_oracles_on_a_hub(hub):
    # a 30-leaf star on ids past the dense limit, its leaves chained by
    # chords, with the hub at the lowest or the highest id
    leaves = range(5000, 5030)
    edges = [(hub, v) for v in leaves]
    edges += [(v, v + 1) for v in leaves[:-1]]
    edges += [(v, v + 2) for v in leaves[:-2:2]]
    assert not _dense_eligible(*_extent(AdjacencyGraph(edges).edge_arrays()))
    check_against_oracles(edges)


@st.composite
def graphs_on_wide_ids(draw):
    """Up to 40 random edges, in random order and orientation, among up to
    12 ids drawn from 0..2^62, so that they are not 0..n-1."""
    ids = draw(st.lists(st.integers(0, 2 ** 62), min_size=2, max_size=12, unique=True))
    return draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids))
                         .filter(lambda e: e[0] != e[1]),
                         unique_by=lambda e: (min(e), max(e)), max_size=40))


@settings(max_examples=100, deadline=None)
@given(graphs_on_wide_ids())
def test_exact_counts_match_oracles_on_wide_ids(edges):
    check_against_oracles(edges)


def test_exact_counts_match_oracles_without_triangles():
    # empty, a path, the Petersen graph, and K_{3,3} on ids far apart
    wide = [(u * 2 ** 60, v * 2 ** 60 + 1) for u in range(3) for v in range(3)]
    for edges in ([], [(0, 1), (1, 2)], oracles.petersen_edges(), wide):
        check_against_oracles(edges)


@pytest.mark.parametrize("batch", [1, 7])
def test_kernel_batches_split_the_probes(batch):
    # a book of 30 pages on the spine (10^6, 10^6 + 1), its pages chained
    # by chords: the spine alone probes 30 pages, more than a batch
    spine = 10 ** 6
    pages = range(spine + 2, spine + 32)
    edges = [(spine, spine + 1)] + [(s, v) for v in pages for s in (spine, spine + 1)]
    edges += [(v, v + 1) for v in pages[:-1]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_PROBE_BATCH", batch)
        batches = [ab.size for ab, _, _ in graph._triangles(*AdjacencyGraph(edges).edge_arrays())]
        assert len(batches) > 2 and max(batches) >= 30 > batch
        check_against_oracles(edges)


def test_probe_count_on_a_clique():
    # off the dense path by one far edge, K_n's every lookup finds its key
    # (edge (a, b) probes the n-1-b ids past b), so there are C(n, 3)
    for n in (3, 4, 40):
        U, V = gen_complete(n).edge_arrays()
        U, V = np.append(U, 0), np.append(V, 10 ** 6)
        assert graph._probe_count(U, V) == math.comb(n, 3) == count_triangles_exact((U, V))


def test_vertex_slots():
    # ids 0..n-1, in any order and repeated, are their own slots
    assert graph._vertex_slots(np.array([3, 0, 2, 1, 3, 0])) == (4, None)
    assert graph._vertex_slots(np.array([], dtype=np.int64)) == (0, None)
    # other ids map to their place among the distinct ids
    for ids in ([5, 1, 5, 9], [-3, 0, 1, 2], [0, 2, 1, 4], [2 ** 62, 0, 7]):
        n, distinct = graph._vertex_slots(np.array(ids))
        assert n == len(set(ids))
        assert distinct.tolist() == sorted(set(ids))
        assert (distinct.searchsorted(np.array(ids)).tolist()
                == [sorted(set(ids)).index(x) for x in ids])


@st.composite
def edge_lists_with_faults(draw):
    """Up to 20 edges on ids 0..9, with up to four faults inserted at
    random places: a repeat of an earlier edge in either orientation, a
    self-loop, or a negative id."""
    edges = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["repeat", "flipped", "loop", "negative"]))
        if kind in ("repeat", "flipped") and edges:
            u, v = draw(st.sampled_from(edges))
            e = (u, v) if kind == "repeat" else (v, u)
        elif kind == "loop":
            x = draw(st.integers(-1, 9))
            e = (x, x)
        else:
            e = draw(st.permutations([draw(st.integers(-3, -1)), draw(st.integers(-3, 9))]))
        edges.insert(draw(st.integers(0, len(edges))), tuple(e))
    return edges


def built_or_raised(build):
    try:
        g = build()
    except Exception as exc:
        return type(exc), str(exc)
    U, V = g.edge_arrays()
    return g.edges(), (U.tolist(), V.tolist()), g.vertex_count, g.edge_count


@settings(max_examples=300, deadline=None)
@given(edge_lists_with_faults())
def test_bulk_construction_raises_like_the_reference(edges):
    fault = oracles.first_edge_fault(edges)
    if fault is None:
        want = sorted((min(e), max(e)) for e in edges)
        ends = [u for u, _ in want], [v for _, v in want]
        want = want, ends, len({x for e in want for x in e}), len(want)
    else:
        kind, msg = fault
        want = DuplicateEdgeError if kind == "duplicate" else GraphError, msg
    assert built_or_raised(lambda: AdjacencyGraph(edges)) == want


@settings(max_examples=200, deadline=None)
@given(edge_lists_with_faults())
def test_streams_validate_like_the_graph(edges):
    # one check serves both: the same error at the same edge, or the same
    # vertex count
    def outcome(build):
        try:
            got = build(edges)
        except GraphError as exc:
            return type(exc), str(exc)
        return got.n if build is open_stream else got.vertex_count

    assert outcome(open_stream) == outcome(AdjacencyGraph)


def test_bulk_construction_names_the_first_fault():
    for edges, err, msg in [
            ([(0, 1), (2, 3), (3, 2), (1, 0)], DuplicateEdgeError, r"duplicate edge \(2, 3\)$"),
            ([(0, 1), (4, 4), (1, 0)], GraphError, r"self-loop at vertex 4$"),
            ([(0, 1), (1, 0), (4, 4)], DuplicateEdgeError, r"duplicate edge \(0, 1\)$"),
            ([(2, -1), (3, 3)], GraphError, r"non-negative, got \(2, -1\)$"),
            ([(-1, -1)], GraphError, r"non-negative, got \(-1, -1\)$")]:
        with pytest.raises(err, match=msg):
            AdjacencyGraph(edges)
        # and the reference names it alike, so that it cannot drift
        assert re.search(msg, oracles.first_edge_fault(edges)[1])
