import math

import numpy as np
import pytest

from tricount import (AdjacencyGraph, count_triangles_exact, open_stream,
                      Order, gen_planted, gen_complete, gen_tripartite,
                      blow_up, gen_disjointness, gen_disjointness_random,
                      GeneratorError, alg2_two_pass)

from conftest import path_graph, triangle_with_pendant, all_weight_vectors
import oracles


def test_planted_counts():
    g = gen_planted(3, 1)
    assert g.edge_count == 3 and count_triangles_exact(g) == 1
    g = gen_planted(2000, 200, seed=1)
    assert g.edge_count == 2000
    assert count_triangles_exact(g) == 200
    g = gen_planted(10, 0, seed=4)
    assert g.edge_count == 10 and count_triangles_exact(g) == 0


def test_planted_matches_brute_force():
    for seed in range(5):
        g = gen_planted(24, 3, seed=seed)
        assert oracles.brute_triangles(g.edges()) == 3


def test_planted_infeasible():
    with pytest.raises(GeneratorError):
        gen_planted(5, 2)
    with pytest.raises(GeneratorError):
        gen_planted(-1, 0)


def test_planted_deterministic():
    a = gen_planted(50, 4, seed=9).edges()
    b = gen_planted(50, 4, seed=9).edges()
    assert a == b
    c = gen_planted(50, 4, seed=10).edges()
    assert a != c


def test_complete_counts():
    g = gen_complete(4)
    assert g.edge_count == 6 and count_triangles_exact(g) == 4
    assert count_triangles_exact(gen_complete(300)) == 4_455_100
    assert gen_complete(1).vertex_count == 1


def test_tripartite_counts():
    g = gen_tripartite(2, 3, 4)
    assert g.edge_count == 2 * 3 + 2 * 4 + 3 * 4
    assert count_triangles_exact(g) == 24
    assert oracles.brute_triangles(g.edges()) == 24


def test_blow_up_identity_factor():
    g = gen_complete(3)
    out = blow_up(g, 1)
    assert sorted(out.iter_edges()) == g.edges()


def test_blow_up_k3():
    out = blow_up(gen_complete(3), 2)
    edges = list(out.iter_edges())
    assert len(edges) == 12 and out.m == 12
    h = AdjacencyGraph(edges)
    assert count_triangles_exact(h) == 8


def test_blow_up_triangle_free_stays_triangle_free():
    out = blow_up(path_graph(2), 3)
    edges = list(out.iter_edges())
    assert len(edges) == 18
    assert count_triangles_exact(AdjacencyGraph(edges)) == 0


def test_blow_up_cubed_identity():
    suite = [gen_complete(3), gen_complete(4), path_graph(2),
             triangle_with_pendant()]
    for g in suite:
        t = count_triangles_exact(g)
        for T in (1, 2, 3):
            out = blow_up(g, T)
            edges = list(out.iter_edges())
            assert len(edges) == g.edge_count * T * T
            assert count_triangles_exact(AdjacencyGraph(edges)) == T ** 3 * t


def test_blow_up_is_replayable_and_chunked():
    out = blow_up(gen_complete(4), 3)
    a = list(out.iter_edges())
    b = list(out.iter_edges())
    assert a == b
    flat = []
    for U, V in out.iter_chunks(chunk_size=7):
        assert U.size <= 7
        flat.extend(zip(U.tolist(), V.tolist()))
    assert flat == a
    assert out.n == 12 and out.max_vertex_id == 11


def test_blow_up_rejects_ids_past_int64():
    # (2^62 + 1) * 4 - 1 would wrap to small ids and emit self-loops
    with pytest.raises(GeneratorError):
        blow_up(open_stream([(0, 2 ** 62)]), 4)
    out = blow_up(open_stream([(0, 2 ** 61 - 1)]), 4)
    assert out.max_vertex_id == 2 ** 63 - 1
    assert max(v for _, v in out.iter_edges()) == 2 ** 63 - 1


def test_blow_up_feeds_estimators():
    out = blow_up(gen_complete(3), 4)
    rep = alg2_two_pass(out, 1.0, 2, 0)
    assert rep.estimate == 64.0


def test_blow_up_accepts_stream_and_rejects_junk():
    base = open_stream([(0, 1), (1, 2), (0, 2)])
    out = blow_up(base, 2)
    assert out.m == 12
    with pytest.raises(GeneratorError):
        blow_up([(0, 1)], 2)
    with pytest.raises(GeneratorError):
        blow_up(gen_complete(3), 0)


def test_disjointness_examples():
    g = gen_disjointness([1, 1, 0, 0], [0, 0, 1, 1], 4)
    assert count_triangles_exact(g) == 0
    g = gen_disjointness([1, 1, 0, 0], [1, 0, 1, 0], 4)
    assert count_triangles_exact(g) == 4


def test_disjointness_edge_count_weight_half():
    for n, T in ((4, 4), (8, 4), (8, 9)):
        g = gen_disjointness_random(n, T, intersecting=False, seed=1)
        sq = math.isqrt(T)
        assert g.edge_count == n * sq + T
        g = gen_disjointness_random(n, T, intersecting=True, seed=1)
        assert g.edge_count == n * sq + T


def test_disjointness_dichotomy_exhaustive_weight2():
    # every pair of weight-2 vectors of length 4
    for x in all_weight_vectors(4, 2):
        for y in all_weight_vectors(4, 2):
            overlap = sum(a & b for a, b in zip(x, y))
            g = gen_disjointness(x, y, 4)
            t = count_triangles_exact(g)
            assert t == 4 * overlap
            assert oracles.brute_triangles(g.edges()) == t


def test_disjointness_random_instances():
    for seed in range(8):
        g = gen_disjointness_random(8, 4, intersecting=False, seed=seed)
        assert count_triangles_exact(g) == 0
        assert g.vertex_count <= 8 + 2 * 2
        g = gen_disjointness_random(8, 4, intersecting=True, seed=seed)
        assert count_triangles_exact(g) == 4
        assert g.vertex_count <= 8 + 2 * 2


def test_disjointness_rejections():
    with pytest.raises(GeneratorError):
        gen_disjointness([1, 0], [1], 4)
    with pytest.raises(GeneratorError):
        gen_disjointness([1, 0], [0, 1], 3)
    with pytest.raises(GeneratorError):
        gen_disjointness([1, 2], [0, 1], 4)
    with pytest.raises(GeneratorError):
        gen_disjointness_random(7, 4, True)


def test_generator_outputs_are_simple():
    gs = [gen_planted(40, 3, seed=0), gen_tripartite(2, 2, 3),
          gen_disjointness_random(6, 4, True, seed=2)]
    for g in gs:
        for u, v in g.edges():
            assert u < v
        assert len(set(g.edges())) == g.edge_count


def _chunks(stream):
    return [(U.tolist(), V.tolist()) for U, V in stream.iter_chunks(7)]


def check_generated(g, want):
    """g against a reference (edges, vertex count): the same sorted
    canonical edges, arrays and vertex count, and the same stream chunks
    and counts as a stream over the reference edge list."""
    edges, n = want
    assert g.edges() == edges
    assert g.vertex_count == n and g.edge_count == len(edges)
    U, V = g.edge_arrays()
    assert U.dtype == V.dtype == np.int64
    assert list(zip(U.tolist(), V.tolist())) == edges
    got, ref = open_stream(g), open_stream(edges)
    assert (got.n, got.m, got.max_vertex_id) == (ref.n, ref.m, ref.max_vertex_id)
    assert _chunks(got) == _chunks(ref)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_complete_matches_reference(n):
    check_generated(gen_complete(n), oracles.complete_graph(n))


@pytest.mark.parametrize("parts", [(1, 1, 1), (1, 2, 1), (3, 1, 2), (2, 5, 4)])
def test_tripartite_matches_reference(parts):
    check_generated(gen_tripartite(*parts), oracles.tripartite_graph(*parts))


@pytest.mark.parametrize("m, t", [(0, 0), (3, 1), (12, 4), (10, 0), (1, 0),
                                  (50, 4), (101, 7), (2000, 200)])
def test_planted_matches_reference(m, t):
    for seed in (0, 3):
        check_generated(gen_planted(m, t, seed), oracles.planted_graph(m, t, seed))


@pytest.mark.parametrize("x, y, T", [
    ([0, 0, 0], [0, 0, 0], 4), ([0], [0], 1), ([1], [1], 1),
    ([1, 0, 1, 1], [0, 1, 1, 0], 9), ([1, 1, 0, 0], [1, 0, 1, 0], 4),
    ([1] * 5, [1] * 5, 16)])
def test_disjointness_matches_reference(x, y, T):
    check_generated(gen_disjointness(x, y, T), oracles.disjointness_graph(x, y, T))
