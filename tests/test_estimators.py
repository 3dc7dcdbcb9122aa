import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tricount import (open_stream, Order, gen_complete,
                      gen_planted, gen_tripartite, count_triangles_exact,
                      triangle_stats,
                      choose_p_alg1, choose_p_alg2, choose_repetitions,
                      alg1_two_pass, alg1_one_pass_random, alg2_two_pass,
                      alg2_one_pass_random, AdjacencyGraph, write_edge_list,
                      SourceChangedError)
from tricount import estimators
from tricount import stream as stream_module
from tricount.estimators import (alg1_pass2_count, alg2_detected_count,
                                 alg1_one_pass_count, alg2_one_pass_count,
                                 _dense_fits, _heavy_core, _Wedges)
from tricount.graph import _DENSE_MAX_N
from tricount.stream import sampler_rng, order_rng, trial_rng

from conftest import path_graph, k4_minus_edge
import oracles


# ---------------------------------------------------------------------------
# parameter selection

def test_choose_p_alg1_examples():
    p = choose_p_alg1(math.e, 1000, 0.5, c1=1.0)
    assert round(p, 4) == 0.2520
    assert choose_p_alg1(math.e, 8, 0.5, c1=10.0) == 0.99
    last = 1.0
    for T in (10, 100, 1000, 10**6):
        cur = choose_p_alg1(100, T, 0.3)
        assert cur <= last
        last = cur


def test_choose_p_alg1_rejections():
    with pytest.raises(ValueError):
        choose_p_alg1(1.0, 10, 0.3)
    with pytest.raises(ValueError):
        choose_p_alg1(10, 0, 0.3)
    with pytest.raises(ValueError):
        choose_p_alg1(10, 10, 0.6)
    with pytest.raises(ValueError):
        choose_p_alg1(10, 10, 0.3, c1=0.0)


def test_choose_p_alg2_examples():
    assert round(choose_p_alg2(10**8, 0.5), 5) == 0.36204
    assert choose_p_alg2(100, 0.5) == 1.0
    assert round(choose_p_alg2(10**8, 0.4), 5) == 0.79057


def test_choose_repetitions():
    assert choose_repetitions(0.5) == 32
    assert choose_repetitions(0.1) == 160
    assert choose_repetitions(0.3) == 54
    assert choose_repetitions(0.4) == 40


# ---------------------------------------------------------------------------
# the stream drivers agree exactly with the plain-list counters

def coins(seed, m, p):
    return (sampler_rng(seed).random(m) < p).tolist()


def test_alg1_two_pass_matches_core():
    g = gen_planted(60, 6, seed=2)
    edges = g.edges()
    stream = open_stream(g)
    p = 0.4
    for seed in range(6):
        rep = alg1_two_pass(stream, p, seed)
        s = alg1_pass2_count(edges, coins(seed, len(edges), p))
        assert rep.estimate == s / (3 * p * p * (1 - p))


def test_alg1_one_pass_matches_core():
    g = gen_planted(60, 6, seed=2)
    edges = g.edges()
    p = 0.4
    for seed in range(6):
        stream = open_stream(g, order=Order.RANDOM_PERMUTATION, seed=seed)
        rep = alg1_one_pass_random(stream, p, seed)
        perm = order_rng(seed).permutation(len(edges))
        ordered = [edges[i] for i in perm]
        keep = coins(seed, len(edges), p)
        s = alg1_one_pass_count(ordered, keep)
        assert rep.estimate == s / (p * p * (1 - p))
        assert rep.max_stored_edges == sum(keep)


def test_alg2_one_pass_matches_core():
    g = gen_planted(60, 6, seed=2)
    edges = g.edges()
    p = 0.5
    for seed in range(4):
        stream = open_stream(g, order=Order.RANDOM_PERMUTATION, seed=seed)
        rep = alg2_one_pass_random(stream, p, 3, seed)
        perm = order_rng(seed).permutation(len(edges))
        ordered = [edges[i] for i in perm]
        want = []
        for i in range(3):
            keep = (trial_rng(seed, i).random(len(edges)) < p).tolist()
            want.append(alg2_one_pass_count(ordered, keep) / (p * p))
        assert rep.per_trial_estimates == want
        assert rep.estimate == min(want)


def test_alg2_two_pass_matches_core():
    g = gen_planted(60, 6, seed=2)
    edges = g.edges()
    stream = open_stream(g)
    p = 0.45
    denom = 3 * p * p * (1 - p) + p ** 3
    rep = alg2_two_pass(stream, p, 4, 11)
    want = []
    for i in range(4):
        keep = (trial_rng(11, i).random(len(edges)) < p).tolist()
        want.append(alg2_detected_count(edges, keep) / denom)
    assert rep.per_trial_estimates == want
    assert rep.estimate == min(want)


# ---------------------------------------------------------------------------
# behavior on edges of the parameter space

def test_pass2_closure_cases():
    # the dropped edge closes a wedge once and K4 minus itself twice
    assert alg1_pass2_count([(0, 1), (1, 2), (0, 2)], [True, True, False]) == 1
    k4m = k4_minus_edge().edges()
    assert alg1_pass2_count(k4m + [(0, 1)], [True] * len(k4m) + [False]) == 2
    assert alg1_pass2_count([(0, 1)], [False]) == 0


def test_pass2_closures_equal_per_edge_on_full_graph():
    # keeping every edge but e, e closes exactly its own triangles
    for seed in (0, 1):
        g = random_dense_graph(9, 0.5, 40 + seed)
        edges = g.edges()
        per_edge = triangle_stats(g).per_edge
        for e in edges:
            assert alg1_pass2_count(edges, [x != e for x in edges]) == per_edge.get(e, 0)


def test_alg1_rejects_degenerate_p():
    stream = open_stream(gen_complete(4))
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            alg1_two_pass(stream, bad, 0)


def test_bad_p_is_rejected():
    stream = open_stream(gen_complete(4))
    rstream = open_stream(gen_complete(4), order=Order.RANDOM_PERMUTATION, seed=1)
    for bad in (0.0, -0.2, 1.5):
        for run in (lambda: alg1_two_pass(stream, bad, 0),
                    lambda: alg1_one_pass_random(rstream, bad, 0),
                    lambda: alg2_two_pass(stream, bad, 2, 0),
                    lambda: alg2_one_pass_random(rstream, bad, 2, 0)):
            with pytest.raises(ValueError, match="p must lie in"):
                run()


def test_alg1_triangle_free_is_zero():
    stream = open_stream(path_graph(20))
    for seed in range(5):
        assert alg1_two_pass(stream, 0.5, seed).estimate == 0.0
    rstream = open_stream(path_graph(20), order=Order.RANDOM_PERMUTATION, seed=1)
    assert alg1_one_pass_random(rstream, 0.5, 3).estimate == 0.0


def test_one_pass_requires_random_order():
    stream = open_stream(gen_complete(4))
    with pytest.raises(ValueError):
        alg1_one_pass_random(stream, 0.5, 0)
    with pytest.raises(ValueError):
        alg2_one_pass_random(stream, 0.5, 2, 0)


def test_alg2_exact_at_p1():
    for g, t in ((gen_complete(4), 4), (gen_tripartite(2, 3, 4), 24)):
        stream = open_stream(g)
        rep = alg2_two_pass(stream, 1.0, 5, 0)
        assert rep.estimate == t
        assert rep.per_trial_estimates == [t] * 5
        assert rep.degenerate
        # p = 1 keeps every edge in every repetition
        assert rep.max_stored_edges == 5 * stream.m
        rstream = open_stream(g, order=Order.RANDOM_PERMUTATION, seed=2)
        rep1 = alg2_one_pass_random(rstream, 1.0, 3, 0)
        assert rep1.estimate == t
        assert rep1.degenerate
        assert rep1.max_stored_edges == 3 * stream.m


def test_alg2_triangle_free_is_zero():
    stream = open_stream(path_graph(30))
    assert alg2_two_pass(stream, 0.6, 4, 1).estimate == 0.0


def test_single_triangle_expectations_small():
    # single triangle, p=0.5: E[trial detection] = 0.5, so the scale makes
    # the average of many independent trials land near 1
    stream = open_stream(gen_complete(3))
    vals = alg2_two_pass(stream, 0.5, 4000, 0).per_trial_estimates
    assert abs(np.mean(vals) - 1.0) < 0.1


# ---------------------------------------------------------------------------
# engines

def random_dense_graph(n, p_edge, seed):
    rng = random.Random(seed)
    return AdjacencyGraph((u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p_edge)


def force_engine(monkeypatch, engine):
    monkeypatch.setattr(estimators, "_dense_fits", lambda stream, p: engine == "dense")


# the sets engine's heavy core as (min sample degree, max vertices): the
# default, and cores small inputs reach, the last two capped
HEAVY_CORES = (None, (1, _DENSE_MAX_N), (2, _DENSE_MAX_N), (1, 3), (2, 3))


def force_heavy(monkeypatch, core):
    if core is not None:
        monkeypatch.setattr(estimators, "_HEAVY_MIN_DEGREE", core[0])
        monkeypatch.setattr(estimators, "_HEAVY_MAX_N", core[1])


def engines(dense=True):
    """(engine, heavy core) pairs: the dense engine, then the sets engine
    under every core of HEAVY_CORES."""
    return ([("dense", None)] if dense else []) + [("sets", c) for c in HEAVY_CORES]


def test_engine_choice():
    big = open_stream(gen_complete(60))  # m=1770, nmax=60
    assert _dense_fits(big, 0.5)
    sparse = open_stream(path_graph(500))
    assert not _dense_fits(sparse, 0.2)
    # 256 edges on ids 0..127: p*m reaches 128^2 / 128 at p = 0.5
    edges = [(u, v) for u in range(2) for v in range(2, 128)]
    edges += [(2, 3), (4, 5), (6, 7), (8, 9)]
    assert _dense_fits(open_stream(edges), 0.5)
    assert not _dense_fits(open_stream(edges), 0.498)
    # K_{20,2028} fills vertex ids 0.._DENSE_MAX_N-1 densely enough; one
    # more edge to id _DENSE_MAX_N puts the matrix past its limit
    edges = [(u, v) for u in range(20) for v in range(20, _DENSE_MAX_N)]
    assert _dense_fits(open_stream(edges), 1.0)
    assert not _dense_fits(open_stream(edges + [(0, _DENSE_MAX_N)]), 1.0)


def test_engines_agree_exactly(monkeypatch):
    for seed in range(5):
        g = random_dense_graph(50, 0.4, seed)
        stream = open_stream(g)
        for p in (0.3, 0.7, 1.0):
            force_engine(monkeypatch, "dense")
            a = alg2_two_pass(stream, p, 3, seed)
            force_engine(monkeypatch, "sets")
            b = alg2_two_pass(stream, p, 3, seed)
            assert a.per_trial_estimates == b.per_trial_estimates
            assert a.estimate == b.estimate
            assert a.max_stored_edges == b.max_stored_edges


def test_alg1_engines_agree_exactly(tmp_path, monkeypatch):
    for seed in range(4):
        g = random_dense_graph(40, 0.4, seed)
        f = tmp_path / ("g%d.el" % seed)
        write_edge_list(f, g.edges())
        for stream in (open_stream(g), open_stream(f)):
            for p in (0.1, 0.3, 0.7):
                force_engine(monkeypatch, "dense")
                a = alg1_two_pass(stream, p, seed)
                force_engine(monkeypatch, "sets")
                b = alg1_two_pass(stream, p, seed)
                assert a.estimate == b.estimate
                assert a.max_stored_edges == b.max_stored_edges


small_graphs = st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11))
                        .filter(lambda e: e[0] != e[1]),
                        unique_by=lambda e: (min(e), max(e)), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(small_graphs, st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32))
def test_alg1_engines_match_oracle(tmp_path_factory, edges, p, seed):
    # hypothesis would share a function-scoped monkeypatch fixture between
    # its examples, so each engine is forced in a context of its own
    keep = sampler_rng(seed).random(len(edges)) < p
    adj = oracles._adj_from_edges(e for e, k in zip(edges, keep) if k)
    s = sum(len(adj.get(u, set()) & adj.get(v, set()))
            for (u, v), k in zip(edges, keep) if not k)
    f = tmp_path_factory.mktemp("alg1") / "g.el"
    write_edge_list(f, edges)
    for stream in (open_stream(edges), open_stream(f)):
        for engine, core in engines():
            with pytest.MonkeyPatch.context() as mp:
                force_engine(mp, engine)
                force_heavy(mp, core)
                rep = alg1_two_pass(stream, p, seed)
            assert rep.estimate == s / (3.0 * p * p * (1.0 - p))
            assert rep.max_stored_edges == int(keep.sum())


def check_estimators_against_oracles(edges, path, p, seed, l=2, dense=True):
    """Every estimator's report on `edges`, in memory and in the file
    `path`, against tests/oracles.py: the two-pass ones on the dense engine
    (unless not `dense`) and on the sets engine under every heavy core, the
    one-pass ones under every heavy core."""
    m = len(edges)
    keep = sampler_rng(seed).random(m) < p
    reps = [trial_rng(seed, i).random(m) < p for i in range(l)]
    s = oracles.two_pass_counts(edges, keep)[0]
    rs = [oracles.two_pass_counts(edges, k)[1] for k in reps]
    ordered = [edges[i] for i in order_rng(seed).permutation(m)]
    s_rand = oracles.one_pass_counts(ordered, keep)[0]
    rs_rand = [oracles.one_pass_counts(ordered, k)[1] for k in reps]
    stored = sum(int(k.sum()) for k in reps)
    for source in (edges, path):
        given = open_stream(source)
        for engine, core in engines(dense):
            with pytest.MonkeyPatch.context() as mp:
                force_engine(mp, engine)
                force_heavy(mp, core)
                a1 = alg1_two_pass(given, p, seed)
                a2 = alg2_two_pass(given, p, l, seed)
            assert a1.estimate == s / (3.0 * p * p * (1.0 - p))
            assert a1.max_stored_edges == int(keep.sum())
            denom = 3.0 * p * p * (1.0 - p) + p ** 3
            assert a2.per_trial_estimates == [r / denom for r in rs]
            assert a2.max_stored_edges == stored
        shuffled = open_stream(source, order=Order.RANDOM_PERMUTATION, seed=seed)
        for core in HEAVY_CORES:
            with pytest.MonkeyPatch.context() as mp:
                force_heavy(mp, core)
                a1 = alg1_one_pass_random(shuffled, p, seed)
                a2 = alg2_one_pass_random(shuffled, p, l, seed)
            assert a1.estimate == s_rand / (p * p * (1.0 - p))
            assert a1.max_stored_edges == int(keep.sum())
            assert a2.per_trial_estimates == [r / (p * p) for r in rs_rand]
            assert a2.max_stored_edges == stored


@settings(max_examples=60, deadline=None)
@given(small_graphs, st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32))
def test_estimators_match_oracles(tmp_path_factory, edges, p, seed):
    f = tmp_path_factory.mktemp("est") / "g.el"
    write_edge_list(f, edges)
    check_estimators_against_oracles(edges, f, p, seed)


def test_estimators_match_oracles_on_a_hub(tmp_path):
    # a 30-leaf star whose leaves are chained by chords: every chord closes
    # a triangle at the hub, and chords (v, v+1), (v+1, v+2), (v, v+2)
    # close triangles among the leaves
    edges = [(0, v) for v in range(1, 31)]
    edges += [(v, v + 1) for v in range(1, 30)]
    edges += [(v, v + 2) for v in range(1, 29, 2)]
    f = tmp_path / "hub.el"
    write_edge_list(f, edges)
    for p in (0.2, 0.5, 0.8):
        for seed in range(3):
            check_estimators_against_oracles(edges, f, p, seed)


def test_estimators_match_oracles_at_huge_ids(tmp_path):
    # a 40-leaf star at id 2^62 with its leaves just below it, chained by
    # chords as above; 2^62 squared has no dense matrix, so sets only
    hub = 2 ** 62
    leaves = range(hub - 40, hub)
    edges = [(v, hub) for v in leaves]
    edges += [(v, v + 1) for v in leaves[:-1]]
    edges += [(v, v + 2) for v in leaves[:-2:2]]
    f = tmp_path / "huge.el"
    write_edge_list(f, edges)
    for p in (0.5, 0.9):
        check_estimators_against_oracles(edges, f, p, 4, dense=False)
    # its 40 edges put the hub alone in the default core (at p = 0.9 it
    # keeps about 36 of them, past the threshold of 32); the core holds
    # slots, and the hub, the largest of the 41 ids, has the last one
    stream = open_stream(edges)
    assert stream._slot_map()[1].__name__ == "searchsorted"
    U, V = next(stream._slot_chunks())
    assert _heavy_core(U, V).tolist() == [40]


def test_heavy_core_takes_the_highest_degrees(monkeypatch):
    # vertex 1 has degree 5, vertices 0 and 2 tie at 4, then 3 at 3, 6 and
    # 7 tie at 2, 4 and 5 at 1; ties go to the lower id
    edges = [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (0, 2), (0, 3), (2, 6),
             (0, 7), (2, 7), (3, 6)]
    U, V = np.array(edges, dtype=np.int64).T
    assert np.bincount(np.concatenate((U, V))).tolist() == [4, 5, 4, 3, 1, 1, 2, 2]
    for cap, want in ((1, [1]), (2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1, 2, 3]),
                      (5, [0, 1, 2, 3, 6]), (8, [0, 1, 2, 3, 6, 7])):
        force_heavy(monkeypatch, (2, cap))
        assert _heavy_core(U, V).tolist() == want
    for cap, want in ((2, [0, 1]), (3, [0, 1, 2]), (4, [0, 1, 2])):
        force_heavy(monkeypatch, (4, cap))
        assert _heavy_core(U, V).tolist() == want


@pytest.mark.parametrize("core", HEAVY_CORES[1:])
def test_sample_splits_heavy_and_light(monkeypatch, core):
    # K5 on 0..4 with a pendant path 4-5-6 and a fan 5-{0, 1, 2}: every
    # pair with an end in the core lives in the bit rows, every other in
    # the keys, and each count is the brute-force common neighbours, summed
    force_heavy(monkeypatch, core)
    edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    edges += [(4, 5), (5, 6), (0, 5), (1, 5), (2, 5)]
    U, V = np.array(edges, dtype=np.int64).T
    heavy = _heavy_core(U, V)
    assert 0 < heavy.size <= core[1]
    wedges = _Wedges(U, V, heavy, 8)  # slot 7 is a vertex of no edge
    assert not wedges.repeats
    in_rows = sum(int(np.bitwise_count(w).sum()) for w in wedges.masks)
    assert in_rows == sum((u in heavy) + (v in heavy) for u, v in edges)
    assert in_rows + wedges.keys.size == 2 * len(edges)
    adj = oracles._adj_from_edges(edges)
    queries = [(u, v) for u in range(8) for v in range(u + 1, 8)]
    for u, v in queries:
        want = len(adj.get(u, set()) & adj.get(v, set()))
        assert wedges.count(np.array([u]), np.array([v])) == want
        assert wedges.count(np.array([v]), np.array([u])) == want
    QU, QV = np.array(queries, dtype=np.int64).T
    assert wedges.count(QU, QV) == sum(
        len(adj.get(u, set()) & adj.get(v, set())) for u, v in queries)
    assert wedges.count(U, V) // 3 == oracles.brute_triangles(edges)


@pytest.mark.parametrize("core", HEAVY_CORES[1:])
def test_one_pass_masks_match_oracle_at_huge_ids(monkeypatch, core):
    # random graphs on 12 ids just below 2^62 in random arrival orders: the
    # list counters, whose look-ahead core holds its vertices as bit masks,
    # equal the plain walk of tests/oracles.py
    force_heavy(monkeypatch, core)
    rng = random.Random(7)
    base = 2 ** 62 - 12
    for _ in range(40):
        edges = [(base + u, base + v) for u in range(12) for v in range(u + 1, 12)
                 if rng.random() < 0.5]
        rng.shuffle(edges)
        p = rng.choice((0.3, 0.6, 0.9))
        keep = [rng.random() < p for _ in edges]
        kept = [e for e, k in zip(edges, keep) if k]
        # the core of the kept edges' slots, ids less base, is not empty
        assert len(_heavy_core(*(np.array(kept, dtype=np.int64).reshape(-1, 2) - base).T)) > 0
        s, r = oracles.one_pass_counts(edges, keep)
        assert alg1_one_pass_count(edges, keep) == s
        assert alg2_one_pass_count(edges, keep) == r


def test_one_pass_walk_gets_the_kept_edges_core(monkeypatch):
    # any core gives the same integers, so only the walk's argument shows
    # that the look-ahead found the heavy core of the edges the pass keeps
    edges = [(0, v) for v in range(1, 61)] + [(v, v + 1) for v in range(1, 60)]
    shuffled = open_stream(edges, order=Order.RANDOM_PERMUTATION, seed=2)
    cores = []
    walk = estimators._count_and_add

    def spy(adj, chunks, census, core):
        cores.append(core)
        return walk(adj, chunks, census, core)

    monkeypatch.setattr(estimators, "_count_and_add", spy)
    alg1_one_pass_random(shuffled, 0.9, 3)
    U, V = next(shuffled.iter_chunks())
    keep = sampler_rng(3).random(len(edges)) < 0.9
    assert cores == [_heavy_core(U[keep], V[keep]).tolist()] == [[0]]


@pytest.mark.parametrize("chunk", [1, 7, 65536])
def test_one_pass_reports_do_not_depend_on_chunks(monkeypatch, chunk):
    # the look-ahead draws a pass's coins before the counting walk replays
    # them; one uniform per edge in stream order, whatever the chunk size
    g = random_dense_graph(40, 0.5, 3)
    shuffled = open_stream(g, order=Order.RANDOM_PERMUTATION, seed=4)
    want = [alg1_one_pass_random(shuffled, 0.6, 5).to_json(),
            alg2_one_pass_random(shuffled, 0.6, 3, 5).to_json()]
    monkeypatch.setattr(stream_module, "_CHUNK_SIZE", chunk)
    for core in (None, (2, 3)):
        with pytest.MonkeyPatch.context() as mp:
            force_heavy(mp, core)
            assert [alg1_one_pass_random(shuffled, 0.6, 5).to_json(),
                    alg2_one_pass_random(shuffled, 0.6, 3, 5).to_json()] == want


# ---------------------------------------------------------------------------
# the one-pass walk pruned to the edges that can close a sampled wedge

def force_pruning(monkeypatch, pruning):
    """"rules": the pre-test alone decides whether the walk is cut, on a
    stream of any size; "always": every walk is cut; "never": none is."""
    monkeypatch.setattr(estimators, "_PRUNE_MIN_EDGES", 2 ** 62 if pruning == "never" else 0)
    if pruning == "always":
        monkeypatch.setattr(estimators, "_CANDIDATE_MAX_SHARE", 1.0)
        monkeypatch.setattr(estimators, "_MAX_PROBES", math.inf)


def test_wedges_find_every_shared_neighbour():
    # a sample on 150 slots with hubs, repeated edges and an isolated
    # slot, under cores of 0, 5, 70 (two words a row) and 140 slots: each
    # pair of slots shares a neighbour exactly when the filter says so,
    # and, without the repeats, count gives its common neighbours
    rng = random.Random(3)
    pairs = [(u, v) for u in range(149) for v in range(u + 1, 149)
             if rng.random() < (0.5 if u < 8 else 0.02)]
    pairs += pairs[:3]
    KU, KV = np.array(pairs, dtype=np.int64).T
    adj = oracles._adj_from_edges(pairs)
    U, V = np.array([(u, v) for u in range(150) for v in range(u + 1, 150)], dtype=np.int64).T
    counts = [len(adj.get(u, set()) & adj.get(v, set())) for u, v in zip(U.tolist(), V.tolist())]
    want = [c > 0 for c in counts]
    assert 0 < sum(want) < len(want)
    for size in (0, 5, 70, 140):
        core = np.sort(np.array(rng.sample(range(150), size), dtype=np.int64))
        wedges = _Wedges(KU, KV, core, 150)
        assert wedges.repeats
        assert wedges(U, V).tolist() == want
        assert wedges(V, U).tolist() == want
        distinct = _Wedges(KU[:-3], KV[:-3], core, 150)
        assert not distinct.repeats
        assert [distinct.count(U[i:i + 1], V[i:i + 1]) for i in range(U.size)] == counts
        assert distinct.count(V, U) == sum(counts)


@pytest.mark.parametrize("chunk", [5, 65536])
def test_pruned_walk_matches_oracle(monkeypatch, chunk):
    # small random graphs in random arrival orders: r read off alg2-rand's
    # per-trial estimates and s off alg1-rand equal the plain walk of
    # tests/oracles.py, under every heavy core, whether the walk is cut
    # always or as its pre-test decides, with ids from 0, just below 2^62
    # and, on unvalidated streams, negative
    monkeypatch.setattr(stream_module, "_CHUNK_SIZE", chunk)
    cut = []
    pruned_walk = estimators._pruned_walk

    def spy(*args):
        walk = pruned_walk(*args)
        cut.append(walk is not None)
        return walk

    monkeypatch.setattr(estimators, "_pruned_walk", spy)
    rng = random.Random(11)
    seen = set()
    for trial in range(24):
        n = rng.randint(5, 16)
        density = rng.choice((0.2, 0.4, 0.8))
        base = (0, 2 ** 62 - 16, -8)[trial % 3]
        edges = [(base + u, base + v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < density]
        if not edges:
            continue
        m, p, seed = len(edges), (0.3, 0.6, 0.9, 1.0)[trial % 4], rng.randint(0, 999)
        stream = open_stream(edges, order=Order.RANDOM_PERMUTATION, seed=seed,
                             validate=base >= 0)
        ordered = [edges[i] for i in order_rng(seed).permutation(m)]
        keep = sampler_rng(seed).random(m) < p
        s = oracles.one_pass_counts(ordered, keep)[0]
        reps = [trial_rng(seed, i).random(m) < p for i in range(2)]
        rs = [oracles.one_pass_counts(ordered, k)[1] for k in reps]
        for core in HEAVY_CORES:
            kept = np.array([e for e, k in zip(ordered, reps[0]) if k], dtype=np.int64) - base
            deg = np.bincount(kept.ravel()) if kept.size else np.zeros(0, dtype=np.int64)
            with pytest.MonkeyPatch.context() as mp:
                force_heavy(mp, core)
                hid = _heavy_core(*kept.reshape(-1, 2).T)
                if np.count_nonzero(deg >= estimators._HEAVY_MIN_DEGREE) > hid.size:
                    seen.add("capped core")
                if any((u in hid.tolist()) != (v in hid.tolist()) for u, v in kept.tolist()):
                    seen.add("light joined to core")
                for pruning in ("rules", "always"):
                    force_pruning(mp, pruning)
                    a2 = alg2_one_pass_random(stream, p, 2, seed)
                    assert [round(r * p * p) for r in a2.per_trial_estimates] == rs
                    if p < 1:
                        a1 = alg1_one_pass_random(stream, p, seed)
                        assert round(a1.estimate * p * p * (1 - p)) == s
        seen.add((base, p))
    assert {"capped core", "light joined to core"} <= seen
    assert len(seen) == 2 + 12
    assert True in cut and False in cut


def test_pruned_walk_takes_few_edges(monkeypatch):
    # on a planted graph in random order, the filler's two sides share no
    # neighbour, so the walk takes the candidates among the triangles'
    # edges and their ends' kept edges: a few percent of the stream, in a
    # chunk for each of the stream's ten, with every report as the walk
    # over every edge gives it
    monkeypatch.setattr(stream_module, "_CHUNK_SIZE", 4096)
    shuffled = open_stream(gen_planted(40000, 4000, seed=3), order=Order.RANDOM_PERMUTATION,
                           seed=1)
    got = {}
    for pruning in ("never", None):
        walked = []
        with pytest.MonkeyPatch.context() as mp:
            if pruning:
                force_pruning(mp, pruning)
            walk = estimators._count_and_add

            def spy(adj, chunks, census, core):
                chunks = list(chunks)
                assert len(chunks) == 10
                walked.append(sum(len(us) for us, _, _ in chunks))
                return walk(adj, chunks, census, core)

            mp.setattr(estimators, "_count_and_add", spy)
            got[pruning] = [alg1_one_pass_random(shuffled, 0.3, 2).to_json(),
                            alg2_one_pass_random(shuffled, 0.3, 4, 2).to_json()], walked
    assert got[None][0] == got["never"][0]
    assert got["never"][1] == [shuffled.m] * 5
    assert all(0 < w < 0.1 * shuffled.m for w in got[None][1])


# ---------------------------------------------------------------------------
# every run or repetition draws each coin once

@pytest.mark.parametrize("engine", ["dense", "sets"])
@pytest.mark.parametrize("census", [False, True])
def test_two_pass_draws_one_coin_per_edge(monkeypatch, engine, census):
    force_engine(monkeypatch, engine)
    g = gen_complete(70)
    stream = open_stream(g)
    rng = sampler_rng(9)
    estimators._two_pass_counts(stream, 0.4, rng, census)
    fresh = sampler_rng(9)
    fresh.random(g.edge_count)
    assert rng.random(4).tolist() == fresh.random(4).tolist()


@pytest.mark.parametrize("p", [0.05, 0.79, 1.0])
def test_engines_agree_on_a_multi_chunk_stream(monkeypatch, p):
    # K_400's 79 800 edges make two chunks of a pass
    stream = open_stream(gen_complete(400))
    assert len(list(stream.iter_chunks())) == 2
    got = {}
    for engine in ("dense", "sets"):
        force_engine(monkeypatch, engine)
        reps = [alg2_two_pass(stream, p, 2, 6).to_json()]
        counts = [estimators._two_pass_counts(stream, p, sampler_rng(6), False)]
        if p < 1:
            reps.append(alg1_two_pass(stream, p, 6).to_json())
        got[engine] = reps, counts
    assert got["dense"] == got["sets"]
    if p == 1:
        # every edge kept: nothing left to close a triangle in pass 2
        assert got["dense"][1] == [(0, stream.m)]
        assert json.loads(got["dense"][0][0])["estimate"] == 400 * 399 * 398 // 6


def test_dense_repetition_that_keeps_nothing(monkeypatch):
    force_engine(monkeypatch, "dense")
    stream = open_stream(gen_complete(30))
    for census in (False, True):
        assert estimators._two_pass_counts(stream, 1e-12, sampler_rng(1), census) == (0, 0)


POOL = [(u, v) for u in range(6) for v in range(u + 1, 14)][:40]


def rechunked_stream(first, later):
    """A stream whose first pass yields chunks of the sizes in `first` and
    every later pass chunks of the sizes in `later`, cut in order from the
    40 edges of POOL."""
    U, V = np.array(POOL, dtype=np.int64).T
    passes = []

    def chunks(chunk_size):
        sizes = later if passes else first
        passes.append(sizes)
        ends = np.cumsum(sizes)
        return ((U[e - k:e], V[e - k:e]) for k, e in zip(sizes, ends))

    # the stream declares its ids 0..13 as a scanned one would, so they are
    # their own slots and no pass maps them before the coins are drawn
    src = stream_module._ExpanderSource(sum(first), chunks)
    return stream_module.EdgeStream(src, n=14, max_vertex_id=13)


@pytest.mark.parametrize("later", [[5] * 6, [8, 8, 8], [8, 8, 8, 6, 4]])
def test_replays_need_the_chunks_the_coins_were_drawn_on(monkeypatch, later):
    # a later pass with chunks of other sizes, fewer chunks or more chunks
    # than the pass that drew the coins: zip would quietly cut it short;
    # the one-pass count replays them whether its walk is cut or not
    first = [8, 8, 8, 6]
    force_engine(monkeypatch, "sets")
    for count, pruning in ((estimators._two_pass_counts, "never"),
                           (estimators._one_pass_count, "never"),
                           (estimators._one_pass_count, "always")):
        force_pruning(monkeypatch, pruning)
        with pytest.raises(SourceChangedError, match="chunk [0-9]+ of a pass"):
            count(rechunked_stream(first, later), 0.5, sampler_rng(2), True)
        want = count(open_stream(POOL[:30]), 0.5, sampler_rng(2), True)
        assert count(rechunked_stream(first, first), 0.5, sampler_rng(2), True) == want


def test_engines_reject_a_repeated_kept_edge(monkeypatch):
    # (0, 1) streams by twice in the first stream, (1, 2) in the second,
    # and both copies are kept: on the first, the dense engine's sample
    # degrees, the trace of C, sum to 8 against 2 * kept = 10; the sets
    # engine's sample holds the pair twice, whose keys it would probe
    # twice, unchecked (it read 5.33 on the second stream, where a count
    # that takes (1, 2) once reads 2.67)
    first = [(0, 1), (1, 2), (0, 2), (0, 1), (2, 3), (1, 3)]
    second = [(1, 2), (1, 2), (0, 2), (0, 3), (0, 4), (0, 1)]
    assert (sampler_rng(2).random(6) < 0.6).tolist() == [True] * 4 + [False, True]
    assert (sampler_rng(3).random(6) < 0.5).tolist()[:2] == [True, True]
    assert _dense_fits(open_stream(first, validate=False), 0.6)
    for engine in ("dense", "sets"):
        force_engine(monkeypatch, engine)
        for edges, p, seed in ((first, 0.6, 2), (second, 0.5, 3)):
            with pytest.raises(ValueError, match="edges must be distinct"):
                alg1_two_pass(open_stream(edges, validate=False), p, seed)


# ---------------------------------------------------------------------------
# vertex slots

@pytest.mark.parametrize("validate", [True, False])
def test_reports_do_not_depend_on_vertex_ids(validate):
    # the estimators count on slots 0..n-1 given in id order, so relabelling
    # the ids leaves every report as it was: the ids 0..n-1 are their own
    # slots, and ids with holes in [0, 3n), ids spread by 2^40 and, on an
    # unvalidated stream, negative ids are looked up among the sorted
    # distinct ids.  Four hubs make a heavy core at p = 0.5, and the plain
    # ids take the dense engine
    r = random.Random(5)
    edges = [(u, v) for u in range(120) for v in range(u + 1, 120)
             if r.random() < (0.7 if u < 4 else 0.06)]
    U, V = np.array(edges, dtype=np.int64).T
    n = 120
    assert np.unique(np.concatenate((U, V))).size == n
    maps = [(np.arange(n), None),
            (np.random.default_rng(1).choice(3 * n, n, replace=False), "searchsorted"),
            (np.arange(n) * 2 ** 40 + 7, "searchsorted")]
    if not validate:
        # ids -60..59, and ids -120..-61 with 60..119: n ids whose largest
        # is n - 1, yet not their own slots
        maps += [(np.arange(n) - n // 2, "searchsorted"),
                 (np.arange(n) - n * (np.arange(n) < n // 2), "searchsorted")]
    got = []
    for f, path in maps:
        given = open_stream((f[U], f[V]), validate=validate)
        shuffled = open_stream((f[U], f[V]), order=Order.RANDOM_PERMUTATION, seed=2,
                               validate=validate)
        reps = []
        for stream in (given, shuffled):
            reps += [alg1_two_pass(stream, 0.5, 1).to_json(),
                     alg2_two_pass(stream, 0.5, 2, 1).to_json()]
        reps += [alg1_one_pass_random(shuffled, 0.5, 1).to_json(),
                 alg2_one_pass_random(shuffled, 0.5, 2, 1).to_json()]
        got.append(reps)
        for stream in (given, shuffled):
            assert stream._slot_map()[0] == n
            assert getattr(stream._slot_map()[1], "__name__", None) == path
        # the passes still yield the ids, not the slots
        perm = order_rng(2).permutation(len(edges))
        for stream, order in ((given, np.arange(len(edges))), (shuffled, perm)):
            SU, SV = (np.concatenate(X) for X in zip(*stream.iter_chunks()))
            assert SU.tolist() == f[U][order].tolist() and SV.tolist() == f[V][order].tolist()
    assert _dense_fits(open_stream((U, V)), 0.5)
    # ids -60..59 have 120 slots, more than the ids 0..59, so they took the
    # sets engine, not a matrix sized by the largest id
    assert validate or not _dense_fits(open_stream((U - n // 2, V - n // 2), validate=False), 0.5)
    assert all(reps == got[0] for reps in got)
    if validate:
        # a scanned stream of the ids 0..n-1 maps them without a pass
        plain = open_stream((U, V))
        plain._source = None
        assert plain._slot_map() == (n, None)


# ---------------------------------------------------------------------------
# space accounting and reports

def test_alg2_meter_sums_trial_samples():
    g = gen_planted(500, 40, seed=1)
    stream = open_stream(g)
    p = 0.35
    rep = alg2_two_pass(stream, p, 6, 17)
    want = sum(int((trial_rng(17, i).random(500) < p).sum()) for i in range(6))
    assert rep.max_stored_edges == want


def test_report_fields_and_json():
    stream = open_stream(gen_complete(4))
    rep = alg2_two_pass(stream, 1.0, 2, 3, epsilon=0.5, T=4)
    d = json.loads(rep.to_json())
    assert list(d.keys()) == ["algorithm", "estimate", "p", "epsilon", "T", "l",
                              "seed", "max_stored_edges", "passes",
                              "per_trial_estimates", "degenerate"]
    assert d["algorithm"] == "alg2"
    assert d["passes"] == 2
    assert d["l"] == 2

    rep1 = alg1_two_pass(stream, 0.5, 3)
    d1 = json.loads(rep1.to_json())
    assert list(d1.keys()) == ["algorithm", "estimate", "p", "epsilon", "T", "l",
                               "seed", "max_stored_edges", "passes",
                               "per_trial_estimates"]
    assert d1["epsilon"] is None and d1["T"] is None and d1["l"] is None
    assert d1["passes"] == 2
    assert rep1.per_trial_estimates == [rep1.estimate]


def test_invalid_l():
    stream = open_stream(gen_complete(4))
    with pytest.raises(ValueError):
        alg2_two_pass(stream, 0.5, 0, 0)
