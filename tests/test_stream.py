import math
import os

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from tricount import (open_stream, Order,
                      order_rng, sampler_rng, trial_rng, SourceChangedError,
                      EdgeListParseError, DuplicateEdgeError, GraphError,
                      AdjacencyGraph, gen_complete, blow_up)
from tricount import cli
from tricount.estimators import _coins
from tricount.stream import check_seed

from conftest import path_graph


EDGES3 = [(0, 1), (1, 2), (2, 3)]


def write_el(tmp_path, edges, name="g.el"):
    f = tmp_path / name
    f.write_text("".join("%d %d\n" % e for e in edges))
    return f


def test_replay_as_given_memory():
    s = open_stream(EDGES3)
    assert list(s.iter_edges()) == EDGES3
    assert list(s.iter_edges()) == EDGES3
    assert s.m == 3 and s.n == 4 and s.max_vertex_id == 3


def test_replay_permutation_fixed_at_construction():
    s = open_stream(EDGES3, order=Order.RANDOM_PERMUTATION, seed=7)
    first = list(s.iter_edges())
    assert sorted(first) == sorted(EDGES3)
    for _ in range(3):
        assert list(s.iter_edges()) == first
    # same seed, same permutation; construction does not consume entropy
    s2 = open_stream(EDGES3, order=Order.RANDOM_PERMUTATION, seed=7)
    assert list(s2.iter_edges()) == first


def test_replay_file_matches_memory(tmp_path):
    edges = [(i, i + 1) for i in range(40)] + [(0, 20), (5, 30)]
    f = write_el(tmp_path, edges)
    for order, seed in ((Order.AS_GIVEN, 0), (Order.RANDOM_PERMUTATION, 3)):
        sm = open_stream(edges, order=order, seed=seed)
        sf = open_stream(f, order=order, seed=seed)
        assert list(sf.iter_edges()) == list(sm.iter_edges())
        assert list(sf.iter_edges()) == list(sm.iter_edges())


def test_chunks_agree_with_edges():
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    s = open_stream(edges, order=Order.RANDOM_PERMUTATION, seed=1)
    flat = []
    for U, V in s.iter_chunks(chunk_size=7):
        assert U.dtype == np.int64
        flat.extend(zip(U.tolist(), V.tolist()))
    assert flat == list(s.iter_edges())


def test_bad_chunk_size_is_rejected(tmp_path):
    # a negative size used to yield empty chunks forever on a given-order
    # file pass and no edges at all on the other sources; 0 fell back to
    # the default
    edges = [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]
    f = write_el(tmp_path, edges)
    streams = [open_stream(edges), open_stream(f),
               open_stream(f, order=Order.RANDOM_PERMUTATION, seed=2),
               blow_up(open_stream(edges), 2)]
    for s in streams:
        for bad in (-1, 0, 2.5):
            with pytest.raises(ValueError, match="chunk_size"):
                next(s.iter_chunks(bad))
            with pytest.raises(ValueError, match="chunk_size"):
                next(s.iter_edges(bad))
        sizes = [U.size for U, _ in s.iter_chunks(np.int64(4))]
        assert sizes == [4] * (s.m // 4) + ([s.m % 4] if s.m % 4 else [])
        assert [U.size for U, _ in s.iter_chunks(None)] == [s.m]


def test_all_orderings_occur_uniformly():
    # 3 edges, 6 possible arrival orders; check uniformity over 6000 seeds
    counts = {}
    for seed in range(6000):
        s = open_stream(EDGES3, order=Order.RANDOM_PERMUTATION, seed=seed,
                        validate=False)
        key = tuple(s.iter_edges())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    chi2, pval = scipy.stats.chisquare(list(counts.values()))
    assert pval > 1e-3, (counts, pval)


def test_open_stream_validation(tmp_path):
    with pytest.raises(DuplicateEdgeError):
        open_stream([(0, 1), (1, 0)])
    f = write_el(tmp_path, [(0, 1), (2, 3), (1, 0)])
    with pytest.raises(EdgeListParseError):
        open_stream(f)
    f2 = tmp_path / "bad.el"
    f2.write_text("0 1\n1 1\n")
    with pytest.raises(EdgeListParseError):
        open_stream(f2)
    # both sources name the first repeat in input order, not the smallest
    edges = [(0, 1), (2, 3), (3, 2), (1, 0)]
    with pytest.raises(DuplicateEdgeError, match=r"duplicate edge \(2, 3\)$"):
        open_stream(edges)
    with pytest.raises(EdgeListParseError, match=r"line 3: duplicate edge \(2, 3\)$"):
        open_stream(write_el(tmp_path, edges, "dup.el"))


@pytest.mark.parametrize("edges, msg", [
    ([(-1, 2), (3, 3)], r"vertex ids must be non-negative, got \(-1, 2\)$"),
    ([(0, 1), (-1, 2)], r"vertex ids must be non-negative, got \(-1, 2\)$"),
    ([(0, 1), (4, 4), (2, -3)], r"self-loop at vertex 4$"),
    ([(0, 1), (1, 0), (4, 4)], r"duplicate edge \(0, 1\)$"),
])
def test_memory_sources_name_the_first_fault_in_input_order(edges, msg):
    # the rule and the messages of AdjacencyGraph, for pairs and arrays
    U, V = np.array(edges).T
    for source in (edges, (U, V)):
        with pytest.raises(GraphError, match=msg):
            open_stream(source)
    with pytest.raises(GraphError, match=msg):
        AdjacencyGraph(edges)


EDGES10 = [(i, i + 1) for i in range(10)]


@pytest.mark.parametrize("order", Order.ALL)
@pytest.mark.parametrize("edit", ["shrink", "append comment"])
def test_pass_over_changed_file_fails(tmp_path, order, edit):
    f = write_el(tmp_path, EDGES10)
    s = open_stream(f, order=order, seed=1)
    assert len(list(s.iter_edges())) == 10
    if edit == "shrink":
        write_el(tmp_path, EDGES10[:2])
    else:
        with open(f, "a") as out:
            out.write("# edited\n")
    with pytest.raises(SourceChangedError, match=str(f)):
        list(s.iter_edges())


@pytest.mark.parametrize("order", Order.ALL)
def test_pass_gathers_scanned_edges(tmp_path, order):
    # a pass reads the edges the scan kept, not the file: an edit that
    # keeps size and modification time changes nothing, and a new stamp
    # still fails the pass
    f = write_el(tmp_path, EDGES10)
    st = os.stat(f)
    s = open_stream(f, order=order, seed=1)
    before = list(s.iter_edges())
    assert sorted(before) == EDGES10
    f.write_text(f.read_text().replace("4 5\n", "#  \n"))
    os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert os.stat(f).st_size == st.st_size
    assert list(s.iter_edges()) == before
    os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    with pytest.raises(SourceChangedError, match=str(f)):
        list(s.iter_edges())


@pytest.mark.parametrize("algorithm", ["alg1", "alg1-rand"])
def test_cli_exits_1_when_file_changes(tmp_path, monkeypatch, capsys, algorithm):
    f = write_el(tmp_path, EDGES10)

    def open_then_shrink(*args, **kwargs):
        s = open_stream(*args, **kwargs)
        write_el(tmp_path, EDGES10[:2])
        return s

    monkeypatch.setattr(cli, "open_stream", open_then_shrink)
    assert cli.main(["estimate", algorithm, "--input", str(f), "--p", "0.5"]) == 1
    assert str(f) in capsys.readouterr().err


def test_open_stream_sources():
    g = gen_complete(4)
    s = open_stream(g)
    assert s.m == 6 and s.n == 4
    U = np.array([0, 1, 2])
    V = np.array([1, 2, 3])
    s2 = open_stream((U, V))
    assert list(s2.iter_edges()) == EDGES3
    s3 = open_stream([])
    assert s3.m == 0 and list(s3.iter_edges()) == []


@pytest.mark.parametrize("source", [
    [(0.5, 1.7)],
    [(0, 1), (1, 2.0)],
    (np.array([0.5, 1.0]), np.array([1.7, 2.0])),
    (np.array([0, 1]), np.array([1.0, 2.0])),
    [("0", "1")],
    [(0, 2 ** 63)],
    [(2 ** 63, 2 ** 63 + 1)],
    (np.array([0], dtype=np.uint64), np.array([2 ** 63], dtype=np.uint64)),
])
def test_non_integer_ids_are_rejected(source):
    # truncating 0.5 and 1.7 would yield the edge (0, 1), and ids past int64
    # would wrap to negative ones; a graph checks its edges the same way
    for validate in (True, False):
        with pytest.raises(ValueError, match="integers"):
            open_stream(source, validate=validate)
    pairs = list(zip(*source)) if isinstance(source, tuple) else source
    with pytest.raises(ValueError, match="integers"):
        AdjacencyGraph(pairs)


def test_two_dimensional_endpoint_arrays_are_rejected():
    U = np.array([[0, 1], [2, 3]])
    V = np.array([[4, 5], [6, 7]])
    for validate in (True, False):
        with pytest.raises(ValueError, match="1-D"):
            open_stream((U, V), validate=validate)
    with pytest.raises(ValueError, match="equal length"):
        open_stream((np.array([0, 1]), np.array([2])))


def test_validated_stream_copies_the_endpoint_arrays():
    U = np.array([0, 1, 2, 3])
    V = np.array([1, 2, 3, 4])
    s = open_stream((U, V))
    r = open_stream((U, V), order=Order.RANDOM_PERMUTATION, seed=1)
    U[3] = 4
    V[0] = 0
    assert list(s.iter_edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert sorted(r.iter_edges()) == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_order_validation():
    with pytest.raises(ValueError):
        open_stream(EDGES3, order="sorted")
    with pytest.raises(ValueError):
        check_seed(-1)


def test_coins_binomial_mean():
    # the edges kept over many passes of the estimators' coins are
    # Binomial(passes * m, p)
    m, p, passes = 1000, 0.5, 10_000
    s = open_stream(path_graph(m))
    rng = sampler_rng(123)
    kept = 0
    for _ in range(passes):
        for U, _V, keep in _coins(s, p, rng):
            assert keep.size == U.size
            kept += int(keep.sum())
    n = passes * m
    assert abs(kept - n * p) <= 4 * math.sqrt(n * p * (1 - p))


def test_sampling_pairwise_independence():
    # the first two edges are kept together with frequency near p^2
    s = open_stream(gen_complete(12))
    p = 0.5
    rng = sampler_rng(5)
    trials = 4000
    joint = 0
    for _ in range(trials):
        keep = rng.random(s.m) < p
        joint += int(keep[0] and keep[1])
    freq = joint / trials
    sigma = math.sqrt(p * p * (1 - p * p) / trials)
    assert abs(freq - p * p) <= 4 * sigma


def test_seed_domains_are_separated():
    # one integer seed used for the order and the coins must not correlate
    a = order_rng(42).random(8)
    b = sampler_rng(42).random(8)
    c = trial_rng(42, 0).random(8)
    d = trial_rng(42, 1).random(8)
    assert not np.allclose(a, b)
    assert not np.allclose(b, c)
    assert not np.allclose(c, d)
    # and each is reproducible
    assert np.array_equal(a, order_rng(42).random(8))
    assert np.array_equal(c, trial_rng(42, 0).random(8))


LONG_COMMENT = "#" + "x" * 5000
FILL = ["", "# comment", "  # indented", "\t", LONG_COMMENT]
ids = st.one_of(st.integers(0, 40), st.integers(10**18, 2**63 - 1))  # 19 digits


@st.composite
def edge_files(draw):
    """(bytes, edges): distinct edges written with tabs and CRLF line ends,
    among comments (one of 5001 bytes) and blank lines, possibly with no
    final newline."""
    pairs = draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: (min(e), max(e)), min_size=1, max_size=50))
    lines = []
    for u, v in pairs:
        lines.extend(draw(st.lists(st.sampled_from(FILL), max_size=2)))
        lines.append("%d%s%d" % (u, draw(st.sampled_from([" ", "\t", " \t "])), v))
    lines.extend(draw(st.lists(st.sampled_from(FILL), max_size=2)))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode(), [(min(e), max(e)) for e in pairs]


@settings(max_examples=100, deadline=None)
@given(edge_files(), st.integers(0, 2**32))
def test_random_file_pass_matches_memory(tmp_path_factory, case, seed):
    data, edges = case
    f = tmp_path_factory.mktemp("take") / "g.el"
    f.write_bytes(data)
    for order in Order.ALL:
        sf = open_stream(f, order=order, seed=seed)
        sm = open_stream(edges, order=order, seed=seed)
        for cs in (1, 7, 65536):
            got = list(sf.iter_chunks(cs))
            want = list(sm.iter_chunks(cs))
            assert len(got) == len(want)
            for (fu, fv), (mu, mv) in zip(got, want):
                assert fu.dtype == np.int64 and fv.dtype == np.int64
                assert np.array_equal(fu, mu) and np.array_equal(fv, mv)
