import random

import pytest
from hypothesis import given, settings, strategies as st

from tricount import EdgeListParseError, Order, open_stream, write_edge_list
from tricount import edgelist
from tricount.cli import main
from tricount.edgelist import iter_edge_blocks, parse_edge_line, read_edge_arrays


def read_pairs(path):
    """`read_edge_arrays` as a list of (u, v) pairs."""
    U, V = read_edge_arrays(path)
    return list(zip(U.tolist(), V.tolist()))


def test_parse_line_basics():
    assert parse_edge_line("1 2") == (1, 2)
    assert parse_edge_line("  7\t3 ") == (3, 7)
    assert parse_edge_line("") is None
    assert parse_edge_line("   ") is None
    assert parse_edge_line("# comment") is None
    assert parse_edge_line("  # indented comment") is None


def test_parse_line_errors():
    with pytest.raises(EdgeListParseError):
        parse_edge_line("1 2 3")
    with pytest.raises(EdgeListParseError):
        parse_edge_line("a b")
    with pytest.raises(EdgeListParseError):
        parse_edge_line("4 4")
    with pytest.raises(EdgeListParseError):
        parse_edge_line("-1 2")


def test_read_reports_line_numbers(tmp_path):
    f = tmp_path / "bad.el"
    f.write_text("# header\n0 1\n1 2\noops\n")
    with pytest.raises(EdgeListParseError) as ei:
        read_edge_arrays(f)
    assert ei.value.lineno == 4
    assert "line 4" in str(ei.value)


def test_read_rejects_duplicates(tmp_path):
    f = tmp_path / "dup.el"
    f.write_text("0 1\n2 3\n1 0\n")
    with pytest.raises(EdgeListParseError) as ei:
        read_edge_arrays(f)
    assert "duplicate" in str(ei.value)
    assert ei.value.lineno == 3


def test_round_trip(tmp_path):
    edges = [(0, 1), (1, 2), (0, 5), (3, 4)]
    f = tmp_path / "g.el"
    n = write_edge_list(f, edges, comment="toy graph\nfour edges")
    assert n == 4
    text = f.read_text()
    assert text.startswith("# toy graph\n# four edges\n")
    assert read_pairs(f) == edges


def test_read_skips_comments_and_blanks(tmp_path):
    f = tmp_path / "g.el"
    f.write_text("# top\n\n0 1\n\n# middle\n1 2\n")
    assert read_pairs(f) == [(0, 1), (1, 2)]


# ---------------------------------------------------------------------------
# differential tests: every reader against a line-by-line reference

def reference_read(data, distinct=True):
    """`parse_edge_line` on each '\\n'-line of `data` (bytes), rejecting
    repeats as it goes unless `distinct` is false: returns [(edge, lineno)]
    or raises."""
    out, seen = [], set()
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        e = parse_edge_line(raw.decode("ascii", errors="replace"), lineno)
        if e is None:
            continue
        if distinct and e in seen:
            raise EdgeListParseError("duplicate edge (%d, %d)" % e, lineno)
        seen.add(e)
        out.append((e, lineno))
    return out


def outcome(fn, *args):
    """What a reader does: ("ok", value) or ("error", type, message, lineno)."""
    try:
        return ("ok", fn(*args))
    except EdgeListParseError as exc:
        return ("error", type(exc), str(exc), exc.lineno)


def stream_edges(stream, chunk_size=None):
    return [e for U, V in stream.iter_chunks(chunk_size) for e in zip(U.tolist(), V.tolist())]


def edges_of(result):
    return ("ok", [e for e, _ in result[1]]) if result[0] == "ok" else result


def assert_readers_agree(path, data):
    ref = outcome(reference_read, data)
    assert outcome(read_pairs, path) == edges_of(ref)
    # the blocks give each edge with its line, as the scan parses them,
    # but leave duplicates to the scan
    blocks = outcome(lambda p: [pair for U, V, lineno in iter_edge_blocks(p)
                                for pair in zip(zip(U.tolist(), V.tolist()), lineno.tolist())],
                     path)
    assert blocks == outcome(reference_read, data, False)
    if ref[0] == "error":
        assert outcome(open_stream, path) == ref
        return
    want = edges_of(ref)[1]
    s = open_stream(path)
    verts = {x for e in want for x in e}
    assert (s.m, s.n, s.max_vertex_id) == (len(want), len(verts), max(verts, default=None))
    assert stream_edges(s) == want
    for seed in (0, 5):
        r = open_stream(path, order=Order.RANDOM_PERMUTATION, seed=seed)
        mem = open_stream(want, order=Order.RANDOM_PERMUTATION, seed=seed)
        assert stream_edges(r, 3) == stream_edges(mem)


CASES = {
    "comments and blanks": b"# head\n\n0 1\n  # indented\n\n\t\n1 2\n# tail\n",
    "crlf": b"0 1\r\n1 2\r\n\r\n# c\r\n2 3\r\n",
    "cr only": b"0 1\r1 2\r2 3\r",
    "tabs": b"0\t1\n\t1 \t2\t\n3\t\t4\n",
    "other ascii whitespace": b"0\x0b1\n1\x0c2\n",
    "no final newline": b"0 1\n1 2",
    "no final newline crlf": b"0 1\r\n1 2\r",
    "leading zeros and plus": b"007 0010\n+1 2\n0000000000000000000003 4\n",
    "duplicate same orientation": b"0 1\n2 3\n0 1\n",
    "duplicate reversed": b"0 1\n2 3\n1 0\n",
    "two repeats": b"0 1\n2 3\n3 2\n1 0\n",
    "duplicate above a bad line": b"0 1\n1 0\nbad\n",
    "bad line above a duplicate": b"0 1\nbad\n1 0\n",
    "self-loop": b"0 1\n4 4\n",
    "one token": b"0 1\n5\n",
    "three tokens": b"0 1\n1 2 3\n",
    "negative id": b"0 1\n-1 2\n",
    "non-ascii id": b"0 1\n1 \xc3\xa9\n",
    "non-ascii digit": b"0 1\n\xd9\xa3 4\n",
    "non-ascii comment": b"# caf\xc3\xa9\n0 1\n",
    "underscore": b"1_0 2\n",
    "int64 max": b"0 9223372036854775807\n",
    "above int64": b"0 1\n0 9223372036854775808\n",
    "far above int64": b"0 99999999999999999999\n",
    "empty": b"",
    "comment only": b"# only\n# comments\n",
    "blank only": b"\n \n\r\n",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_readers_agree_with_reference(tmp_path, name):
    f = tmp_path / "case.el"
    f.write_bytes(CASES[name])
    assert_readers_agree(f, CASES[name])


def test_reference_outcomes():
    # pin a few outcomes so the reference itself cannot drift
    assert outcome(reference_read, CASES["cr only"]) == (
        "error", EdgeListParseError, "line 1: expected two vertex ids, got 6 tokens", 1)
    assert outcome(reference_read, CASES["duplicate reversed"])[2:] == (
        "line 3: duplicate edge (0, 1)", 3)
    assert outcome(reference_read, CASES["duplicate above a bad line"])[3] == 2
    assert outcome(reference_read, CASES["far above int64"])[2:] == (
        "line 1: vertex id 99999999999999999999 does not fit in a signed "
        "64-bit integer", 1)
    assert outcome(reference_read, CASES["leading zeros and plus"]) == (
        "ok", [((7, 10), 1), ((1, 2), 2), ((3, 4), 3)])
    assert outcome(reference_read, CASES["int64 max"]) == (
        "ok", [((0, 2**63 - 1), 1)])
    assert outcome(reference_read, CASES["underscore"])[2:] == (
        "line 1: vertex ids must be decimal integers: '1_0 2'", 1)


@pytest.mark.parametrize("block", [1, 5, 16, 64])
def test_lines_straddle_blocks(tmp_path, monkeypatch, block):
    monkeypatch.setattr(edgelist, "_BLOCK_BYTES", block)
    lines = ["%d %d" % (i, i + 1 + i % 7) for i in range(60)]
    lines[30:30] = ["# a comment mid-file", "", "0000000000000000000002 99"]
    good = ("\r\n".join(lines[:20]) + "\n" + "\n".join(lines[20:])).encode()
    f = tmp_path / "blocks.el"
    f.write_bytes(good)
    assert_readers_agree(f, good)
    f.write_bytes(good + b"\n")
    assert_readers_agree(f, good + b"\n")
    for bad in (good + b"\n0 1 2\n7 8\n", good + b"\n9 8\n1 0\n", good[:200] + b" x" + good[200:]):
        f.write_bytes(bad)
        assert_readers_agree(f, bad)


def test_id_overflow_exits_1(tmp_path):
    f = tmp_path / "big.el"
    f.write_bytes(b"0 99999999999999999999\n")
    assert main(["exact", "--input", str(f)]) == 1
    assert main(["estimate", "alg1", "--input", str(f), "--p", "0.5"]) == 1


def test_non_decimal_id_exits_1(tmp_path):
    f = tmp_path / "underscore.el"
    f.write_bytes(b"0 1\n1_0 2\n")
    assert main(["exact", "--input", str(f)]) == 1
    assert main(["estimate", "alg1", "--input", str(f), "--p", "0.5"]) == 1


id_values = st.one_of(st.integers(0, 60), st.integers(0, 2**63 - 1))
FILLER = ["", "# comment", "  # indented comment", " ", "\t", "\r"]


@st.composite
def edge_list_texts(draw):
    """(bytes, edges): distinct pairs written with assorted blanks and line
    ends, mixed with comment and blank lines."""
    pairs = draw(st.lists(st.tuples(id_values, id_values).filter(lambda e: e[0] != e[1]),
                          unique_by=lambda e: (min(e), max(e)), max_size=40))
    lines = []
    for u, v in pairs:
        lines.extend(draw(st.lists(st.sampled_from(FILLER), max_size=2)))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
        lines.append("%s%d%s%d" % (lead, u, sep, v))
    lines.extend(draw(st.lists(st.sampled_from(FILLER), max_size=2)))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text.encode(), [(min(e), max(e)) for e in pairs]


@settings(max_examples=150, deadline=None)
@given(edge_list_texts(), st.sampled_from([3, 64, 1 << 18]))
def test_passes_concatenate_to_reference(tmp_path_factory, case, block):
    data, edges = case
    assert [e for e, _ in reference_read(data)] == edges
    f = tmp_path_factory.mktemp("prop") / "g.el"
    f.write_bytes(data)
    old = edgelist._BLOCK_BYTES
    edgelist._BLOCK_BYTES = block
    try:
        s = open_stream(f)
        assert s.m == len(edges)
        for cs in (1, 7, 65536):
            chunks = list(s.iter_chunks(cs))
            assert all(U.size == cs for U, _ in chunks[:-1])
            assert [e for U, V in chunks for e in zip(U.tolist(), V.tolist())] == edges
        assert read_pairs(f) == edges
    finally:
        edgelist._BLOCK_BYTES = old


def fuzz_block(rng):
    """Random block text: one to four lines of zero to three ids of 1 to 19
    digits between runs of blanks, and now and then a byte the numpy path
    must refuse in place of one of its bytes."""
    lines = []
    for _ in range(rng.randint(1, 4)):
        ids = ["".join(rng.choice("0123456789")
                       for _ in range(rng.choice((1, 1, 1, 1, 2, 2, 3, 5, 18, 19))))
               for _ in range(rng.choice((0, 1, 2, 2, 2, 2, 2, 2, 2, 3)))]
        line = "".join(rng.choice(" \t\r") for _ in range(rng.randint(0, 2)))
        for i, x in enumerate(ids):
            line += "".join(rng.choice(" \t\r") for _ in range(rng.randint(i > 0, 2))) + x
        lines.append(line + "".join(rng.choice(" \t\r") for _ in range(rng.randint(0, 2))))
    buf = bytearray("\n".join(lines) + rng.choice(("", "\n")), "ascii")
    if buf and rng.random() < 0.1:
        buf[rng.randrange(len(buf))] = rng.choice(b"-+#a/:\x00\xff")
    return bytes(buf)


def test_fast_parser_agrees_with_the_line_parser():
    # whenever the numpy path takes a block, it gives the edges and line
    # indices that parse_edge_line gives on the block's lines
    rng = random.Random(17)
    taken = 0
    for _ in range(20000):
        buf = fuzz_block(rng)
        got = edgelist._parse_fast(buf)
        if got is None:
            continue
        taken += 1
        want = [(e, i) for i, e in enumerate(parse_edge_line(line.decode("ascii"), i + 1)
                                             for i, line in enumerate(buf.split(b"\n")))
                if e is not None]
        U, V, line = got
        assert list(zip(zip(U.tolist(), V.tolist()), line.tolist())) == want, buf
    assert taken >= 5000
