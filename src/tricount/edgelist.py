"""Plain text edge lists.

Format: one edge per line, two whitespace separated decimal vertex ids,
each an optional sign followed by ASCII digits.
Lines whose first non-blank character is '#' are comments, blank lines are
skipped.  Vertex ids are non-negative integers that fit in a signed 64-bit
integer and need not be contiguous.  Lines end at '\\n'; files are read as
bytes, and a non-ASCII byte is never part of an id.

Every reader parses a file a block of whole lines at a time.  A block made
only of digits, blanks and newlines, in which every non-blank line holds
two ids of at most 18 digits and no self-loop, is parsed by numpy in one
call.  Any other block goes through `parse_edge_line` one line at a time,
which defines the format and every error message.
"""

import re

import numpy as np

from .graph import canonical_edge, GraphError, _first_repeat, _INT64_MAX

# an id token: an optional sign and ASCII digits (int() also takes '_' and
# non-ASCII digits)
_ID_TOKEN = re.compile(r"[+-]?[0-9]+\Z")

# bytes read per block, extended to the end of the line it stops in
_BLOCK_BYTES = 1 << 18

# longest id the numpy path parses; every 18-digit number fits in int64
_FAST_DIGITS = 18


class EdgeListParseError(ValueError):
    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = "line %d: %s" % (lineno, message)
        super().__init__(message)
        self.lineno = lineno


def parse_edge_line(line, lineno=None):
    """Parse one line; returns a canonical (u, v) pair or None for
    comments and blanks."""
    s = line.strip()
    if not s or s.startswith("#"):
        return None
    parts = s.split()
    if len(parts) != 2:
        raise EdgeListParseError(
            "expected two vertex ids, got %d tokens" % len(parts), lineno)
    if not (_ID_TOKEN.match(parts[0]) and _ID_TOKEN.match(parts[1])):
        raise EdgeListParseError("vertex ids must be decimal integers: %r" % s, lineno)
    u = int(parts[0])
    v = int(parts[1])
    try:
        e = canonical_edge(u, v)
    except GraphError as exc:
        raise EdgeListParseError(str(exc), lineno)
    if e[1] > _INT64_MAX:
        raise EdgeListParseError(
            "vertex id %d does not fit in a signed 64-bit integer" % e[1], lineno)
    return e


def _parse_fast(buf):
    """Edges of a block parsed by numpy, or None when the block needs the
    line parser.  Returns (U, V, line): the canonical endpoints of each
    edge and the index of its line in the block."""
    b = np.frombuffer(buf, dtype=np.uint8)
    digit = b - ord("0") < 10  # uint8 wraps below '0'
    newline = b == ord("\n")
    # in place, so that fewer block-sized temporaries raise the parse's peak
    ok = digit | newline
    for blank in b" \t\r":
        ok |= b == blank
    if not ok.all():
        return None
    del ok
    # digit runs start and stop where `digit` flips, and at the ends
    flips = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    if digit[:1].any():
        flips = np.concatenate(([0], flips))
    if digit[-1:].any():
        flips = np.append(flips, b.size)
    first = flips[0::2]
    if (flips[1::2] - first).max(initial=0) > _FAST_DIGITS:
        return None
    newlines = np.flatnonzero(newline)
    tok_line = np.searchsorted(newlines, first)
    tokens = np.bincount(tok_line, minlength=newlines.size + 1)
    if ((tokens != 0) & (tokens != 2)).any():
        return None
    if not first.size:
        # fromstring reads a blank-only buffer as [0]
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    ids = np.fromstring(buf, dtype=np.int64, sep=" ")
    U, V = ids[0::2], ids[1::2]
    if ids.size != first.size or (U == V).any():
        return None
    return np.minimum(U, V), np.maximum(U, V), tok_line[0::2]


def _parse_lines(buf, lineno):
    """Parse a block with `parse_edge_line`, its first line numbered
    `lineno`.  Returns the edges before the first bad line in the layout
    of `_parse_fast`, and that line's error or None."""
    us, vs, lines = [], [], []
    err = None
    for i, raw in enumerate(buf.split(b"\n")):
        try:
            e = parse_edge_line(raw.decode("ascii", errors="replace"), lineno + i)
        except EdgeListParseError as exc:
            err = exc
            break
        if e is not None:
            us.append(e[0])
            vs.append(e[1])
            lines.append(i)
    arrays = tuple(np.array(a, dtype=np.int64) for a in (us, vs, lines))
    return arrays, err


def _parse_block(buf, lineno):
    """The one parser of edge list text: `buf` holds whole lines, the first
    numbered `lineno`.  Returns ((U, V, line), error or None)."""
    parsed = _parse_fast(buf)
    if parsed is not None:
        return parsed, None
    return _parse_lines(buf, lineno)


def _line_blocks(f):
    """Yield (buf, lineno) over a binary file: runs of whole lines of about
    _BLOCK_BYTES and the number of their first line.  The last block may
    lack a final newline."""
    lineno = 1
    parts = []
    while True:
        data = f.read(_BLOCK_BYTES)
        if not data:
            buf = b"".join(parts)
            if buf:
                yield buf, lineno
            return
        cut = data.rfind(b"\n") + 1
        if not cut:
            parts.append(data)
            continue
        parts.append(data[:cut])
        buf = b"".join(parts)
        yield buf, lineno
        lineno += buf.count(b"\n")
        parts = [data[cut:]]


def iter_edge_blocks(path):
    """Yield (U, V, lineno) array triples over an edge list file, in file
    order: each edge's canonical int64 endpoints and the number of its
    line.  Blocks hold at most a few hundred KiB of text.  A bad line
    raises EdgeListParseError after every edge above it has been yielded."""
    with open(path, "rb") as f:
        for buf, lineno in _line_blocks(f):
            (U, V, line), err = _parse_block(buf, lineno)
            if U.size:
                yield U, V, line + lineno
            if err is not None:
                raise err


def _distinct_edges(blocks):
    """Concatenate (U, V, lineno) block arrays, emptying `blocks`; a
    repeated edge raises with the line of its first repeat.  Returns
    (U, V)."""
    U, V, lineno = (np.concatenate([b[k] for b in blocks]) if blocks
                    else np.empty(0, dtype=np.int64) for k in range(3))
    blocks.clear()
    i = _first_repeat(U, V)
    if i is not None:
        raise EdgeListParseError("duplicate edge (%d, %d)" % (U[i], V[i]), int(lineno[i]))
    return U, V


def read_edge_arrays(path):
    """Parse and validate a whole edge list file.  Returns (U, V): int64
    arrays of the canonical endpoints of every edge in file order.  A
    malformed line or a repeated edge raises EdgeListParseError naming the
    first offending line."""
    blocks = []
    try:
        for block in iter_edge_blocks(path):
            blocks.append(block)
    except EdgeListParseError:
        _distinct_edges(blocks)  # a repeat above the bad line is reported first
        raise
    return _distinct_edges(blocks)


def write_edge_list(path, edges, comment=None):
    """Write edges one per line; `edges` may be any iterable of pairs."""
    n = 0
    with open(path, "w") as f:
        if comment:
            for line in comment.splitlines():
                f.write("# %s\n" % line)
        for u, v in edges:
            f.write("%d %d\n" % (u, v))
            n += 1
    return n
