"""Replayable edge streams and seed derivation.

An EdgeStream is a finite sequence of distinct edges that can be traversed
any number of times; every traversal of the same instance yields the exact
same order.  The order is either the source order or a random permutation
drawn once at construction from a seed, never redrawn between passes.

A file stream parses the whole file once when it is opened: the parse
gives m, rejects malformed lines, and finds repeated edges with one sort of
the endpoint arrays.  The stream keeps those arrays (16 bytes per edge),
and its passes, in either order, slice or gather each chunk from them as a
memory stream does.  `validate=False` skips the duplicate check of
in-memory sources only.  The file's size and modification time are
recorded before the parse; a pass over a file whose size or time has
changed since raises SourceChangedError.  An edit that keeps both goes
unseen: the pass yields the parsed edges.

The estimators count on vertex slots, the stream's n vertices numbered
0..n-1 in id order, mapped once per stream when first asked for.  Ids the
stream knows to be exactly 0..n-1, as a scanned generator graph's are,
are their own slots.  Otherwise one extra pass hands every id to
`graph._vertex_slots`, which the exact counts share: ids 0..n-1 are found
to be their own slots without a sort, and other ids are sorted and kept
(8 bytes per vertex), an id's slot being its place among them; this also
numbers the negative ids an unvalidated stream may carry.
The passes still yield ids.

Randomness is split by purpose.  The permutation, the sampling coins and
the per-trial substreams are derived from (seed, tag) so that reusing one
integer seed across roles never correlates them, and so that each
repetition's coins depend only on (seed, repetition index).
"""

import numbers
import os

import numpy as np

from .graph import (AdjacencyGraph, _check_edges, _id_arrays, _pair_arrays,
                    _vertex_slots)
from .edgelist import read_edge_arrays


class SourceChangedError(OSError):
    """The edges behind a stream changed after it was opened: its file's
    size or modification time moved, or a later pass chunked them
    otherwise than the pass whose coins it replays."""


class Order:
    AS_GIVEN = "given"
    RANDOM_PERMUTATION = "random"

    ALL = (AS_GIVEN, RANDOM_PERMUTATION)


# domain tags for seed derivation; arbitrary but fixed distinct constants
_ORDER_TAG = 101
_SAMPLER_TAG = 202
_TRIAL_TAG = 303
_BENCH_TAG = 404


def check_seed(seed):
    seed = int(seed)
    if seed < 0:
        raise ValueError("seeds must be non-negative integers, got %d" % seed)
    return seed


def order_rng(seed):
    """Generator that drives stream permutations for this seed."""
    return np.random.default_rng(np.random.SeedSequence((check_seed(seed), _ORDER_TAG)))


def sampler_rng(seed):
    """Generator that drives sampling coins for this seed."""
    return np.random.default_rng(np.random.SeedSequence((check_seed(seed), _SAMPLER_TAG)))


def trial_rng(master_seed, trial_index):
    """Independent substream for one repetition."""
    return np.random.default_rng(
        np.random.SeedSequence((check_seed(master_seed), _TRIAL_TAG, int(trial_index))))


def bench_seed(master_seed, point_index, trial_index):
    """Small reproducible per-row seed for benchmark sweeps."""
    ss = np.random.SeedSequence(
        (check_seed(master_seed), _BENCH_TAG, int(point_index), int(trial_index)))
    return int(ss.generate_state(1)[0])


# edges per chunk of a pass; no report depends on it, since the coins are
# one uniform per edge in stream order
_CHUNK_SIZE = 65536


class _MemorySource:
    """Edges held as two int64 arrays; `distinct` when they are known to
    be canonical and distinct, so the scan only counts vertices."""

    kind = "memory"
    seekable = True

    def __init__(self, U, V, distinct=False):
        self.U = U
        self.V = V
        self.m = int(U.size)
        self.distinct = distinct

    def iter_chunks(self, chunk_size):
        for s in range(0, self.m, chunk_size):
            yield self.U[s:s + chunk_size], self.V[s:s + chunk_size]

    def take(self, idx):
        return self.U[idx], self.V[idx]

    def scan(self):
        if not self.distinct:
            _check_edges(self.U, self.V)
        n, ids = _vertex_slots(self.U, self.V)
        if not n:
            return 0, None
        return n, n - 1 if ids is None else int(ids[-1])


class _FileSource(_MemorySource):
    """The endpoint arrays of an edge list file, parsed when it is opened.
    Every pass first checks that the file still has the size and
    modification time it had before the parse."""

    kind = "file"

    def __init__(self, path):
        self.path = str(path)
        self._stamp = self._stat()
        super().__init__(*read_edge_arrays(self.path), distinct=True)

    def _stat(self):
        st = os.stat(self.path)
        return st.st_size, st.st_mtime_ns

    def _check(self):
        if self._stat() != self._stamp:
            raise SourceChangedError("edge list file %s changed after the stream "
                                     "was opened; open it again" % self.path)

    def iter_chunks(self, chunk_size):
        self._check()
        yield from super().iter_chunks(chunk_size)

    def take(self, idx):
        self._check()
        return super().take(idx)


def _rechunk(pairs, chunk_size):
    """Regroup a sequence of (U, V) array pairs into pairs of exactly
    `chunk_size` edges, the last one possibly shorter."""
    us, vs, have = [], [], 0
    for U, V in pairs:
        i = 0
        while i < U.size:
            k = min(chunk_size - have, U.size - i)
            us.append(U[i:i + k])
            vs.append(V[i:i + k])
            have += k
            i += k
            if have == chunk_size:
                yield np.concatenate(us), np.concatenate(vs)
                us, vs, have = [], [], 0
    if have:
        yield np.concatenate(us), np.concatenate(vs)


class _ExpanderSource:
    """Lazily expanded stream (used by the blow-up transform); sequential only."""

    kind = "expanded"
    seekable = False

    def __init__(self, m, chunk_iter_factory):
        self.m = m
        self._factory = chunk_iter_factory

    def iter_chunks(self, chunk_size):
        return self._factory(chunk_size)


class EdgeStream:
    """A replayable sequence of distinct edges with a fixed traversal order."""

    def __init__(self, source, order=Order.AS_GIVEN, seed=0, n=None, max_vertex_id=None):
        if order not in Order.ALL:
            raise ValueError("unknown order %r (use %r or %r)" %
                             (order, Order.AS_GIVEN, Order.RANDOM_PERMUTATION))
        self._source = source
        self.order = order
        self.seed = check_seed(seed)
        self.m = source.m
        self.n = n
        self.max_vertex_id = max_vertex_id
        self._slots = self._perm = None
        if order == Order.RANDOM_PERMUTATION:
            if not source.seekable:
                raise ValueError("this stream source only supports as-given order")
            self._perm = order_rng(self.seed).permutation(self.m)

    @property
    def source_kind(self):
        return self._source.kind

    def iter_chunks(self, chunk_size=None):
        """Yield (U, V) int64 array pairs covering one full pass, in chunks
        of `chunk_size` edges (default 65536), the last one possibly shorter."""
        cs = _CHUNK_SIZE if chunk_size is None else chunk_size
        if not isinstance(cs, numbers.Integral) or cs < 1:
            raise ValueError("chunk_size must be a positive integer, got %r"
                             % (chunk_size,))
        if self._perm is None:
            yield from self._source.iter_chunks(cs)
        else:
            for s in range(0, self.m, cs):
                yield self._source.take(self._perm[s:s + cs])

    def _slot_map(self):
        """(n, f): f maps an id array to its vertex slots, or is None when
        every id is its own slot.  Built on first use, by one extra pass
        that hands every id to `graph._vertex_slots`, unless the stream
        knows its n ids and the largest is n-1."""
        if self._slots is None:
            n, f = self.n, None
            if self.m and (n is None or n != self.max_vertex_id + 1):
                n, ids = _vertex_slots(*[X for UV in self.iter_chunks() for X in UV])
                f = None if ids is None else ids.searchsorted
            self._slots = n or 0, f
        return self._slots

    def _slot_chunks(self):
        """One pass of `iter_chunks` with each id replaced by its slot."""
        f = self._slot_map()[1]
        for U, V in self.iter_chunks():
            yield (U, V) if f is None else (f(U), f(V))

    def iter_edges(self, chunk_size=None):
        """Yield (u, v) integer tuples covering one full pass."""
        for U, V in self.iter_chunks(chunk_size):
            yield from zip(U.tolist(), V.tolist())

    def __len__(self):
        return self.m

    def __repr__(self):
        return "EdgeStream(kind=%s, m=%d, order=%s, seed=%d)" % (
            self.source_kind, self.m, self.order, self.seed)


def _memory_source_from(source, copy):
    if isinstance(source, AdjacencyGraph):  # checked when it was built
        return _MemorySource(*source.edge_arrays(), distinct=True)
    if isinstance(source, tuple) and len(source) == 2 and isinstance(source[0], np.ndarray):
        return _MemorySource(*_id_arrays(*source, copy=copy))
    return _MemorySource(*_pair_arrays(source))


def open_stream(source, order=Order.AS_GIVEN, seed=0, validate=True):
    """Build an EdgeStream from a file path, an AdjacencyGraph, a pair of
    endpoint arrays, or any iterable of (u, v) pairs.

    Validation scans the whole input once: malformed lines, negative ids,
    self-loops and duplicate edges are errors, the first in input order.
    The scan also records the vertex count and the largest id, from which
    the estimators pick p, their engine and the vertex slots.  A file is
    always scanned, and its stream keeps the parsed endpoint arrays for its
    passes; `validate=False` skips the scan of in-memory sources only.  Ids
    that are not integers within int64, or endpoint arrays that are not
    1-D, are a ValueError either way.  A validated stream copies a pair of endpoint
    arrays, so later writes to them do not reach its passes; with
    `validate=False` an int64 pair is used as it is, and the caller must
    leave it unchanged while the stream is in use and repeat no edge.
    """
    if isinstance(source, (str, os.PathLike)):
        src = _FileSource(source)
    else:
        src = _memory_source_from(source, copy=validate)
    if validate or src.kind == "file":
        n, max_id = src.scan()
    else:
        n, max_id = None, int(max(src.U.max(), src.V.max())) if src.m else None
    return EdgeStream(src, order=order, seed=seed, n=n, max_vertex_id=max_id)
