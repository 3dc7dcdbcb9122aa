"""Sampling estimators for the triangle count of an edge stream.

Four algorithms share one sampling primitive (keep each edge with
probability p):

* alg1: two passes.  Pass 1 keeps a subsample G'.  Pass 2 adds, for every
  stream edge that was not kept, the number of triangles it closes against
  G'.  A fixed triangle is counted when exactly two of its edges are kept,
  which happens with probability 3p^2(1-p), so s / (3p^2(1-p)) is an
  unbiased estimate of t.

* alg1-rand: the same idea in a single pass over a randomly ordered
  stream.  An arriving edge is either counted against the current sample
  (when its coin says drop) or added to it.  A triangle is detected only
  when its last edge in stream order is the dropped one, so the detection
  probability drops to p^2(1-p) and the estimate is s / (p^2(1-p)).

* alg2: two passes, l independent repetitions, each counting r = triangles
  with all three edges kept plus triangles whose two kept edges are closed
  by an unkept stream edge in pass 2.  Per triangle that detection
  probability is 3p^2(1-p) + p^3; each repetition reports
  r / (3p^2(1-p) + p^3) and the output is the minimum over repetitions,
  which trades a small downward bias for one-sided concentration.

* alg2-rand: one-pass random-order version of alg2.  Every arriving edge
  is first counted against the sample, then possibly added.  A triangle is
  detected exactly when its first two edges in stream order were both
  kept, probability p^2, so each repetition reports r / p^2.

Every coin of every algorithm is drawn in one generator, `_coins`, one
uniform per edge in stream order, and a run or repetition draws each coin
once: a later pass that needs the keep masks replays them (`_replay`).
Every pass reads the stream's vertex slots, 0..n-1 in id order
(`EdgeStream._slot_map`), so samples are lists and arrays indexed by slot.
alg1 and every alg2 repetition run one two-pass core, `_two_pass_counts`,
on one of two engines that give the same integers, picked from the input
alone (`_dense_fits`): a float32 adjacency matrix A of all slots squared by
the exact oracle's BLAS kernel, whose pass 2 draws no coins (it sums A^2
over every stream edge less the kept edges' share), or a `_Wedges` of the
kept edges.  That splits the sample by its vertices of high sample degree,
the heavy core: a slot holds its neighbours in the core as a row of bits,
and every other sample edge is a sorted key, so a query edge's common
sampled neighbours are the bits its ends' rows share plus the keys of one
end found among the other's, evaluated for a chunk of queries at once.
alg2's census (the sample's own triangles) is a third of that count summed
over the kept edges; alg1 skips it.  alg1-rand and every alg2-rand
repetition run one single-pass loop, `_one_pass_count`, on one kernel,
`_count_and_add`: it walks edges in order, counts a dropped edge's common
sampled neighbours and adds a kept edge to the sample.  A look-ahead pass
first draws the coins and gathers the kept edges, whose heavy core the
walk holds as the bits of one int per slot, so the core's part of a count
is one AND and a bit count.  The sample only grows, so an edge whose ends
share no neighbour in the final sample counts 0 wherever it arrives: a
second pass tests every edge the walk would count against the final
sample (`_Wedges` again), and the walk takes only the edges that pass, the
candidates, and the kept edges at their ends (`_pruned_walk`).  A
candidate's ends then hold every kept edge they have, so its count is
exact, and any other edge the walk takes sees a subset of its ends'
sampled neighbours and counts 0, as it would in a walk over every edge; on
a small stream, or when a pre-test shows that most edges are candidates
or that testing them costs more than walking them, the walk takes every
edge.  The look-ahead is one more physical pass, and `passes` stays 1.
Each pass counts the edges it keeps; a report's max_stored_edges is their
sum over the repetitions, since a run holds all its samples at once.

Repetition i draws its coins from trial_rng(master_seed, i) alone, so an
l-repetition run reports exactly the l independent repetitions.
"""

import json
import math
from itertools import zip_longest

import numpy as np

from . import stream as stream_module
from .graph import _dense_kernel, _DENSE_MAX_N
from .stream import Order, SourceChangedError, sampler_rng, trial_rng

# a sample vertex with this many sample edges joins the heavy core, which
# holds at most _HEAVY_MAX_N of them, the bits of a row of core neighbours
_HEAVY_MIN_DEGREE = 32
_HEAVY_MAX_N = _DENSE_MAX_N

_REPEATED_KEPT_EDGE = "the stream repeats a kept edge; its edges must be distinct"


class Algorithm:
    ALG1_TWO_PASS = "alg1"
    ALG1_ONE_PASS_RANDOM = "alg1-rand"
    ALG2_TWO_PASS = "alg2"
    ALG2_ONE_PASS_RANDOM = "alg2-rand"

    ALL = (ALG1_TWO_PASS, ALG1_ONE_PASS_RANDOM, ALG2_TWO_PASS, ALG2_ONE_PASS_RANDOM)
    ONE_PASS = (ALG1_ONE_PASS_RANDOM, ALG2_ONE_PASS_RANDOM)
    MULTI_TRIAL = (ALG2_TWO_PASS, ALG2_ONE_PASS_RANDOM)


class EstimatorParams:
    """Knobs of a single estimator run."""

    def __init__(self, p, epsilon=None, T=None, l=None, master_seed=0):
        self.p = p
        self.epsilon = epsilon
        self.T = T
        self.l = l
        self.master_seed = master_seed


class EstimateReport:
    """Result of one estimator run, including space accounting."""

    def __init__(self, algorithm, estimate, params, max_stored_edges,
                 passes_used, per_trial_estimates, degenerate=False):
        self.algorithm = algorithm
        self.estimate = estimate
        self.params = params
        self.max_stored_edges = max_stored_edges
        self.passes_used = passes_used
        self.per_trial_estimates = per_trial_estimates
        self.degenerate = degenerate

    def to_json_dict(self):
        d = {
            "algorithm": self.algorithm,
            "estimate": self.estimate,
            "p": self.params.p,
            "epsilon": self.params.epsilon,
            "T": self.params.T,
            "l": self.params.l,
            "seed": self.params.master_seed,
            "max_stored_edges": self.max_stored_edges,
            "passes": self.passes_used,
            "per_trial_estimates": self.per_trial_estimates,
        }
        if self.degenerate:
            d["degenerate"] = True
        return d

    def to_json(self):
        return json.dumps(self.to_json_dict())

    def __repr__(self):
        return "EstimateReport(%s, estimate=%.6g, p=%.6g, stored=%d)" % (
            self.algorithm, self.estimate, self.params.p, self.max_stored_edges)


# ---------------------------------------------------------------------------
# parameter selection

P_CAP_ALG1 = 0.99


def _check_epsilon(epsilon):
    epsilon = float(epsilon)
    if not (0.0 < epsilon <= 0.5):
        raise ValueError("epsilon must lie in (0, 0.5], got %r" % (epsilon,))
    return epsilon


def check_probability(p, allow_one=True):
    p = float(p)
    ok = 0.0 < p <= 1.0 if allow_one else 0.0 < p < 1.0
    if not ok:
        raise ValueError("p must lie in %s, got %r" %
                         ("(0, 1]" if allow_one else "(0, 1)", p))
    return p


def choose_p_alg1(n, T, epsilon, c1=1.0):
    """Sampling probability for alg1: min(0.99, c1 * eps^{-4/3} sqrt(ln n) / T^{1/3}).

    c1 scales the whole expression; 1.0 is a practical default.  Capped
    below 1 because the two-pass unbiased estimator degenerates at p = 1.
    """
    n = float(n)
    T = int(T)
    epsilon = _check_epsilon(epsilon)
    if n <= 1.0:
        raise ValueError("n must exceed 1, got %r" % (n,))
    if T < 1:
        raise ValueError("T must be a positive integer, got %r" % (T,))
    if not c1 > 0:
        raise ValueError("c1 must be positive, got %r" % (c1,))
    p = c1 * epsilon ** (-4.0 / 3.0) * math.sqrt(math.log(n)) / T ** (1.0 / 3.0)
    return min(P_CAP_ALG1, p)


def choose_p_alg2(T, epsilon):
    """Sampling probability for alg2: min(1, 320 / (eps^3.5 sqrt(T)))."""
    T = int(T)
    epsilon = _check_epsilon(epsilon)
    if T < 1:
        raise ValueError("T must be a positive integer, got %r" % (T,))
    return min(1.0, 320.0 / (epsilon ** 3.5 * math.sqrt(T)))


def choose_repetitions(epsilon):
    """Number of alg2 repetitions: ceil(16 / eps)."""
    epsilon = _check_epsilon(epsilon)
    q = 16.0 / epsilon
    r = round(q)
    # 16/eps often lands a hair off an exact integer in floating point
    if abs(q - r) < 1e-9:
        return int(r)
    return int(math.ceil(q))


# ---------------------------------------------------------------------------
# the counting kernels, also driven exhaustively by the test oracles

def _count_and_add(adj, chunks, census, core):
    """The one-pass walk: walk the edges of `chunks`, triples (us, vs,
    keeps) of lists of slots, in order against the growing sample `adj`, a
    list holding each slot's set of sampled neighbours, or None.  A dropped
    edge (us[i], vs[i]) adds its endpoints' common sampled neighbours to s;
    a kept edge joins the sample, after adding that same count to t when
    `census` is true.  Returns (s, t).

    The slots of `core`, a list of at most _HEAVY_MAX_N, are bits: a sample
    vertex holds its neighbours in the core as the bits of one int, and adj
    holds only its other neighbours, so the core's part of a count is one
    AND and a bit count.

    Each triangle of the sample is counted in t once, when its last edge
    arrives, so t summed over the kept edges is the sample's triangle
    count."""
    s = t = 0
    heavy = len(core) > 0
    bits, masks = [0] * len(adj), [0] * len(adj)
    for i, h in enumerate(core):
        bits[h] = 1 << i
    for us, vs, keeps in chunks:
        for u, v, k in zip(us, vs, keeps):
            nu = adj[u]
            if k:
                nv = adj[v]
                if census:
                    if nu and nv:
                        t += len(nu & nv)
                    if heavy:
                        t += (masks[u] & masks[v]).bit_count()
                if heavy:
                    # an end joined to a core vertex sets its bit, and True
                    # marks that end as needing no set entry
                    bu, bv = bits[u], bits[v]
                    if bv:
                        masks[u] |= bv
                        nu = True
                    if bu:
                        masks[v] |= bu
                        nv = True
                if nu is None:
                    adj[u] = {v}
                elif nu is not True:
                    nu.add(v)
                if nv is None:
                    adj[v] = {u}
                elif nv is not True:
                    nv.add(u)
            else:
                if nu:
                    nv = adj[v]
                    if nv:
                        s += len(nu & nv)
                if heavy:
                    s += (masks[u] & masks[v]).bit_count()
    return s, t


def _heavy_core(KU, KV):
    """The sorted slots of the sample vertices with at least _HEAVY_MIN_DEGREE
    of the sample edges (KU[i], KV[i]), at most _HEAVY_MAX_N of them, highest
    degrees first and ties to the lower slot; KU and KV are arrays or lists."""
    if len(KU) < _HEAVY_MIN_DEGREE:
        return np.empty(0, dtype=np.int64)
    deg = np.bincount(np.concatenate((KU, KV)))
    heavy = deg >= _HEAVY_MIN_DEGREE
    if np.count_nonzero(heavy) > _HEAVY_MAX_N:
        heavy[np.argsort(-deg, kind="stable")[_HEAVY_MAX_N:]] = False
    return np.flatnonzero(heavy)


class _Wedges:
    """The common neighbours of pairs of slots in the fixed sample of edges
    (KU[i], KV[i]) on the slots 0..n-1 (n^2 below 2^63), split by a heavy
    core `core` after Alon, Yuster and Zwick (1997).  A slot with a
    neighbour in the core holds those neighbours as a row of bits, packed
    into uint64 words and stored word by word (masks[j, row[x]], row 0
    empty for the other slots).  Every other sample pair is a key x*n + w,
    x's neighbour w outside the core, in the sorted `keys`; slot x's keys
    are keys[start[x]:start[x + 1]].  A common neighbour is then a bit set
    in both ends' rows or a key of one end found among the other's.

    `repeats` is true when the sample holds an edge twice: its bits OR
    together, but its keys are probed twice, so `count` would count it
    twice."""

    def __init__(self, KU, KV, core, n):
        self.n = n
        X, W = np.concatenate((KU, KV)), np.concatenate((KV, KU))
        self.masks, self.repeats = None, False
        if core.size:
            pos = np.full(n, -1, dtype=np.int64)
            pos[core] = np.arange(core.size)
            H = pos.take(W)
            light = H < 0
            XH, H = X[~light], H[~light]
            X, W = X[light], W[light]
            self.row = np.zeros(n, dtype=np.int32)
            self.row[XH] = 1
            rows = np.flatnonzero(self.row)
            self.row[rows] = np.arange(1, rows.size + 1, dtype=np.int32)
            # one sort by word, row and bit; the bits of a word then OR together
            cell = np.sort(((H >> 6) * (rows.size + 1) + self.row.take(XH)) << 6 | H & 63)
            self.repeats = bool(np.any(cell[1:] == cell[:-1]))
            first = np.flatnonzero(np.diff(cell >> 6, prepend=-1))
            bits = np.left_shift(np.uint64(1), (cell & 63).astype(np.uint64))
            self.masks = np.zeros(((core.size + 63) // 64, rows.size + 1), dtype=np.uint64)
            self.masks.reshape(-1)[cell[first] >> 6] = np.bitwise_or.reduceat(bits, first)
        self.keys = np.sort(X * n + W)
        self.repeats |= bool(np.any(self.keys[1:] == self.keys[:-1]))
        self.start = np.zeros(n + 1, dtype=np.int32)  # under 2^31 sample edges
        np.cumsum(np.bincount(X, minlength=n), out=self.start[1:])

    def __call__(self, U, V):
        """A bool per edge (U[i], V[i]): do its ends share a neighbour?
        A sample edge given twice changes no answer."""
        hit = np.zeros(U.size, dtype=bool)
        if self.masks is not None:
            i, words = self._common_words(U, V)
            common = np.zeros(i.size, dtype=np.uint64)
            for word in words:
                common |= word
            hit[i] = common != 0
        if self.keys.size:
            i, d, found = self._probe(U, V, hit)
            hit[np.repeat(i, d)[found]] = True
        return hit

    def count(self, U, V):
        """The common neighbours of the ends of each edge (U[i], V[i]),
        summed over i: the bits of the core that both ends' rows set, plus
        the key probes that find their key."""
        s = 0
        if self.masks is not None:
            s += sum(int(np.bitwise_count(word).sum(dtype=np.int64))
                     for word in self._common_words(U, V)[1])
        if self.keys.size:
            s += int(np.count_nonzero(self._probe(U, V, None)[2]))
        return s

    def _common_words(self, U, V):
        """(i, words): the edges (U[i], V[i]) whose ends both have a row of
        core bits, and their two rows ANDed, one word at a time."""
        ru, rv = self.row.take(U), self.row.take(V)
        i = np.flatnonzero((ru != 0) & (rv != 0))
        ru, rv = ru[i], rv[i]
        return i, (word.take(ru) & word.take(rv) for word in self.masks)

    def _probe(self, U, V, skip):
        """(i, d, found): the edges (U[i], V[i]) that probe keys, leaving
        out those that the bool array `skip` (or None) marks, the d[j] keys
        that edge i[j] probes, and a bool per probe, in order: is its key
        there?  An edge probes the keys of its end with fewer light
        neighbours, each key x*n + w of that end x moved to the other end
        y as y*n + w."""
        su, sv = self.start.take(U), self.start.take(V)
        du, dv = self.start.take(U + 1) - su, self.start.take(V + 1) - sv
        fewer = du <= dv
        d = np.where(fewer, du, dv)
        i = np.flatnonzero(d if skip is None else d * ~skip)
        d, s, shift = d[i], np.where(fewer, su, sv)[i], (V - U)[i] * self.n
        shift[~fewer[i]] *= -1
        k = np.repeat(s - (np.cumsum(d) - d), d) + np.arange(d.sum())
        probe = self.keys.take(k) + np.repeat(shift, d)
        return i, d, self.keys.take(self.keys.searchsorted(probe), mode="clip") == probe

    def probes(self, U, V):
        """The keys each edge (U[i], V[i]) probes: its ends' fewer light
        neighbours."""
        start = self.start
        return np.minimum(start.take(U + 1) - start.take(U), start.take(V + 1) - start.take(V))


def _sample_census(KU, KV, n, census):
    """The two-pass sets engine's sample of the distinct kept edges
    (KU[i], KV[i]) on the slots 0..n-1: their `_Wedges` under their
    `_heavy_core`, and the sample's triangle count when `census` (else 0),
    a third of the common sampled neighbours summed over the kept edges.
    The census counts stream._CHUNK_SIZE kept edges at a time, as pass 2
    does the stream's edges, which bounds the probes' temporaries.  A kept
    edge given twice raises ValueError."""
    wedges = _Wedges(KU, KV, _heavy_core(KU, KV), n)
    if wedges.repeats:
        raise ValueError(_REPEATED_KEPT_EDGE)
    t, step = 0, stream_module._CHUNK_SIZE
    if census:
        t = sum(wedges.count(KU[i:i + step], KV[i:i + step])
                for i in range(0, KU.size, step)) // 3
    return wedges, t


def _slot_lists(edges):
    """The ends of the explicit edge list `edges` as two lists of slots,
    given in id order, and the number of slots."""
    us, vs = [u for u, _ in edges], [v for _, v in edges]
    slot = {x: i for i, x in enumerate(sorted({*us, *vs}))}
    return list(map(slot.__getitem__, us)), list(map(slot.__getitem__, vs)), len(slot)


def _sample_then_closures(edges, keep, census):
    """Both passes of the two-pass core on an explicit edge list and keep
    mask: the kept edges build the sample, then the dropped ones count the
    triangles they close against it.  Returns that sum, plus the sample's
    own triangle count when `census`."""
    us, vs, n = _slot_lists(edges)
    U, V = np.array((us, vs), dtype=np.int64).reshape(2, -1)
    keep = np.array(keep, dtype=bool)
    wedges, t = _sample_census(U[keep], V[keep], n, census)
    return t + wedges.count(U[~keep], V[~keep])


def alg1_pass2_count(edges, keep):
    """Two-pass counter s for an explicit edge list and keep mask."""
    return _sample_then_closures(edges, keep, census=False)


def alg2_detected_count(edges, keep):
    """Repetition count r: triangles inside the sample plus triangles whose
    third edge streams by unkept."""
    return _sample_then_closures(edges, keep, census=True)


def _walk_in_order(edges_in_order, keep, census):
    """The one-pass walk over an explicit arrival order and keep mask, with
    the kept edges' `_heavy_core` held as bit masks: (s, t) of
    `_count_and_add`."""
    us, vs, n = _slot_lists(edges_in_order)
    core = _heavy_core([u for u, k in zip(us, keep) if k],
                       [v for v, k in zip(vs, keep) if k])
    return _count_and_add([None] * n, [(us, vs, keep)], census, core.tolist())


def alg1_one_pass_count(edges_in_order, keep):
    """Single-pass counter s for an explicit arrival order and keep mask."""
    return _walk_in_order(edges_in_order, keep, census=False)[0]


def alg2_one_pass_count(edges_in_order, keep):
    """Single-pass repetition count r for an explicit arrival order and mask."""
    return sum(_walk_in_order(edges_in_order, keep, census=True))


# ---------------------------------------------------------------------------
# the passes: every coin of every estimator is drawn in `_coins`

def _coins(stream, p, rng):
    """One pass over the stream's slots: yields (U, V, keep) per chunk, keep
    marking the edges kept with probability p, one uniform from `rng` per
    edge in stream order; a later pass replays the masks (`_replay`)."""
    for U, V in stream._slot_chunks():
        yield U, V, rng.random(U.size) < p


def _replay(stream, keeps):
    """A fresh pass over the stream's slots, each chunk (U, V) with the keep
    mask an earlier pass drew for it: yields (U, V, keep).  Another number
    of chunks, or a chunk of another size, raises SourceChangedError."""
    for j, (chunk, keep) in enumerate(zip_longest(stream._slot_chunks(), keeps)):
        if chunk is None or keep is None or chunk[0].size != keep.size:
            raise SourceChangedError("chunk %d of a pass over the stream differs from "
                                     "the pass that drew its coins" % j)
        yield chunk[0], chunk[1], keep


def _dense_fits(stream, p):
    """The dense engine pays off when the matrix is small and the sample
    fills at least 1/128 of it.  With one BLAS thread at p = 0.3, dense
    overtakes sets at p*m of about 1.5, 4-5, 7 and 12-13 times n+1 for
    n = 256, 512, 1024 and 2048: the crossover grows with n, and
    (n+1)^2 / 128 lies at or just past each of them.  The matrix has a row
    per slot, and only negative ids, which an unvalidated stream may carry,
    make the slots outnumber the ids 0..nmax."""
    nmax = stream.max_vertex_id
    return (nmax is not None and stream._slot_map()[0] <= nmax + 1 <= _DENSE_MAX_N
            and p * stream.m >= (nmax + 1) ** 2 / 128.0)


def _kept_edges(stream, p, rng):
    """One pass of `_coins`: the end slots (KU, KV) of the kept edges, in
    stream order, and the list of each chunk's keep mask."""
    kus, kvs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    keeps = []
    for U, V, keep in _coins(stream, p, rng):
        keeps.append(keep)
        kus.append(U[keep])
        kvs.append(V[keep])
    return np.concatenate(kus), np.concatenate(kvs), keeps


def _two_pass_counts(stream, p, rng, census):
    """Pass 1 keeps each edge with probability p on coins from `rng`, one
    per edge; pass 2 sums, over the edges not kept, the triangles each
    closes against the sample.  Returns (count, kept): that sum, plus the
    sample's own triangle count when `census`, and the number of kept
    edges.  Both engines return the same integers.

    When `_dense_fits`, C = A @ A for the sample's adjacency matrix A, and
    pass 2 sums C[u, v] over every stream edge, less the kept edges'
    share: 3 t_S for the sample's t_S triangles, each closed by its three
    kept edges.  That relies on the stream's distinct edges: the trace of
    C, the sample degrees summed, must be twice the kept edges, else a kept
    edge streamed by twice.  Otherwise pass 2 replays pass 1's masks
    against the kept edges' `_Wedges` (`_sample_census`), which reject a
    repeated kept edge too."""
    n = stream._slot_map()[0]
    if _dense_fits(stream, p):
        A, kept = np.zeros((n, n), dtype=np.float32), 0
        for U, V, keep in _coins(stream, p, rng):
            i = np.flatnonzero(keep)  # one index pass serves both ends
            ku, kv = U.take(i), V.take(i)
            A[ku, kv] = A[kv, ku] = 1.0
            kept += i.size
        common, t_in = _dense_kernel(A)
        if int(common.trace(dtype=np.float64)) != 2 * kept:
            raise ValueError(_REPEATED_KEPT_EDGE)
        closed = sum(int(common.take(U * n + V).sum(dtype=np.float64))
                     for U, V in stream._slot_chunks())
        return closed - 3 * t_in + (t_in if census else 0), kept
    KU, KV, keeps = _kept_edges(stream, p, rng)
    (wedges, t), kept = _sample_census(KU, KV, n, census), KU.size
    del KU, KV
    return t + sum(wedges.count(U[~keep], V[~keep])
                   for U, V, keep in _replay(stream, keeps)), kept


# Before the filter is built, the first _PRETEST kept edges, a uniform
# sample of the queries, are tested against their ends' own sample edges.
# The filter cannot pay when more than _CANDIDATE_MAX_SHARE of them share a
# sampled neighbour (the walk would take most edges anyway) or when they
# probe more than _MAX_PROBES keys each on average: a probe is a binary
# search, and on random graphs with few triangles the filter stopped paying
# at about 7 probes a query with census on and 10 without.  The walk then
# takes every edge, as it does on a stream of fewer than _PRUNE_MIN_EDGES
# edges, where the filter's fixed numpy cost outweighs the walk.
_PRETEST = 64
_CANDIDATE_MAX_SHARE = 0.5
_MAX_PROBES = 6
_PRUNE_MIN_EDGES = 16384


def _pruned_walk(stream, keeps, KU, KV, core, census):
    """The edges the one-pass walk needs, in stream order, as chunks
    (us, vs, keeps) of lists, one for each chunk of the stream, or None
    when the walk should take every edge (see _PRUNE_MIN_EDGES).  `keeps`
    are the masks that kept the edges (KU[i], KV[i]), whose heavy core is
    `core`.

    A query (a dropped edge, or any edge when `census`) whose ends share no
    neighbour in the final sample counts 0 wherever it arrives, since the
    sample only grows.  One replayed pass finds the others, the candidates;
    the walk takes the dropped candidates and every kept edge with an end
    among the candidates' ends, so each candidate's ends get every kept
    edge they have and count exactly, while any other edge the walk takes
    sees a subset of its ends' sampled neighbours and still counts 0."""
    if stream.m < _PRUNE_MIN_EDGES:
        return None
    n = stream._slot_map()[0]
    ends = np.zeros(n, dtype=bool)
    # a kept edge's ends share a neighbour in the rest of the sample as
    # often as a dropped edge's do in all of it: the coins are independent
    QU, QV = KU[:_PRETEST], KV[:_PRETEST]
    ends[QU] = ends[QV] = True
    near = np.flatnonzero(ends.take(KU) | ends.take(KV))
    pretest = _Wedges(KU.take(near), KV.take(near), core, n)
    if (np.count_nonzero(pretest(QU, QV)) > _CANDIDATE_MAX_SHARE * QU.size
            or pretest.probes(QU, QV).sum() > _MAX_PROBES * QU.size):
        return None
    ends[QU] = ends[QV] = False
    wedges = _Wedges(KU, KV, core, n)
    at, pos, us, vs = 0, [], [], []
    for U, V, keep in _replay(stream, keeps):
        q = np.arange(U.size) if census else np.flatnonzero(~keep)
        q = q[wedges(U.take(q), V.take(q))]
        ends[U.take(q)] = ends[V.take(q)] = True
        q = q[~keep.take(q)]  # a kept candidate joins as a kept edge at its ends
        pos.append(q + at)
        us.append(U.take(q))
        vs.append(V.take(q))
        at += U.size
    del wedges
    dropped = sum(map(len, pos))
    near = np.flatnonzero(ends.take(KU) | ends.take(KV))
    pos.append(np.flatnonzero(np.concatenate(keeps)).take(near))
    us.append(KU.take(near))
    vs.append(KV.take(near))
    pos = np.concatenate(pos)
    order = np.argsort(pos)
    # a chunk of the walk per chunk of the stream bounds the walk's lists
    cuts = pos.take(order).searchsorted(np.cumsum([keep.size for keep in keeps])[:-1])
    return zip(*(map(np.ndarray.tolist, np.split(X.take(order), cuts))
                 for X in (np.concatenate(us), np.concatenate(vs), np.arange(order.size) >= dropped)))


def _one_pass_count(stream, p, rng, census):
    """One pass that keeps each edge with probability p and counts every
    edge against the sample as it grows: the triangles each dropped edge
    closes, plus, when `census`, those each kept edge closes before it
    joins.  Returns (count, kept).

    A look-ahead pass draws the coins first and gathers the kept edges,
    whose `_heavy_core` the counting walk then holds as bit masks.  A
    second pass replays the keep masks (`_replay`) and finds the edges that
    can count, with their ends' kept edges (`_pruned_walk`); the walk takes
    those alone, in stream order, and gets the same integers as a walk
    over every edge, which it makes instead on a small stream or when a
    pre-test shows that the filter cannot pay."""
    KU, KV, keeps = _kept_edges(stream, p, rng)
    core, kept = _heavy_core(KU, KV), KU.size
    walk = _pruned_walk(stream, keeps, KU, KV, core, census)
    del KU, KV
    if walk is None:
        walk = ((U.tolist(), V.tolist(), keep.tolist())
                for U, V, keep in _replay(stream, keeps))
    return sum(_count_and_add([None] * stream._slot_map()[0], walk, census,
                              core.tolist())), kept


# ---------------------------------------------------------------------------
# drivers

def _require_random_order(stream, algorithm):
    if stream.order != Order.RANDOM_PERMUTATION:
        raise ValueError("%s needs a randomly ordered stream; "
                         "open it with order='random'" % algorithm)


def alg1_two_pass(stream, p, seed, epsilon=None, T=None):
    """Unbiased two-pass estimate of the triangle count of the stream."""
    p = check_probability(p, allow_one=False)
    s, kept = _two_pass_counts(stream, p, sampler_rng(seed), census=False)
    estimate = s / (3.0 * p * p * (1.0 - p))
    params = EstimatorParams(p, epsilon, T, None, seed)
    return EstimateReport(Algorithm.ALG1_TWO_PASS, estimate, params, kept, 2,
                          [estimate])


def alg1_one_pass_random(stream, p, seed, epsilon=None, T=None):
    """One-pass variant of alg1 for randomly ordered streams."""
    p = check_probability(p, allow_one=False)
    _require_random_order(stream, Algorithm.ALG1_ONE_PASS_RANDOM)
    s, kept = _one_pass_count(stream, p, sampler_rng(seed), census=False)
    estimate = s / (p * p * (1.0 - p))
    params = EstimatorParams(p, epsilon, T, None, seed)
    return EstimateReport(Algorithm.ALG1_ONE_PASS_RANDOM, estimate, params,
                          kept, 1, [estimate])


def _check_repetitions(l):
    l = int(l)
    if l < 1:
        raise ValueError("l must be a positive integer, got %r" % (l,))
    return l


def _repetitions(count, stream, p, l, master_seed, denom):
    """alg2's l repetitions of `count`, each on the coins of its own
    trial_rng: the scaled counts, and the sum of the edges they keep."""
    runs = [count(stream, p, trial_rng(master_seed, i), census=True) for i in range(l)]
    return [r / denom for r, _ in runs], sum(kept for _, kept in runs)


def alg2_two_pass(stream, p, l, master_seed, epsilon=None, T=None):
    """Min over l independent two-pass repetitions.

    The repetitions conceptually share the same two passes, so the stored
    edges are the sum of all their samples: expect about l*p*m.
    At p = 1 every repetition is exact counting; the report flags that as
    degenerate.
    """
    p = check_probability(p)
    l = _check_repetitions(l)
    vals, stored = _repetitions(_two_pass_counts, stream, p, l, master_seed,
                                3.0 * p * p * (1.0 - p) + p ** 3)
    params = EstimatorParams(p, epsilon, T, l, master_seed)
    return EstimateReport(Algorithm.ALG2_TWO_PASS, min(vals), params, stored, 2,
                          vals, degenerate=(p == 1.0))


def alg2_one_pass_random(stream, p, l, master_seed, epsilon=None, T=None):
    """Min over l one-pass repetitions on a randomly ordered stream; the
    stored edges are the sum of all their samples."""
    p = check_probability(p)
    _require_random_order(stream, Algorithm.ALG2_ONE_PASS_RANDOM)
    l = _check_repetitions(l)
    vals, stored = _repetitions(_one_pass_count, stream, p, l, master_seed, p * p)
    params = EstimatorParams(p, epsilon, T, l, master_seed)
    return EstimateReport(Algorithm.ALG2_ONE_PASS_RANDOM, min(vals), params,
                          stored, 1, vals, degenerate=(p == 1.0))
