"""Spans around tricount's public calls, for the benchmark's traced run.

`install(tracer)` rebinds the public functions the benchmark and the CLI
reach (in every module namespace that imported them) to wrappers that
record one span per call, and wraps `EdgeStream.iter_chunks` so that each
`next()` on a pass is a span of its own.  Nothing inside the program
changes; `uninstall` puts the originals back, so untraced rounds in the
same process run the unwrapped code.

A span is a dict with id, name, start, end, parent (the span open when it
began), call (the benchmark call it belongs to), phase (setup or round)
and attrs.  Spans stay in memory; `write_jsonl` writes them at exit.
`layer_metrics` turns them into the per-layer numbers.
"""

import functools
import json
import os
import statistics
import time

import tricount.cli
import tricount.estimators
import tricount.generators
import tricount.graph
import tricount.stream

# bytes behind one edge of an in-memory or expanded source: two int64 ids
_ARRAY_BYTES_PER_EDGE = 16


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.call = None
        self.phase = None

    def begin(self, name, attrs=None):
        span = {"id": len(self.spans) + 1, "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "call": self.call, "phase": self.phase,
                "start": time.perf_counter(), "end": None,
                "attrs": dict(attrs or {})}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span, attrs=None):
        span["end"] = time.perf_counter()
        if attrs:
            span["attrs"].update(attrs)
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %s closed out of order" % span["name"])

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _bytes_per_edge(stream):
    """Computed, not measured: a file pass reads every edge line once, so
    a file-backed edge costs the file's mean line length."""
    path = getattr(getattr(stream, "_source", None), "path", None)
    if path is None or not stream.m:
        return _ARRAY_BYTES_PER_EDGE
    return os.path.getsize(path) / stream.m


def _traced_iter_chunks(tracer, orig):
    @functools.wraps(orig)
    def iter_chunks(self, chunk_size=None):
        it = orig(self, chunk_size)
        bpe = _bytes_per_edge(self)
        first = True
        try:
            while True:
                span = tracer.begin("stream.chunk", {"kind": self.source_kind,
                                                     "pass_start": first})
                first = False
                try:
                    U, V = next(it)
                except StopIteration:
                    tracer.end(span, {"edges": 0, "bytes": 0.0})
                    return
                except BaseException:
                    tracer.end(span)
                    raise
                tracer.end(span, {"edges": int(U.size), "bytes": U.size * bpe})
                yield U, V
        finally:
            it.close()
    return iter_chunks


def _estimator_attrs(span, args, kwargs, report):
    stream = args[0]
    p = report.params.p
    l = report.params.l or 1
    attrs = {"passes": report.passes_used, "stored": report.max_stored_edges,
             "expected_stored": l * p * stream.m, "dense_gflop": 0.0}
    if report.algorithm == tricount.estimators.Algorithm.ALG2_TWO_PASS:
        pick = getattr(tricount.estimators, "_pick_engine", None)
        if pick is not None and pick(kwargs.get("engine", "auto"), stream, p) == "dense":
            n = stream.max_vertex_id + 1
            attrs["dense_gflop"] = l * 2.0 * n ** 3 / 1e9
    span["attrs"].update(attrs)


def _wrap(tracer, fn, name, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result
    return wrapper


_ESTIMATORS = ("alg1_two_pass", "alg1_one_pass_random",
               "alg2_two_pass", "alg2_one_pass_random")


def _targets():
    """(namespace, attribute, span name, post-call hook) for every binding
    through which the benchmark or the CLI reaches a layer."""
    cli, est, gen = tricount.cli, tricount.estimators, tricount.generators
    stream, graph = tricount.stream, tricount.graph
    out = [
        (cli, "main", "cli.main", None),
        (cli, "open_stream", "stream.open_stream", None),
        (stream, "open_stream", "stream.open_stream", None),
        (gen, "open_stream", "stream.open_stream", None),
        (cli, "read_edge_list", "edgelist.read_edge_list", None),
        (cli, "count_triangles_exact", "graph.exact", None),
        (graph, "count_triangles_exact", "graph.exact", None),
        (est, "count_triangles_exact", "graph.census", None),
        (est, "sample_pass", "stream.sample_pass", None),
        (gen, "gen_planted", "generators.gen", None),
        (gen, "gen_complete", "generators.gen", None),
        (gen, "blow_up", "generators.gen", None),
    ]
    for fn in _ESTIMATORS:
        for ns in (est, cli):
            out.append((ns, fn, "estimators." + fn, _estimator_attrs))
    return [t for t in out if hasattr(t[0], t[1])]


def install(tracer):
    """Rebind every target to a span-recording wrapper; returns the undo list."""
    undo = []
    for ns, attr, name, after in _targets():
        orig = getattr(ns, attr)
        undo.append((ns, attr, orig))
        setattr(ns, attr, _wrap(tracer, orig, name, after))
    cls = tricount.stream.EdgeStream
    undo.append((cls, "iter_chunks", cls.iter_chunks))
    cls.iter_chunks = _traced_iter_chunks(tracer, cls.iter_chunks)
    return undo


def uninstall(undo):
    for ns, attr, orig in reversed(undo):
        setattr(ns, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
LAYER_UNITS = {
    "stream.scan_s": "s",
    "stream.pass_s": "s",
    "stream.physical_passes": "count",
    "stream.pass_ratio": "ratio",
    "stream.edges_read": "count",
    "stream.bytes_read": "bytes",
    "stream.sample_s": "s",
    "stream.sample_calls": "count",
    "graph.census_s": "s",
    "graph.census_calls": "count",
    "graph.exact_s": "s",
    "edgelist.read_s": "s",
    "estimators.kernel_s": "s",
    "estimators.kernel_edges_per_s": "1/s",
    "estimators.dense_gflop": "GFLOP",
    "estimators.stored_edges": "count",
    "estimators.stored_ratio": "ratio",
    "generators.gen_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def _group_metrics(spans):
    """Sums over one phase (one set-up or one round) of spans."""
    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def self_time(s):
        return s["end"] - s["start"] - child_time.get(s["id"], 0.0)

    def ancestors(s):
        while s["parent"] is not None and s["parent"] in by_id:
            s = by_id[s["parent"]]
            yield s

    m = dict.fromkeys(LAYER_UNITS, 0.0)
    m["trace.spans"] = float(len(spans))
    passes = est_passes = expected = kernel_edges = 0.0
    for s in spans:
        name, a, dur = s["name"], s["attrs"], s["end"] - s["start"]
        if name == "stream.open_stream":
            m["stream.scan_s"] += dur
        elif name == "stream.chunk":
            names = [p["name"] for p in ancestors(s)]
            if "stream.chunk" in names:
                continue  # read on behalf of an outer pass (blow-up base)
            m["stream.pass_s"] += dur
            m["stream.physical_passes"] += a.get("pass_start", False)
            m["stream.edges_read"] += a.get("edges", 0)
            m["stream.bytes_read"] += a.get("bytes", 0.0)
            if any(n.startswith("estimators.") for n in names):
                est_passes += a.get("pass_start", False)
                if "stream.sample_pass" not in names:
                    kernel_edges += a.get("edges", 0)
        elif name == "stream.sample_pass":
            m["stream.sample_s"] += self_time(s)
            m["stream.sample_calls"] += 1
        elif name == "graph.census":
            m["graph.census_s"] += dur
            m["graph.census_calls"] += 1
        elif name == "graph.exact":
            m["graph.exact_s"] += dur
        elif name == "edgelist.read_edge_list":
            m["edgelist.read_s"] += dur
        elif name.startswith("estimators."):
            m["estimators.kernel_s"] += self_time(s)
            m["estimators.dense_gflop"] += a.get("dense_gflop", 0.0)
            m["estimators.stored_edges"] += a.get("stored", 0)
            passes += a.get("passes", 0)
            expected += a.get("expected_stored", 0.0)
        elif name == "generators.gen":
            m["generators.gen_s"] += self_time(s)
        elif name == "cli.main":
            m["cli.self_s"] += self_time(s)
    if passes:
        m["stream.pass_ratio"] = est_passes / passes
    if expected:
        m["estimators.stored_ratio"] = m["estimators.stored_edges"] / expected
    if m["estimators.kernel_s"] > 0:
        m["estimators.kernel_edges_per_s"] = kernel_edges / m["estimators.kernel_s"]
    return m


def layer_metrics(spans, extra_gen_s=()):
    """Median per round of every layer metric, set-up layers per set-up.

    `extra_gen_s` holds generator times measured by the input-writing
    child process, whose spans this process cannot see; when given, they
    replace the set-up spans' generator times.
    """
    phases = {}
    for s in spans:
        phases.setdefault(s["phase"], []).append(s)
    setups = [_group_metrics(v) for k, v in phases.items() if k.startswith("setup")]
    rounds = [_group_metrics(v) for k, v in phases.items() if k.startswith("round")]

    def med(rows, key):
        return statistics.median(r[key] for r in rows) if rows else 0.0

    out = {k: med(rounds, k) for k in LAYER_UNITS}
    out["stream.scan_s"] += med(setups, "stream.scan_s")
    gen = list(extra_gen_s) or [r["generators.gen_s"] for r in setups]
    out["generators.gen_s"] = statistics.median(gen) if gen else 0.0
    return out
