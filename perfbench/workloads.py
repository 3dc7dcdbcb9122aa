"""The benchmark's four workloads: how each builds its input, the calls it
times, and what each call's output must satisfy.

Every layer is reached through tricount's public functions, looked up on
their module at call time so that the traced run's wrappers see them.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

import tricount.cli
import tricount.estimators
import tricount.generators
import tricount.graph
import tricount.stream

HERE = os.path.dirname(os.path.abspath(__file__))

PLANTED_M, PLANTED_T = 200_000, 20_000
K_N = 900
BLOWUP_BASE_M, BLOWUP_BASE_T, BLOWUP_FACTOR = 2000, 200, 10


class CallFailed(Exception):
    pass


def derive_seeds(seed):
    """Generator and estimator seeds from the workload seed, kept apart."""
    gen_seed, est_seed = np.random.SeedSequence(int(seed)).generate_state(2)
    return int(gen_seed), int(est_seed)


class Op:
    """One timed call: `run()` returns its report text; `check(text)` lists
    what is wrong with it.  `kind` (exact, alg1 or alg2) names the
    end-to-end metrics it reports under."""

    def __init__(self, kind, label, run, t=None, m=None):
        self.kind = kind
        self.label = label
        self.run = run
        self.t = t
        self.m = m

    def check(self, text):
        rep = json.loads(text)
        if self.t is not None:
            return [] if rep["t"] == self.t else [
                "%s: exact count %r, expected %d" % (self.label, rep["t"], self.t)]
        # acceptance criterion 5's band for the stored edges
        want = (rep["l"] or 1) * rep["p"] * self.m
        got = rep["max_stored_edges"]
        if abs(got - want) > 4.0 * math.sqrt(want):
            return ["%s: max_stored_edges %d outside %.0f +- 4 sqrt" % (self.label, got, want)]
        return []


def _cli(argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tricount.cli.main(argv)
        if code != 0:
            raise CallFailed("tricount %s exited %d" % (" ".join(argv), code))
        return out.getvalue()
    return run


def _write_planted_file(path, gen_seed):
    """Generate the planted graph and write it in a child process, so that
    the benchmark process's peak RSS covers only its timed calls.  Returns
    the child's own (gen, write) seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "make_input.py"), "--m", str(PLANTED_M),
         "--t", str(PLANTED_T), "--seed", str(gen_seed), "--out", path],
        stdout=subprocess.PIPE, check=True, text=True, timeout=120)
    times = json.loads(proc.stdout.strip().splitlines()[-1])
    return times["gen_s"], times["write_s"]


def _file_setup(seed, workdir):
    gen_seed, est_seed = derive_seeds(seed)
    path = os.path.join(workdir, "planted-%d-%d.el" % (gen_seed, os.getpid()))
    gen_s, write_s = _write_planted_file(path, gen_seed)
    return path, str(est_seed), gen_s + write_s, gen_s


def setup_file_given(seed, workdir):
    path, s, setup_s, gen_s = _file_setup(seed, workdir)
    est = ["estimate", "alg1", "--input", path, "--p", "0.3", "--seed", s]
    est2 = ["estimate", "alg2", "--input", path, "--p", "0.3", "--l", "4", "--seed", s]
    ops = [Op("exact", "exact", _cli(["exact", "--input", path]), t=PLANTED_T),
           Op("alg1", "estimate alg1", _cli(est), m=PLANTED_M),
           Op("alg2", "estimate alg2", _cli(est2), m=PLANTED_M)]
    return ops, setup_s, gen_s, [path]


def setup_file_random(seed, workdir):
    path, s, setup_s, gen_s = _file_setup(seed, workdir)
    est = ["estimate", "alg1-rand", "--input", path, "--p", "0.3", "--seed", s]
    est2 = ["estimate", "alg2-rand", "--input", path, "--p", "0.3", "--l", "4", "--seed", s]
    ops = [Op("exact", "exact", _cli(["exact", "--input", path]), t=PLANTED_T),
           Op("alg1", "estimate alg1-rand", _cli(est), m=PLANTED_M),
           Op("alg2", "estimate alg2-rand", _cli(est2), m=PLANTED_M)]
    return ops, setup_s, gen_s, [path]


def _report_text(rep):
    return rep.to_json() + "\n"


def setup_dense_memory(seed, workdir):
    _, est_seed = derive_seeds(seed)
    t0 = time.perf_counter()
    g = tricount.generators.gen_complete(K_N)
    stream = tricount.stream.open_stream(g)
    setup_s = time.perf_counter() - t0
    eps, T = 0.4, 10 ** 8
    p2 = tricount.estimators.choose_p_alg2(T, eps)
    l2 = tricount.estimators.choose_repetitions(eps)
    ops = [
        Op("exact", "count_triangles_exact",
           lambda: json.dumps({"t": tricount.graph.count_triangles_exact(g)}) + "\n",
           t=math.comb(K_N, 3)),
        Op("alg2", "alg2_two_pass",
           lambda: _report_text(tricount.estimators.alg2_two_pass(
               stream, p2, l2, est_seed, epsilon=eps, T=T)), m=stream.m),
        Op("alg1", "alg1_two_pass",
           lambda: _report_text(tricount.estimators.alg1_two_pass(stream, 0.1, est_seed)),
           m=stream.m),
    ]
    return ops, setup_s, None, []


def setup_blowup_stream(seed, workdir):
    gen_seed, est_seed = derive_seeds(seed)
    t0 = time.perf_counter()
    base = tricount.generators.gen_planted(BLOWUP_BASE_M, BLOWUP_BASE_T, gen_seed)
    stream = tricount.generators.blow_up(base, BLOWUP_FACTOR)
    setup_s = time.perf_counter() - t0
    m = BLOWUP_BASE_M * BLOWUP_FACTOR ** 2
    if stream.m != m:
        raise RuntimeError("blow-up has %d edges, expected %d" % (stream.m, m))

    def exact():
        # the oracle needs the whole graph: build it from one pass
        g = tricount.graph.AdjacencyGraph(stream.iter_edges())
        return json.dumps({"t": tricount.graph.count_triangles_exact(g)}) + "\n"

    ops = [
        Op("exact", "count_triangles_exact", exact, t=BLOWUP_BASE_T * BLOWUP_FACTOR ** 3),
        Op("alg1", "alg1_two_pass",
           lambda: _report_text(tricount.estimators.alg1_two_pass(stream, 0.3, est_seed)),
           m=m),
        Op("alg2", "alg2_two_pass",
           lambda: _report_text(tricount.estimators.alg2_two_pass(stream, 0.3, 4, est_seed)),
           m=m),
    ]
    return ops, setup_s, None, []


# BENCHMARK.json records why each workload is here
SETUP = {
    "file-given": setup_file_given,
    "file-random": setup_file_random,
    "dense-memory": setup_dense_memory,
    "blowup-stream": setup_blowup_stream,
}
NAMES = tuple(SETUP)
