"""Command line front end.

Subcommands:
  gen       write a generated graph as an edge list file
  exact     exact triangle count of an edge list file
  estimate  run one estimator, JSON report on stdout
  bench     sweep a parameter, CSV of per-run rows

Exit codes: 0 success, 1 I/O or parse failure, 2 invalid parameters.
Identical invocations with the same seed produce byte-identical output,
except for the wall_time_ms column of bench CSV.
"""

import argparse
import os
import sys
import time

from .edgelist import EdgeListParseError, read_edge_arrays, write_edge_list
from .graph import (DuplicateEdgeError, GraphError, count_triangles_exact,
                    triangle_stats, _dense_eligible, _extent, _probe_count,
                    _vertex_slots)
from .stream import Order, open_stream, order_rng, bench_seed
from .estimators import (Algorithm, choose_p_alg1, choose_p_alg2,
                         choose_repetitions, alg1_two_pass,
                         alg1_one_pass_random, alg2_two_pass,
                         alg2_one_pass_random, P_CAP_ALG1)
from . import generators

CSV_HEADER = ("algorithm,m,n,t_true,T,epsilon,p,l,seed,estimate,"
              "relative_error,max_stored_edges,wall_time_ms")

# above this, gen skips printing the exact count for sparse instances
_SUMMARY_SETS_MAX_M = 100_000


class ParamError(ValueError):
    pass


def _fmt(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _summary_count(g):
    nmax, m = _extent(g)
    if _dense_eligible(nmax, m) or m <= _SUMMARY_SETS_MAX_M:
        return count_triangles_exact(g)
    return None


def _parse_bits(s, name):
    if not s or any(ch not in "01" for ch in s):
        raise ParamError("%s must be a nonempty string of 0s and 1s" % name)
    return [int(ch) for ch in s]


# ---------------------------------------------------------------------------
# gen

def _shuffled(edges, seed):
    """The edges in the order of the seed's permutation, as a list."""
    edges = list(edges)
    return [edges[i] for i in order_rng(seed).permutation(len(edges))]


def _cmd_gen(args):
    kind = args.kind
    if kind == "planted":
        g = generators.gen_planted(args.m, args.t, args.seed)
    elif kind == "complete":
        if args.n is None:
            raise ParamError("gen complete needs --n")
        g = generators.gen_complete(args.n)
    elif kind == "tripartite":
        g = generators.gen_tripartite(args.a, args.b, args.c)
    elif kind == "blowup":
        if args.input is None:
            raise ParamError("gen blowup needs --input")
        if args.T is None:
            raise ParamError("gen blowup needs --T")
        # the blow-up reads its input lazily, after --out is truncated
        if os.path.exists(args.out) and os.path.samefile(args.input, args.out):
            raise ParamError("gen blowup --out %s is its --input file" % args.out)
        stream = open_stream(args.input)
        out = generators.blow_up(stream, args.T)
        edges = out.iter_edges()
        if args.shuffle is not None:
            edges = _shuffled(edges, args.shuffle)
        m = write_edge_list(args.out, edges)
        n = out.n if out.n is not None else "?"
        t = None
        if m <= _SUMMARY_SETS_MAX_M:
            t = _summary_count(read_edge_arrays(args.out))
        print("wrote %s: n=%s m=%d%s" % (args.out, n, m,
                                         "" if t is None else " t=%d" % t))
        return 0
    elif kind == "disj":
        if (args.x is None) != (args.y is None):
            raise ParamError("give both --x and --y or neither")
        if args.x is not None:
            if args.T is None:
                raise ParamError("gen disj needs --T")
            g = generators.gen_disjointness(_parse_bits(args.x, "--x"),
                                            _parse_bits(args.y, "--y"), args.T)
        else:
            if args.n is None or args.T is None:
                raise ParamError("gen disj needs --n and --T (or explicit --x/--y)")
            g = generators.gen_disjointness_random(args.n, args.T,
                                                   args.intersecting, args.seed)
    else:
        raise ParamError("unknown generator kind %r" % kind)

    edges = g.edges()
    if args.shuffle is not None:
        edges = _shuffled(edges, args.shuffle)
    write_edge_list(args.out, edges)
    t = _summary_count(g.edge_arrays())
    print("wrote %s: n=%d m=%d%s" % (args.out, g.vertex_count, g.edge_count,
                                     "" if t is None else " t=%d" % t))
    return 0


# ---------------------------------------------------------------------------
# exact

def _cmd_exact(args):
    U, V = read_edge_arrays(args.input)
    n = _vertex_slots(U, V)[0]
    if args.stats:
        st = triangle_stats((U, V))
        print('{"n": %d, "m": %d, "t": %d, "J": %d, "K": %d}'
              % (n, U.size, st.t, st.J, st.K))
    else:
        print('{"n": %d, "m": %d, "t": %d}'
              % (n, U.size, count_triangles_exact((U, V))))
    return 0


# ---------------------------------------------------------------------------
# estimate

def _default_order(algorithm):
    return Order.RANDOM_PERMUTATION if algorithm in Algorithm.ONE_PASS else Order.AS_GIVEN


def _resolve_order(args):
    if args.order is None:
        return _default_order(args.algorithm)
    if args.algorithm in Algorithm.ONE_PASS and args.order == Order.AS_GIVEN:
        raise ParamError("%s needs --order random (its guarantee only holds on "
                         "randomly ordered streams)" % args.algorithm)
    return args.order


def _resolve_p(alg, p, T, epsilon, c1, n):
    """Explicit p wins; otherwise derive it from the promise T (alg1 also
    needs the vertex count n), warning on stderr when it hits its cap."""
    if p is not None:
        return float(p)
    if T is None:
        raise ParamError("give --p, or --T so p can be derived")
    if alg in (Algorithm.ALG1_TWO_PASS, Algorithm.ALG1_ONE_PASS_RANDOM):
        if n is None or n <= 1:
            raise ParamError("cannot derive p: the input has fewer than 2 vertices")
        p = choose_p_alg1(n, T, epsilon, c1)
        clamped = p == P_CAP_ALG1
    else:
        p = choose_p_alg2(T, epsilon)
        clamped = p == 1.0
    if clamped:
        print("warning: derived p hit its cap (%g); space savings degenerate"
              % p, file=sys.stderr)
    return p


def _repetitions(alg, l, epsilon):
    """alg2's repetition count: l if given, else ceil(16/epsilon); None for alg1."""
    if alg not in Algorithm.MULTI_TRIAL:
        return None
    return l if l is not None else choose_repetitions(epsilon)


def _run_estimator(alg, stream, p, seed, l, epsilon, T):
    # the estimators are looked up by their module-global names at call
    # time, so rebinding one of those names reaches every call
    if alg == Algorithm.ALG1_TWO_PASS:
        return alg1_two_pass(stream, p, seed, epsilon=epsilon, T=T)
    if alg == Algorithm.ALG1_ONE_PASS_RANDOM:
        return alg1_one_pass_random(stream, p, seed, epsilon=epsilon, T=T)
    if alg == Algorithm.ALG2_TWO_PASS:
        return alg2_two_pass(stream, p, l, seed, epsilon=epsilon, T=T)
    return alg2_one_pass_random(stream, p, l, seed, epsilon=epsilon, T=T)


def _cmd_estimate(args):
    order = _resolve_order(args)
    stream = open_stream(args.input, order=order, seed=args.seed)
    alg = args.algorithm
    p = _resolve_p(alg, args.p, args.T, args.epsilon, args.c1, stream.n)
    l = _repetitions(alg, args.l, args.epsilon)
    rep = _run_estimator(alg, stream, p, args.seed, l, args.epsilon, args.T)
    print(rep.to_json())
    return 0


# ---------------------------------------------------------------------------
# bench

# bench --gen kinds: the generator and the keys it takes, in argument
# order; a key left out is 0
_GEN_SPECS = {
    "planted": ("gen_planted", ("m", "t", "seed")),
    "complete": ("gen_complete", ("n",)),
    "tripartite": ("gen_tripartite", ("a", "b", "c")),
    "disj": ("gen_disjointness_random", ("n", "T", "intersecting", "seed")),
}


def _parse_gen_spec(spec):
    """Parse 'kind:key=val,key=val' generator specs for bench."""
    kind, _, rest = spec.partition(":")
    params = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            if not key or not val:
                raise ParamError("bad generator spec %r" % spec)
            params[key] = int(val)
    if kind not in _GEN_SPECS:
        raise ParamError("unknown generator kind %r in spec" % kind)
    name, keys = _GEN_SPECS[kind]
    for key in params:
        if key not in keys:
            raise ParamError("generator kind %r takes no key %r (it takes %s)"
                             % (kind, key, ", ".join(keys)))
    return getattr(generators, name)(*(params.get(k, 0) for k in keys))


def _parse_sweep(sweep):
    if sweep is None:
        return None, None
    key, _, vals = sweep.partition("=")
    key = key.strip()
    if key not in ("p", "epsilon") or not vals:
        raise ParamError("--sweep wants 'p=v1,v2,...' or 'epsilon=v1,v2,...'")
    try:
        values = [float(v) for v in vals.split(",")]
    except ValueError:
        raise ParamError("bad sweep values in %r" % sweep)
    return key, values


def _predict_oracle_seconds(g):
    nmax, m = _extent(g)
    if _dense_eligible(nmax, m):
        return nmax ** 3 / 5e9
    # 100 ns a lookup of the kernel and an edge, 1.3x the slowest rate seen
    # on a 2-core host (77 ns); K_2049 plus one far edge, 1.4e9 lookups,
    # took 60 s there, 76 s with other work running (predicted: 143 s)
    return (m + _probe_count(*g)) / 1e7


def _cmd_bench(args):
    if (args.input is None) == (args.gen is None):
        raise ParamError("bench needs exactly one of --input or --gen")
    if args.trials < 1:
        raise ParamError("--trials must be positive, got %d" % args.trials)
    if args.input is not None:
        U, V = read_edge_arrays(args.input)
        n = _vertex_slots(U, V)[0]
    else:
        graph = _parse_gen_spec(args.gen)
        U, V = graph.edge_arrays()
        n = graph.vertex_count
    g = (U, V)

    predicted = _predict_oracle_seconds(g)
    if predicted > args.oracle_budget:
        raise ParamError("exact count would take about %.0f s, over the budget "
                         "of %.0f s (raise --oracle-budget to force)"
                         % (predicted, args.oracle_budget))
    t_true = count_triangles_exact(g)
    m = U.size

    sweep_key, sweep_vals = _parse_sweep(args.sweep)
    if sweep_key is None:
        points = [(args.epsilon, args.p)]
    elif sweep_key == "p":
        points = [(args.epsilon, v) for v in sweep_vals]
    else:
        points = [(v, args.p) for v in sweep_vals]

    def trial_stream(order, seed=0):
        # the arrays were checked above, and telling each stream their
        # vertex count spares it a pass to map ids 0..n-1 to slots
        stream = open_stream((U, V), order=order, seed=seed, validate=False)
        stream.n = n
        return stream

    alg = args.algorithm
    base_stream = trial_stream(Order.AS_GIVEN)

    rows = []
    for pi, (eps, p_fixed) in enumerate(points):
        p = _resolve_p(alg, p_fixed, args.T, eps, args.c1, n)
        l = _repetitions(alg, args.l, eps)
        for ti in range(args.trials):
            seed = bench_seed(args.seed, pi, ti)
            t0 = time.perf_counter()
            if alg in Algorithm.ONE_PASS:
                stream = trial_stream(Order.RANDOM_PERMUTATION, seed)
            else:
                stream = base_stream
            rep = _run_estimator(alg, stream, p, seed, l, eps, args.T)
            ms = (time.perf_counter() - t0) * 1e3
            rel = abs(rep.estimate - t_true) / t_true if t_true > 0 else None
            rows.append([alg, m, n, t_true, args.T, eps, p, l, seed,
                         rep.estimate, rel, rep.max_stored_edges, "%.3f" % ms])

    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print("wrote %s: %d rows" % (args.out, len(rows)))
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------

def _add_estimator_flags(sp):
    sp.add_argument("algorithm", choices=list(Algorithm.ALL))
    sp.add_argument("--input", required=True, help="edge list file")
    sp.add_argument("--order", choices=list(Order.ALL), default=None,
                    help="stream order; default: given for two-pass "
                         "algorithms, random for one-pass ones")
    sp.add_argument("--p", type=float, default=None, help="sampling probability")
    sp.add_argument("--epsilon", type=float, default=0.5, help="target relative error")
    sp.add_argument("--T", type=int, default=None,
                    help="promised lower bound on the triangle count; "
                         "required when --p is omitted")
    sp.add_argument("--l", type=int, default=None,
                    help="alg2 repetitions (default: ceil(16/epsilon))")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--c1", type=float, default=1.0,
                    help="scale constant for the alg1 p formula")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tricount",
        description="Streaming triangle counting: generators, exact counts, "
                    "sampling estimators, benchmarks.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a graph and write an edge list")
    g.add_argument("kind", choices=["planted", "complete", "tripartite",
                                    "blowup", "disj"])
    g.add_argument("--out", required=True, help="output edge list path")
    g.add_argument("--m", type=int, default=0, help="planted: edge count")
    g.add_argument("--t", type=int, default=0, help="planted: triangle count")
    g.add_argument("--n", type=int, default=None,
                   help="complete: vertex count; disj: vector length")
    g.add_argument("--a", type=int, default=1, help="tripartite part size")
    g.add_argument("--b", type=int, default=1, help="tripartite part size")
    g.add_argument("--c", type=int, default=1, help="tripartite part size")
    g.add_argument("--T", type=int, default=None,
                   help="blowup factor / disj triangle count (perfect square)")
    g.add_argument("--input", default=None, help="blowup: base edge list")
    g.add_argument("--intersecting", action="store_true",
                   help="disj: vectors share exactly one position")
    g.add_argument("--x", default=None, help="disj: explicit bit string")
    g.add_argument("--y", default=None, help="disj: explicit bit string")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--shuffle", type=int, default=None, metavar="SEED",
                   help="permute the emitted edge order")
    g.set_defaults(func=_cmd_gen)

    e = sub.add_parser("exact", help="exact triangle count of an edge list")
    e.add_argument("--input", required=True)
    e.add_argument("--stats", action="store_true",
                   help="also report the per-edge and per-vertex maxima J and K")
    e.set_defaults(func=_cmd_exact)

    est = sub.add_parser("estimate", help="run one estimator, JSON on stdout")
    _add_estimator_flags(est)
    est.set_defaults(func=_cmd_estimate)

    b = sub.add_parser("bench", help="parameter sweep, CSV rows")
    b.add_argument("algorithm", choices=list(Algorithm.ALL))
    b.add_argument("--input", default=None, help="edge list file")
    b.add_argument("--gen", default=None,
                   help="generator spec, e.g. planted:m=2000,t=200,seed=1")
    b.add_argument("--sweep", default=None,
                   help="'p=0.1,0.2,...' or 'epsilon=0.1,0.25,...'")
    b.add_argument("--trials", type=int, default=10, help="runs per sweep point")
    b.add_argument("--p", type=float, default=None)
    b.add_argument("--epsilon", type=float, default=0.5)
    b.add_argument("--T", type=int, default=None)
    b.add_argument("--l", type=int, default=None)
    b.add_argument("--seed", type=int, default=0, help="master seed for row seeds")
    b.add_argument("--c1", type=float, default=1.0)
    b.add_argument("--out", default=None, help="CSV path (default stdout)")
    b.add_argument("--oracle-budget", type=float, default=60.0,
                   help="refuse inputs whose exact count would exceed this "
                        "many seconds")
    b.set_defaults(func=_cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (EdgeListParseError, DuplicateEdgeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ParamError, GraphError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
