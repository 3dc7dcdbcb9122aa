"""Acceptance suite: eight end-to-end checks of the statistical and
structural guarantees, each printing one [PASS]/[FAIL] line (run with
pytest -s to see them as they finish).

1. exhaustive sampling oracle for the two-pass counters (tolerance 1e-9)
2. exhaustive order x sampling oracle for the one-pass counters (1e-9)
3. Monte Carlo unbiasedness of alg1 on a planted instance (4 standard errors)
4. alg2 min-of-repetitions guarantee on K_900 at derived parameters
5. space accounting: stored edges track l*p*m and scale linearly in p
6. heavy/light split bounds on every suite graph with triangles
7. generator identities: blow-up cubes counts, disjointness gadget dichotomy
8. determinism: byte-identical CLI reports, an l-repetition run equals l
   independent repetitions
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from tricount import (AdjacencyGraph, count_triangles_exact, triangle_stats,
                      classify_edges, open_stream, Order, write_edge_list,
                      gen_planted, gen_complete, gen_tripartite, blow_up,
                      gen_disjointness, gen_disjointness_random,
                      choose_p_alg2, choose_repetitions,
                      alg1_two_pass, alg1_one_pass_random,
                      alg2_two_pass, alg2_one_pass_random, trial_rng)
from tricount import estimators
from tricount.estimators import (alg1_pass2_count, alg2_detected_count,
                                 alg1_one_pass_count, alg2_one_pass_count)

from conftest import all_weight_vectors
import oracles


def report(num, name, ok, detail):
    print("[%s] criterion %d, %s: %s" % ("PASS" if ok else "FAIL", num, name, detail))
    assert ok, "criterion %d (%s): %s" % (num, name, detail)


def test_criterion_1_exhaustive_two_pass_oracle(small_suite):
    """E[s] = 3p^2(1-p) t and E[r] = (3p^2(1-p)+p^3) t, exactly, on every
    suite graph with at most 12 edges, by summing all 2^m keep masks."""
    worst = 0.0
    for name, g in small_suite.items():
        edges = g.edges()
        assert len(edges) <= 12
        t = oracles.brute_triangles(edges)
        for p in (0.25, 0.5, 0.75):
            es = oracles.expectation_over_samplings(edges, p, alg1_pass2_count)
            want_s = 3 * p * p * (1 - p) * t
            worst = max(worst, abs(es - want_s))
            er = oracles.expectation_over_samplings(edges, p, alg2_detected_count)
            want_r = (3 * p * p * (1 - p) + p ** 3) * t
            worst = max(worst, abs(er - want_r))
    report(1, "exhaustive two-pass oracle", worst <= 1e-9,
           "max deviation %.3g over %d graphs x 3 p values (tol 1e-9)"
           % (worst, len(small_suite)))


def test_criterion_2_exhaustive_one_pass_oracle(tiny_suite):
    """Per-triangle detection probability p^2(1-p) for the one-pass alg1
    variant and p^2 for the one-pass alg2 variant, by enumerating all
    m! 2^m (order, mask) outcomes on graphs with at most 6 edges.  The
    sweep runs once with the default heavy core and once, at p = 0.3, with
    a core forced down to sample degree 1 and at most 3 vertices, whose
    neighbours the counters hold as bit masks."""
    worst = 0.0
    checked = 0
    for core, ps in ((None, (0.3, 0.6)), ((1, 3), (0.3,))):
        with pytest.MonkeyPatch.context() as mp:
            if core is not None:
                mp.setattr(estimators, "_HEAVY_MIN_DEGREE", core[0])
                mp.setattr(estimators, "_HEAVY_MAX_N", core[1])
            for name, g in tiny_suite.items():
                edges = g.edges()
                assert len(edges) <= 6
                t = oracles.brute_triangles(edges)
                if t == 0:
                    continue
                checked += 1
                for p in ps:
                    es = oracles.expectation_over_orders_and_samplings(
                        edges, p, alg1_one_pass_count)
                    worst = max(worst, abs(es / t - p * p * (1 - p)))
                    er = oracles.expectation_over_orders_and_samplings(
                        edges, p, alg2_one_pass_count)
                    worst = max(worst, abs(er / t - p * p))
    report(2, "exhaustive one-pass oracle", worst <= 1e-9,
           "max detection probability deviation %.3g over %d graphs, default "
           "and forced heavy core (tol 1e-9)" % (worst, checked // 2))


def test_criterion_3_monte_carlo_unbiasedness(planted_2000):
    """Sample mean of 20,000 independent estimates lands within 4 standard
    errors of the true count 200, for alg1 and its one-pass variant."""
    g = planted_2000
    t_true = 200
    n_runs = 20_000
    p = 0.2
    stream = open_stream(g)
    vals = np.empty(n_runs)
    for seed in range(n_runs):
        vals[seed] = alg1_two_pass(stream, p, seed).estimate
    mean2 = vals.mean()
    se2 = vals.std(ddof=1) / math.sqrt(n_runs)
    z2 = abs(mean2 - t_true) / se2

    arrays = g.edge_arrays()
    for seed in range(n_runs):
        s = open_stream(arrays, order=Order.RANDOM_PERMUTATION, seed=seed,
                        validate=False)
        vals[seed] = alg1_one_pass_random(s, p, seed).estimate
    mean1 = vals.mean()
    se1 = vals.std(ddof=1) / math.sqrt(n_runs)
    z1 = abs(mean1 - t_true) / se1

    report(3, "Monte Carlo unbiasedness", z2 <= 4.0 and z1 <= 4.0,
           "two-pass mean %.3f (%.2f SE), one-pass mean %.3f (%.2f SE), "
           "true 200, window 4 SE" % (mean2, z2, mean1, z1))


def test_criterion_4_alg2_guarantee_on_k900():
    """K_900 with the promise T=1e8 and epsilon=0.4: derived p=0.79057 and
    l=40; over 50 master seeds the min lands in [(1-2e)t, (1+e)t] at least
    77% of the time and above (1+e)t at most 20%."""
    n = 900
    iu = np.triu_indices(n, 1)
    U = iu[0].astype(np.int64)
    V = iu[1].astype(np.int64)
    t_true = n * (n - 1) * (n - 2) // 6
    assert t_true == 121_095_300
    stream = open_stream((U, V), validate=False)
    assert stream.m == 404_550

    eps = 0.4
    p = choose_p_alg2(10**8, eps)
    assert round(p, 5) == 0.79057
    l = choose_repetitions(eps)
    assert l == 40

    lo, hi = (1 - 2 * eps) * t_true, (1 + eps) * t_true
    n_seeds = 50
    in_range = 0
    above = 0
    for seed in range(n_seeds):
        est = alg2_two_pass(stream, p, l, seed).estimate
        if lo <= est <= hi:
            in_range += 1
        if est > hi:
            above += 1
    ok = in_range >= math.ceil(0.77 * n_seeds) and above <= 0.20 * n_seeds
    report(4, "alg2 guarantee at derived parameters", ok,
           "%d/%d runs in [0.2t, 1.4t], %d above 1.4t (need >=39 and <=10)"
           % (in_range, n_seeds, above))


def test_criterion_5_space_accounting(planted_2000):
    """max_stored_edges concentrates at l*p*m (within 4 sqrt(l*p*m) in every
    run) and grows linearly in p (least squares slope within 10% of l*m)."""
    g = planted_2000
    stream = open_stream(g)
    m = stream.m
    worst = 0.0

    l, p = 8, 0.3
    for seed in range(30):
        rep = alg2_two_pass(stream, p, l, seed)
        bound = 4 * math.sqrt(l * p * m)
        dev = abs(rep.max_stored_edges - l * p * m)
        worst = max(worst, dev / bound)
        assert dev <= bound, (seed, rep.max_stored_edges)
    for p1 in (0.2, 0.5):
        for seed in range(15):
            rep = alg1_two_pass(stream, p1, seed)
            bound = 4 * math.sqrt(p1 * m)
            dev = abs(rep.max_stored_edges - p1 * m)
            worst = max(worst, dev / bound)
            assert dev <= bound, (p1, seed)

    ps = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    means = []
    for pi, p_val in enumerate(ps):
        stored = [alg2_two_pass(stream, p_val, l, 1000 + pi * 100 + s).max_stored_edges
                  for s in range(25)]
        means.append(np.mean(stored))
    slope = np.polyfit(ps, means, 1)[0]
    target = l * m
    slope_off = abs(slope - target) / target
    ok = worst <= 1.0 and slope_off <= 0.10
    report(5, "space accounting", ok,
           "worst per-run deviation %.2f of the 4-sigma bound; p-sweep slope "
           "%.0f vs l*m=%d (off by %.2f%%, tol 10%%)"
           % (worst, slope, target, 100 * slope_off))


def test_criterion_6_heavy_light_bounds(small_suite, planted_2000):
    """|heavy| <= sqrt(eps t) and at least (1-eps) t triangles have two or
    more light edges, for eps in {0.1, 0.25, 0.4}, on every suite graph
    with a triangle."""
    graphs = dict(small_suite)
    graphs["planted2000"] = planted_2000
    graphs["k7"] = gen_complete(7)
    graphs["tripartite345"] = gen_tripartite(3, 4, 5)
    graphs["disj84"] = gen_disjointness_random(8, 4, True, seed=3)
    graphs["blowup_k3_3"] = AdjacencyGraph(blow_up(gen_complete(3), 3).iter_edges())
    checked = 0
    for name, g in graphs.items():
        st = triangle_stats(g)
        if st.t == 0:
            continue
        checked += 1
        for eps in (0.1, 0.25, 0.4):
            part = classify_edges(g, eps, stats=st)
            assert len(part.heavy) <= math.sqrt(eps * st.t), (name, eps)
            assert part.two_light_triangle_count >= (1 - eps) * st.t, (name, eps)
    report(6, "heavy/light bounds", checked >= 8,
           "both bounds hold on %d graphs x 3 epsilon values" % checked)


def test_criterion_7_generator_identities(small_suite):
    """blow_up multiplies triangles by T^3 and edges by T^2; the
    disjointness gadget is triangle-free exactly on disjoint vectors and
    has exactly T triangles on unique intersections."""
    for name, g in small_suite.items():
        t = count_triangles_exact(g)
        for T in (1, 2, 3):
            out = blow_up(g, T)
            edges = list(out.iter_edges())
            assert len(edges) == g.edge_count * T * T, (name, T)
            h = AdjacencyGraph(edges)
            assert count_triangles_exact(h) == T ** 3 * t, (name, T)

    pairs = 0
    for T in (4, 9):
        for n in (2, 4, 6, 8):
            vecs = all_weight_vectors(n, n // 2)
            for x in vecs:
                for y in vecs:
                    overlap = sum(a & b for a, b in zip(x, y))
                    t = count_triangles_exact(gen_disjointness(x, y, T))
                    if overlap == 0:
                        assert t == 0, (x, y, T)
                    elif overlap == 1:
                        assert t == T, (x, y, T)
                    else:
                        assert t == overlap * T, (x, y, T)
                    pairs += 1
    report(7, "generator identities", True,
           "blow-up identity on %d graphs x T in {1,2,3}; dichotomy on %d "
           "vector pairs" % (len(small_suite), pairs))


def test_criterion_8_determinism(tmp_path):
    """Identical CLI invocations emit identical bytes (bench modulo its
    wall-clock column), and an l-repetition alg2 run is l independent
    repetitions: its first k entries are a k-repetition run's, entry i is
    the repetition counter on the trial_rng(seed, i) coins, and it stores
    the sum of the l samples."""
    el = tmp_path / "planted.el"
    write_edge_list(el, gen_planted(300, 25, seed=5).edges())

    def run(*args):
        return subprocess.run([sys.executable, "-m", "tricount", *args],
                              capture_output=True, text=True)

    json_runs = []
    for alg, extra in (("alg2", ("--l", "6")),
                       ("alg1", ()),
                       ("alg1-rand", ()),
                       ("alg2-rand", ("--l", "4"))):
        a = run("estimate", alg, "--input", str(el), "--p", "0.4",
                "--seed", "9", *extra)
        b = run("estimate", alg, "--input", str(el), "--p", "0.4",
                "--seed", "9", *extra)
        assert a.returncode == b.returncode == 0
        json_runs.append(a.stdout == b.stdout)

    bench_args = ("bench", "alg2", "--input", str(el), "--sweep", "p=0.3,0.5",
                  "--trials", "3", "--l", "4", "--seed", "2")
    a = run(*bench_args)
    b = run(*bench_args)

    def mask_wall_time(text):
        return [ln.rsplit(",", 1)[0] for ln in text.strip().splitlines()]

    bench_same = (a.returncode == 0 and mask_wall_time(a.stdout) ==
                  mask_wall_time(b.stdout))

    g = gen_planted(600, 50, seed=3)
    p = 0.35
    denom = 3.0 * p * p * (1.0 - p) + p ** 3
    reps_independent = True
    for estimator, stream, seed, count in (
            (alg2_two_pass, open_stream(g), 21,
             lambda edges, keep: alg2_detected_count(edges, keep) / denom),
            (alg2_one_pass_random, open_stream(g, order=Order.RANDOM_PERMUTATION, seed=5),
             4, lambda edges, keep: alg2_one_pass_count(edges, keep) / (p * p))):
        edges = list(stream.iter_edges())
        keeps = [trial_rng(seed, i).random(len(edges)) < p for i in range(8)]
        rep = estimator(stream, p, 8, seed)
        full = rep.per_trial_estimates
        reps_independent = (
            reps_independent
            and full == [count(edges, keep.tolist()) for keep in keeps]
            and rep.max_stored_edges == sum(int(keep.sum()) for keep in keeps)
            and all(estimator(stream, p, k, seed).per_trial_estimates == full[:k]
                    for k in range(1, 8)))

    ok = all(json_runs) and bench_same and reps_independent
    report(8, "determinism", ok,
           "4 estimator CLI reports byte-identical, bench stable modulo "
           "wall_time_ms, l-repetition runs equal l independent repetitions")
