"""Edge streams: replay, ordering, sampling, and space accounting.

Shows that a stream replays identically pass after pass (the property the
two-pass estimators rely on), that a random-order stream fixes its
permutation at construction, and how many sampled edges an estimator
stores.
"""

import os
import tempfile

from tricount import (gen_planted, open_stream, Order, alg1_two_pass,
                      alg2_two_pass, write_edge_list)


def main():
    g = gen_planted(30, 3, seed=4)
    edges = g.edges()

    print("as-given stream, two passes:")
    s = open_stream(edges)
    print("  pass 1:", list(s.iter_edges())[:6], "...")
    print("  pass 2:", list(s.iter_edges())[:6], "...")

    print("random-order stream, seed 11, two passes (same permutation):")
    r = open_stream(edges, order=Order.RANDOM_PERMUTATION, seed=11)
    print("  pass 1:", list(r.iter_edges())[:6], "...")
    print("  pass 2:", list(r.iter_edges())[:6], "...")
    r2 = open_stream(edges, order=Order.RANDOM_PERMUTATION, seed=12)
    print("  seed 12:", list(r2.iter_edges())[:6], "...")

    with tempfile.NamedTemporaryFile("w", suffix=".el", delete=False) as f:
        path = f.name
    write_edge_list(path, edges)
    sf = open_stream(path, order=Order.RANDOM_PERMUTATION, seed=11)
    same = list(sf.iter_edges()) == list(r.iter_edges())
    os.unlink(path)
    print("file-backed stream with the same seed matches in-memory:", same)

    print()
    print("alg1 at p=0.3, m=%d, edges stored by its one sample:" % s.m)
    for seed in range(4):
        rep = alg1_two_pass(s, 0.3, seed)
        print("  seed %d: stored %2d edges (expect about %.0f)"
              % (seed, rep.max_stored_edges, 0.3 * s.m))

    rep = alg2_two_pass(s, 0.3, 2, 0)
    print("alg2 at p=0.3 with 2 repetitions holds both samples at once:",
          rep.max_stored_edges, "stored edges (expect about %.0f)" % (2 * 0.3 * s.m))

if __name__ == "__main__":
    main()
