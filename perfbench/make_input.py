"""Write a planted edge-list file and print its generation and write times.

    python3 perfbench/make_input.py --m 200000 --t 20000 --seed 1 --out g.el

The benchmark runs this in a child process so that generating the input
does not count towards the peak RSS of the calls it times.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--m", type=int, required=True)
    ap.add_argument("--t", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from tricount.edgelist import write_edge_list
    from tricount.generators import gen_planted

    t0 = time.perf_counter()
    g = gen_planted(args.m, args.t, args.seed)
    t1 = time.perf_counter()
    write_edge_list(args.out, g.edges())
    t2 = time.perf_counter()
    print(json.dumps({"gen_s": t1 - t0, "write_s": t2 - t1}))


if __name__ == "__main__":
    main()
