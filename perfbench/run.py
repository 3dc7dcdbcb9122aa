"""Benchmark for tricount: end-to-end times per workload, in units of a
fixed reference loop timed around each call, and per-layer times from a
separate traced run.

    python3 perfbench/run.py --workload file-given --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload

Run from anywhere; the program under test is imported from `src/` next
to this directory, never from an installed copy.  Each run repeats rounds
of the workload's calls until `--seconds` have passed, always finishing
the round it is in, and sets its input up again between rounds (set-up
time is the median of all set-ups).  Every call runs in a child forked
for it, whose peak RSS is the call's.  `--trace 1` alternates traced and
untraced rounds and reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  A call fails when it raises or exits non-zero, when an
exact count is wrong, when stored edges leave l*p*m +- 4 sqrt(l*p*m),
when its report differs from an earlier round's in the same run, or when
its report digest differs from the one recorded in digests.json for this
seed.
"""

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
OUTDIR = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")

# Set-up is interleaved with the rounds, so that `setup_s` samples the
# host's speed across the whole run, as the call timings do.  Before each
# round the input is set up again while fewer than SETUP_MIN_REPEATS
# set-ups have been spread evenly over the time gone, or while set-up has
# taken less than SETUP_SHARE of it; `setup_s` is the median of all
# set-ups, so that work moved into set-up shows.  The share matters for
# the blow-up, whose set-up takes milliseconds and so repeats hundreds of
# times.
SETUP_MIN_REPEATS = 5
SETUP_SHARE = 0.1
# One BLAS thread: with the default two, K_900's dense exact count is
# bimodal (0.12 or 0.20 s); with one it is steady.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Each call is also timed against a reference loop run just before and
# after it, REF_REPEATS times on each side; the call's seconds over the
# loop's median seconds is the call's time in `refloop` units.  The shared
# host this benchmark was built on drifts by up to +-30% in speed from one
# run to the next, and the loop, which is fixed code, drifts with it: over
# six runs of file-given whose wall times spread by 0.18-0.38, the
# normalized times spread by 0.03-0.09.
REF_REPEATS = 5
END_TO_END = {"setup_s": "s", "round_norm": "refloop", "exact_norm": "refloop",
              "alg1_norm": "refloop", "alg2_norm": "refloop", "peak_rss_mb": "MB"}


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "tricount", "__init__.py")):
        sys.exit("perfbench: no tricount sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import tricount
    if not os.path.abspath(tricount.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported tricount from %s, not %s" % (tricount.__file__, SRC))


def _blas_threads():
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown (OPENBLAS_NUM_THREADS=%s)" % os.environ.get("OPENBLAS_NUM_THREADS")


def machine_info():
    import numpy
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": _blas_threads()}


def _tail(samples):
    """Highest of p75/p90/p95/p99 with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if len(samples) * (100 - pct) / 100.0 >= 10:
            return pct, statistics.quantiles(samples, n=100)[pct - 1]
    return None


def _rss_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2.0 ** 20


def _reference_loop():
    """Fixed work in the program's two styles, Python set lookups and a
    numpy sort; about 10 ms on a 2-core x86 box."""
    import numpy as np  # not at module level: BLAS threads are set first
    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 16, 40000).tolist()
    s = set(a[20000:])
    hits = sum(x in s for x in a[:20000])
    np.sort(rng.random(200000))
    return hits


def _reference_samples():
    out = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        out.append(time.perf_counter() - t0)
    return out


def _release_free_memory():
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc: freed heap pages stay resident


def _load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Run:
    """State of one benchmark run over one workload."""

    def __init__(self, workload, seed, seconds, trace):
        # both import numpy and tricount, so only after main() set them up
        import tracing
        import workloads
        self.workloads = workloads
        self.tracing = tracing
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracing.Tracer() if trace else None
        self.setup_s = []
        self.gen_s = []
        self.samples = {}        # op label -> call seconds
        self.norm = {}           # op label -> call seconds / reference loop seconds
        self.ref_s = []          # reference loop seconds, all samples
        self.rss_mb = {}         # op label -> peak RSS of the call's child
        self.fork_rss_mb = []    # resident set of this process at each fork
        self.rounds = []         # (traced, seconds, refloops)
        self.texts = {}          # op label -> first report text
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.ops = None
        self.undo = None
        self.files = set()

    def _set_traced(self, on):
        if on and self.undo is None:
            self.undo = self.tracing.install(self.tracer)
        elif not on and self.undo is not None:
            self.tracing.uninstall(self.undo)
            self.undo = None

    def setup(self):
        """Build the workload's input once more; it replaces the last one."""
        if self.tracer:
            self._set_traced(True)
            self.tracer.phase = "setup%d" % len(self.setup_s)
        self.ops = None  # hold one input at a time
        gc.collect()
        self.ops, setup_s, gen_s, files = self.workloads.SETUP[self.workload](
            self.seed, WORKDIR)
        self.files.update(files)
        self.setup_s.append(setup_s)
        if gen_s is not None:
            self.gen_s.append(gen_s)
        # the calls' children fork from what is resident now
        _release_free_memory()

    def _setup_due(self, elapsed):
        n = len(self.setup_s)
        # the cap on n ends this rule even when one set-up outlasts the
        # run's share of it; the share rule ends as set-up time catches up
        spread = n < SETUP_MIN_REPEATS and n < SETUP_MIN_REPEATS * elapsed / self.seconds
        return n == 0 or spread or sum(self.setup_s) < SETUP_SHARE * elapsed

    def _run_in_child(self, op):
        """Run `op` in a forked child; return (seconds, text or None, error,
        peak RSS in MB).

        A forked child's ru_maxrss starts from the resident set at fork
        time, so it covers the resident input and the call's own peak but
        not the transient peak of generating the input.
        """
        gc.collect()
        self.fork_rss_mb.append(_rss_mb())
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(r)
            code = 1
            try:
                first_span = len(self.tracer.spans) if self.tracer else 0
                t0 = time.perf_counter()
                try:
                    text, err = op.run(), None
                except Exception:
                    text, err = None, traceback.format_exc()
                dt = time.perf_counter() - t0
                spans = self.tracer.spans[first_span:] if self.tracer else []
                with os.fdopen(w, "w") as f:
                    json.dump({"dt": dt, "text": text, "err": err, "spans": spans}, f)
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(w)
        try:
            with os.fdopen(r) as f:
                payload = f.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status, usage = os.wait4(pid, 0)
        if status != 0:
            raise RuntimeError("child timing %s exited with code %d"
                               % (op.label, os.waitstatus_to_exitcode(status)))
        out = json.loads(payload)
        if self.tracer:
            self.tracer.spans.extend(out["spans"])
        return out["dt"], out["text"], out["err"], usage.ru_maxrss / 1024.0

    def call(self, op, expected):
        ref = _reference_samples()
        dt, text, err, rss_mb = self._run_in_child(op)
        ref += _reference_samples()
        self.ref_s.extend(ref)
        norm = dt / statistics.median(ref)
        self.attempted += 1
        if text is None:
            problems = ["%s raised:\n%s" % (op.label, err)]
        else:
            try:
                problems = op.check(text)
            except Exception:
                problems = ["%s: report not checkable:\n%s" % (op.label, traceback.format_exc())]
            first = self.texts.setdefault(op.label, text)
            if text != first:
                problems.append("%s: report differs from the first round's" % op.label)
            if expected is not None and expected.get(op.label) != _sha(text):
                problems.append("%s: report digest differs from digests.json" % op.label)
        self.problems.extend(problems)
        self.samples.setdefault(op.label, []).append(dt)
        self.norm.setdefault(op.label, []).append(norm)
        self.rss_mb.setdefault(op.label, []).append(rss_mb)
        return dt, norm, bool(problems)

    def round(self, expected):
        # traced runs alternate traced and untraced rounds, traced first
        traced = self.tracer is not None and len(self.rounds) % 2 == 0
        if self.tracer:
            self.tracer.phase = "round%d" % len(self.rounds)
            self._set_traced(traced)
        total = total_norm = 0.0
        for op in self.ops:
            if self.tracer:
                self.tracer.call = self.attempted + 1
            dt, norm, bad = self.call(op, expected)
            total += dt
            total_norm += norm
            self.failed += bad
        self.rounds.append((traced, total, total_norm))

    def measure(self):
        """Rounds until `seconds` have passed, with set-ups in between."""
        expected = _load_digests().get(str(self.seed), {}).get(self.workload)
        # a traced run needs one untraced round to state the tracing overhead
        min_rounds = 2 if self.tracer else 1
        t_start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t_start
            if len(self.rounds) >= min_rounds and elapsed >= self.seconds:
                break
            if self._setup_due(elapsed):
                self.setup()
            else:
                self.round(expected)
        while len(self.setup_s) < SETUP_MIN_REPEATS:
            self.setup()
        if self.tracer:
            self._set_traced(False)

    def peak_rss_mb(self):
        """Peak RSS over the estimator calls; the exact oracle holds the
        whole graph by design, so its figure is printed but not counted."""
        return max(max(self.rss_mb[op.label]) for op in self.ops if op.t is None)

    def end_to_end(self):
        """Samples of every end-to-end timing metric."""
        out = {"setup_s": self.setup_s, "round_norm": [r[2] for r in self.rounds]}
        for op in self.ops:
            out[op.kind + "_norm"] = self.norm[op.label]
        return out

    def layer(self):
        m = self.tracing.layer_metrics(self.tracer.spans, self.gen_s)
        # in refloop units, which the host's drift moves less than seconds,
        # turned back into seconds at the run's median reference loop time
        traced = [norm for tr, _, norm in self.rounds if tr]
        plain = [norm for tr, _, norm in self.rounds if not tr]
        if traced and plain:
            m["trace.overhead_s"] = ((statistics.median(traced) - statistics.median(plain))
                                     * statistics.median(self.ref_s))
        return m

    def cleanup(self):
        for path in self.files:
            if os.path.exists(path):
                os.remove(path)
        if os.path.isdir(WORKDIR) and not os.listdir(WORKDIR):
            os.rmdir(WORKDIR)


def _fmt_samples(name, unit, samples, label=""):
    med = statistics.median(samples)
    line = "  %-22s %12.6g %-6s n=%d min=%.6g max=%.6g" % (
        name, med, unit, len(samples), min(samples), max(samples))
    tail = _tail(samples)
    if tail:
        line += "  p%d=%.6g" % tail
    return line + ("  (%s)" % label if label else "")


def run_one(args):
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        run.measure()
    finally:
        run.cleanup()
    info = machine_info()
    print("machine: " + " ".join("%s=%s" % kv for kv in info.items()))
    print("workload %s seed %d: %d rounds, %d calls, %d failed (error_rate %.6g)"
          % (args.workload, args.seed, len(run.rounds), run.attempted, run.failed,
             run.failed / run.attempted))
    for p in run.problems:
        print("  FAIL " + p)
    if args.trace:
        metrics = run.layer()
        units = run.tracing.LAYER_UNITS
        os.makedirs(OUTDIR, exist_ok=True)
        path = os.path.join(OUTDIR, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))
        run.tracer.write_jsonl(path)
        print("  %d spans written to %s" % (len(run.tracer.spans), path))
        for name, value in metrics.items():
            print("  %-30s %14.6g %s" % (name, value, units[name]))
    else:
        samples = run.end_to_end()
        metrics = {k: statistics.median(v) for k, v in samples.items()}
        metrics["peak_rss_mb"] = run.peak_rss_mb()
        units = END_TO_END
        print(_fmt_samples("setup_s", "s", samples["setup_s"]))
        print(_fmt_samples("round_norm", "refloop", samples["round_norm"]))
        for op in run.ops:
            print(_fmt_samples(op.kind + "_norm", "refloop", run.norm[op.label], op.label))
        print(_fmt_samples("refloop_s", "s", run.ref_s, "the reference loop"))
        print(_fmt_samples("round_s", "s", [r[1] for r in run.rounds], "wall, not normalized"))
        for op in run.ops:
            print(_fmt_samples(op.kind + "_s", "s", run.samples[op.label], op.label))
        for op in run.ops:
            print("  %-22s %12.6g %-6s (%s)" % ("call_rss_mb", max(run.rss_mb[op.label]),
                                                "MB", op.label))
        print("  %-22s %12.6g %-6s (estimator calls only; %.6g MB resident at fork)" % (
            "peak_rss_mb", metrics["peak_rss_mb"], "MB", statistics.median(run.fork_rss_mb)))
        print("  %-22s %12.6g %-6s n=%d" % ("error_rate", run.failed / run.attempted,
                                             "ratio", run.attempted))
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload in its own process, then one summary table."""
    import workloads
    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print("\n%-14s %-26s %14s" % ("workload", "metric", "value"))
    for name, res in results.items():
        for metric, mv in res["metrics"].items():
            print("%-14s %-26s %14.6g %s" % (name, metric, mv["value"], mv["unit"]))
        print("%-14s %-26s %14.6g ratio (%d/%d)" % (
            name, "error_rate", res["failed"] / res["attempted"], res["failed"],
            res["attempted"]))
    print(json.dumps(results))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="file-given, file-random, dense-memory, blowup-stream or all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    # on SIGTERM, unwind so that input files are removed and children reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for var in BLAS_ENV:
        os.environ[var] = "1"
    _import_program()
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        ap.error("unknown workload %r" % args.workload)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
