import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from tricount import cli
from tricount.stream import EdgeStream
import oracles

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "tricount", *args],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def k4_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "k4.el"
    r = run_cli("gen", "complete", "--n", "4", "--out", str(path))
    assert r.returncode == 0
    return str(path)


@pytest.fixture(scope="module")
def planted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "planted.el"
    r = run_cli("gen", "planted", "--m", "300", "--t", "25", "--seed", "5",
                "--out", str(path))
    assert r.returncode == 0
    return str(path)


def test_gen_complete(k4_file):
    lines = [ln for ln in open(k4_file) if ln.strip()]
    assert len(lines) == 6


def test_gen_summary_counts(tmp_path):
    out = tmp_path / "d.el"
    r = run_cli("gen", "disj", "--n", "8", "--T", "4", "--intersecting",
                "--out", str(out))
    assert r.returncode == 0
    assert "t=4" in r.stdout
    r = run_cli("gen", "disj", "--n", "8", "--T", "4", "--out", str(out))
    assert "t=0" in r.stdout


def test_gen_blowup(tmp_path, k4_file):
    k3 = tmp_path / "k3.el"
    r = run_cli("gen", "complete", "--n", "3", "--out", str(k3))
    assert r.returncode == 0
    out = tmp_path / "b.el"
    r = run_cli("gen", "blowup", "--input", str(k3), "--T", "2", "--out", str(out))
    assert r.returncode == 0
    assert "m=12" in r.stdout and "t=8" in r.stdout
    assert len(open(out).readlines()) == 12


def test_gen_blowup_rejects_ids_past_int64(tmp_path):
    base = tmp_path / "big.el"
    base.write_text("0 %d\n" % 2 ** 62)
    r = run_cli("gen", "blowup", "--input", str(base), "--T", "4",
                "--out", str(tmp_path / "b.el"))
    assert r.returncode == 2
    assert "int64" in r.stderr


@pytest.mark.parametrize("shuffle", [[], ["--shuffle", "3"]])
def test_gen_blowup_refuses_to_overwrite_its_input(tmp_path, shuffle):
    k3 = tmp_path / "k3.el"
    assert run_cli("gen", "complete", "--n", "3", "--out", str(k3)).returncode == 0
    before = k3.read_bytes()
    same = "%s/./k3.el" % tmp_path  # another name for the same file
    r = run_cli("gen", "blowup", "--input", str(k3), "--T", "2",
                "--out", same, *shuffle)
    assert r.returncode == 2
    assert "is its --input file" in r.stderr
    assert k3.read_bytes() == before


def test_gen_shuffle_is_a_permutation(tmp_path):
    a = tmp_path / "a.el"
    b = tmp_path / "b.el"
    c = tmp_path / "c.el"
    run_cli("gen", "complete", "--n", "6", "--out", str(a))
    run_cli("gen", "complete", "--n", "6", "--out", str(b), "--shuffle", "3")
    run_cli("gen", "complete", "--n", "6", "--out", str(c), "--shuffle", "3")
    assert sorted(open(a).readlines()) == sorted(open(b).readlines())
    assert open(a).read() != open(b).read()
    assert open(b).read() == open(c).read()


def test_gen_files_match_recorded_digests(tmp_path, capsys):
    # md5 of each written file and the summary line, recorded from the
    # generators' per-edge implementation before they built arrays
    base, out = str(tmp_path / "base.el"), str(tmp_path / "out.el")
    with open(os.path.join(DATA, "gen_digests.json")) as f:
        records = json.load(f)
    assert len(records) == 26
    for rec in records:
        if rec["args"][0] == "blowup":
            assert cli.main(["gen", "planted", "--m", "60", "--t", "5", "--seed", "2",
                             "--out", base]) == 0
        capsys.readouterr()
        args = [base if a == "{base}" else a for a in rec["args"]]
        assert cli.main(["gen", *args, "--out", out]) == rec["exit"], rec["args"]
        assert capsys.readouterr().out == rec["stdout"].replace("{out}", out), rec["args"]
        with open(out, "rb") as f:
            assert hashlib.md5(f.read()).hexdigest() == rec["md5"], rec["args"]


def test_gen_invalid_params(tmp_path):
    r = run_cli("gen", "planted", "--m", "3", "--t", "2",
                "--out", str(tmp_path / "x.el"))
    assert r.returncode == 2
    assert "error" in r.stderr


def test_exact(k4_file):
    r = run_cli("exact", "--input", k4_file, "--stats")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d == {"n": 4, "m": 6, "t": 4, "J": 2, "K": 3}


def test_exact_on_sparse_ids_matches_oracle(tmp_path):
    # a hub on ids past the dense limit, each hub edge written (hub, leaf),
    # so the kernel counts the parsed arrays in file order, unsorted
    leaves = range(5000, 5030)
    edges = [(10 ** 6, v) for v in leaves] + [(v, v + 1) for v in leaves[:-1]]
    edges += [(v, v + 2) for v in leaves[:-2:2]]
    f = tmp_path / "hub.el"
    f.write_text("".join("%d %d\n" % e for e in edges))
    t, _, _, J, K = oracles.brute_stats(edges)
    want = {"n": 31, "m": len(edges), "t": t}
    assert json.loads(run_cli("exact", "--input", str(f)).stdout) == want
    want.update(J=J, K=K)
    assert json.loads(run_cli("exact", "--input", str(f), "--stats").stdout) == want


def test_exact_missing_file():
    r = run_cli("exact", "--input", "/nonexistent/g.el")
    assert r.returncode == 1


def test_exact_parse_error(tmp_path):
    f = tmp_path / "bad.el"
    f.write_text("0 1\nnot an edge\n")
    r = run_cli("exact", "--input", str(f))
    assert r.returncode == 1
    assert "line 2" in r.stderr


def test_exact_duplicate_edge(tmp_path):
    f = tmp_path / "dup.el"
    f.write_text("0 1\n1 0\n")
    r = run_cli("exact", "--input", str(f))
    assert r.returncode == 1
    assert "duplicate" in r.stderr


def test_estimate_exact_at_p1(k4_file):
    r = run_cli("estimate", "alg2", "--input", k4_file, "--p", "1", "--l", "1")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["estimate"] == 4.0
    assert d["degenerate"] is True
    assert d["passes"] == 2


def test_estimate_triangle_free(tmp_path):
    f = tmp_path / "path.el"
    f.write_text("0 1\n1 2\n2 3\n")
    r = run_cli("estimate", "alg1", "--input", str(f), "--p", "0.5", "--seed", "7")
    assert r.returncode == 0
    assert json.loads(r.stdout)["estimate"] == 0.0


def test_estimate_field_order(planted_file):
    r = run_cli("estimate", "alg1", "--input", planted_file, "--p", "0.3")
    d = json.loads(r.stdout, object_pairs_hook=list)
    assert [k for k, _ in d] == ["algorithm", "estimate", "p", "epsilon", "T",
                                 "l", "seed", "max_stored_edges", "passes",
                                 "per_trial_estimates"]


def test_estimate_derives_p_from_promise(planted_file):
    r = run_cli("estimate", "alg2", "--input", planted_file,
                "--T", "25", "--epsilon", "0.5", "--seed", "1")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    # 320 / (0.5^3.5 * 5) = 724, clamped
    assert d["p"] == 1.0
    assert d["l"] == 32
    assert d["degenerate"] is True
    assert d["estimate"] == 25.0
    assert "cap" in r.stderr


def test_estimate_needs_p_or_promise(k4_file):
    r = run_cli("estimate", "alg1", "--input", k4_file)
    assert r.returncode == 2
    assert "--T" in r.stderr


def test_estimate_order_incompatibility(k4_file):
    r = run_cli("estimate", "alg1-rand", "--input", k4_file, "--p", "0.5",
                "--order", "given")
    assert r.returncode == 2


def test_estimate_rand_defaults_to_random_order(k4_file):
    r = run_cli("estimate", "alg2-rand", "--input", k4_file, "--p", "1",
                "--l", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["estimate"] == 4.0


def test_estimate_invalid_p(k4_file):
    r = run_cli("estimate", "alg1", "--input", k4_file, "--p", "0")
    assert r.returncode == 2
    r = run_cli("estimate", "alg1", "--input", k4_file, "--p", "1")
    assert r.returncode == 2
    r = run_cli("estimate", "alg2", "--input", k4_file, "--p", "1.2")
    assert r.returncode == 2


def test_estimate_negative_seed(k4_file):
    r = run_cli("estimate", "alg1", "--input", k4_file, "--p", "0.5",
                "--seed", "-3")
    assert r.returncode == 2


def test_repeat_invocations_byte_identical(planted_file):
    args = ("estimate", "alg2", "--input", planted_file, "--p", "0.4",
            "--l", "6", "--seed", "9")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_bench_row_contract(planted_file):
    r = run_cli("bench", "alg1", "--input", planted_file,
                "--sweep", "p=0.2,0.4", "--trials", "5", "--seed", "3")
    assert r.returncode == 0
    rows = list(csv.DictReader(io.StringIO(r.stdout)))
    assert len(rows) == 10
    header = r.stdout.splitlines()[0]
    assert header == ("algorithm,m,n,t_true,T,epsilon,p,l,seed,estimate,"
                      "relative_error,max_stored_edges,wall_time_ms")
    for row in rows:
        assert row["algorithm"] == "alg1"
        assert row["m"] == "300" and row["t_true"] == "25"
        est = float(row["estimate"])
        rel = float(row["relative_error"])
        assert rel == pytest.approx(abs(est - 25) / 25)
        assert int(row["max_stored_edges"]) <= 300
        float(row["wall_time_ms"])


def test_bench_gen_spec_and_determinism():
    args = ("bench", "alg2", "--gen", "planted:m=120,t=10,seed=2",
            "--sweep", "p=0.3,0.5", "--trials", "4", "--seed", "1", "--l", "4")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == 0

    def mask(text):
        rows = [ln.split(",") for ln in text.strip().splitlines()]
        return [r[:-1] for r in rows]

    assert mask(a.stdout) == mask(b.stdout)


@pytest.mark.parametrize("spec, key, takes", [
    ("planted:mm=3000,t=100", "mm", "m, t, seed"),
    ("complete:n=30,q=1", "q", "n"),
    ("disj:n=8,T=4,t=1", "t", "n, T, intersecting, seed")])
def test_bench_gen_rejects_unknown_keys(spec, key, takes):
    r = run_cli("bench", "alg1", "--gen", spec, "--p", "0.5", "--trials", "1")
    assert r.returncode == 2 and r.stdout == ""
    assert "takes no key %r (it takes %s)" % (key, takes) in r.stderr


def test_bench_one_pass(planted_file):
    r = run_cli("bench", "alg1-rand", "--input", planted_file, "--p", "0.5",
                "--trials", "3")
    assert r.returncode == 0
    assert len(r.stdout.strip().splitlines()) == 4


def test_bench_trials_map_no_slots(planted_file, monkeypatch, capsys):
    # bench knows the vertex count of the arrays it checked, so a trial's
    # stream of the ids 0..n-1 takes them as slots without a pass of its own
    passes = []
    iter_chunks = EdgeStream.iter_chunks
    monkeypatch.setattr(EdgeStream, "iter_chunks",
                        lambda self, chunk_size=None: passes.append(self)
                        or iter_chunks(self, chunk_size))
    assert cli.main(["bench", "alg1-rand", "--input", planted_file, "--p", "0.5",
                     "--trials", "3"]) == 0
    # a look-ahead and a counting pass per trial, on three streams
    assert len(passes) == 6 and len(set(map(id, passes))) == 3
    assert len(capsys.readouterr().out.strip().splitlines()) == 4


@pytest.mark.parametrize("alg, extra", [("alg1", ()), ("alg1-rand", ()),
                                        ("alg2", ("--l", "3")),
                                        ("alg2-rand", ("--l", "3"))])
def test_bench_row_equals_estimate(planted_file, alg, extra):
    # bench and estimate share one dispatch: a one-trial row reproduces
    # `estimate` at the row's seed (the one-pass orders come from that seed)
    r = run_cli("bench", alg, "--input", planted_file, "--p", "0.4",
                "--trials", "1", "--seed", "6", *extra)
    assert r.returncode == 0
    (row,) = csv.DictReader(io.StringIO(r.stdout))
    e = run_cli("estimate", alg, "--input", planted_file, "--p", "0.4",
                "--seed", row["seed"], *extra)
    assert e.returncode == 0
    d = json.loads(e.stdout)
    assert float(row["estimate"]) == d["estimate"]
    assert int(row["max_stored_edges"]) == d["max_stored_edges"]


def assert_flag_is_gone(planted_file, flag, value):
    for cmd in ("estimate", "bench"):
        r = run_cli(cmd, "alg2", "--input", planted_file, "--p", "0.4",
                    flag, value)
        assert r.returncode == 2
        assert flag in r.stderr


def test_workers_flag_is_gone(planted_file):
    assert_flag_is_gone(planted_file, "--workers", "2")


def test_engine_flag_is_gone(planted_file):
    assert_flag_is_gone(planted_file, "--engine", "sets")


def test_bench_derives_p_like_estimate(tmp_path):
    empty = tmp_path / "empty.el"
    empty.write_text("")
    triangle = tmp_path / "triangle.el"
    triangle.write_text("0 1\n1 2\n0 2\n")
    for cmd, extra in (("estimate", ()), ("bench", ("--trials", "1"))):
        r = run_cli(cmd, "alg1", "--input", str(empty), "--T", "5", *extra)
        assert r.returncode == 2
        assert "cannot derive p: the input has fewer than 2 vertices" in r.stderr
        assert r.stdout == ""
        r = run_cli(cmd, "alg1", "--input", str(triangle), "--T", "1", *extra)
        assert r.returncode == 0
        assert "warning: derived p hit its cap (0.99)" in r.stderr


def test_bench_oracle_budget(planted_file):
    r = run_cli("bench", "alg1", "--input", planted_file, "--p", "0.5",
                "--oracle-budget", "0.0000001")
    assert r.returncode == 2
    assert "budget" in r.stderr


def test_bench_oracle_budget_admits_two_million_edges():
    # the kernel counts the 2M-edge planted file in a fraction of a second,
    # so the default budget of 60 s must let a sparse graph of 2M edges by
    star = (np.zeros(2_000_000, dtype=np.int64), np.arange(1, 2_000_001, dtype=np.int64))
    assert cli._predict_oracle_seconds(star) < 60


def test_bench_needs_one_input(planted_file):
    r = run_cli("bench", "alg1", "--p", "0.5")
    assert r.returncode == 2
    r = run_cli("bench", "alg1", "--input", planted_file,
                "--gen", "complete:n=4", "--p", "0.5")
    assert r.returncode == 2


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_bench_rejects_non_positive_trials(planted_file, trials):
    r = run_cli("bench", "alg1", "--input", planted_file, "--p", "0.5",
                "--trials", trials)
    assert r.returncode == 2
    assert "--trials" in r.stderr and r.stdout == ""


def test_bench_bad_sweep(planted_file):
    r = run_cli("bench", "alg1", "--input", planted_file, "--sweep", "q=1,2")
    assert r.returncode == 2


def test_unknown_subcommand_exits_2():
    r = run_cli("frobnicate")
    assert r.returncode == 2
