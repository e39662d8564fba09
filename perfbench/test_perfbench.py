"""Tests of the benchmark itself: input generation, statistics, checks and tracing.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from graphcount import graph_counts  # noqa: E402
from stats import MIN_BEYOND, percentile, summary  # noqa: E402
from stylecast.tensor import Tensor, matmul, scale  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "train": {"n_articles": 40, "max_steps": 1},
    "generate": {"max_seq": 24, "prefill_chars": 12, "n_articles": 24},
    "project": {"n_articles": 40, "classify_per_job": 12, "knn": 5, "epochs": 2, "n_casts": 2},
}


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    assert workloads.make_corpus(3, 50) == workloads.make_corpus(3, 50)
    assert workloads.make_corpus(3, 50) != workloads.make_corpus(4, 50)

    def prompts(seed):
        g = workloads.Generate(seed=seed, workdir=tmp_path, **TINY["generate"])
        g.prepare()
        g.setup()
        return [(r.prompt, r.spec, r.policy) for r in map(g.request, range(12))]

    assert prompts(3) == prompts(3)
    assert prompts(3) != prompts(4)


def test_corpus_reads_back_whole(tmp_path):
    c = workloads.load_corpus(tmp_path, workloads.make_corpus(5, 30), 5, {})
    assert len(c.articles) == 30
    assert {a.label for a in c.articles} == set(range(workloads.N_SECTIONS))


def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 201)]
    assert percentile(values, 95.0) == 190.0  # 10 samples beyond rank 190
    assert percentile(values[:199], 95.0) is None  # 9 beyond rank 190
    assert percentile(values, 99.0) is None
    assert summary(values[:5]) == {"n": 5, "p50": 3.0, "p95": None}
    for n in range(1, 200, 7):
        for q in (50.0, 90.0, 95.0, 99.0):
            p = percentile(values[:n], q)
            if p is not None:
                assert sum(v > p for v in values[:n]) >= MIN_BEYOND


def test_graph_counts_matmul_flops():
    a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
    g = graph_counts(scale(matmul(a, b), 2.0))
    assert (g["nodes"], g["matmul_nodes"], g["slice_concat_nodes"]) == (2, 1, 0)
    assert g["matmul_gflop"] == pytest.approx(144e-9)  # 2mkn forward, 4mkn backward


def test_tracer_self_time_and_restore():
    class Mod:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Mod.inner() + 1

    original = Mod.inner
    tr = Tracer()
    tr.wrap(Mod, "inner", "lib.inner")
    tr.wrap(Mod, "outer", "lib.outer")
    tr.phase = "job"
    tr.request = 7
    assert Mod.outer() == 2
    with tr.pause():
        Mod.outer()
    outer, inner = tr.spans
    assert inner.parent == outer.id and inner.request == 7
    selfs = tr.self_times()
    assert selfs[outer.id] == pytest.approx(outer.duration - inner.duration)
    assert tr.totals()[("lib.inner", "job")]["calls"] == 1
    tr.restore()
    assert Mod.inner is original


def test_tracer_counts_failed_calls():
    class Mod:
        @staticmethod
        def boom():
            raise ValueError("no")

    tr = Tracer()
    tr.wrap(Mod, "boom", "lib.boom")
    with pytest.raises(ValueError):
        Mod.boom()
    assert tr.layer_table()["lib"]["failed"] == 1
    tr.restore()


@pytest.mark.parametrize("name", ["train", "generate", "project"])
def test_smoke_every_workload_and_check(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    untraced = run.run(name, seed=2, seconds=0.0, trace=False, min_jobs=3, **TINY[name])
    traced = run.run(name, seed=2, seconds=0.0, trace=True, min_jobs=3, **TINY[name])
    for out in (untraced, traced):
        res = out["result"]
        assert res["correct"] and res["failed"] == 0, out["report"]["errors"]
        assert res["attempted"] >= 3
        json.dumps(res)
    for res, kind in ((untraced["result"], "end_to_end"), (traced["result"], "per_layer")):
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[kind]}
    for m in untraced["result"]["metrics"].values():
        assert m["value"] > 0
    detail = untraced["report"]["detail"]
    assert detail["failed_frac"]["value"] == 0.0
    if name == "generate":
        assert detail["gen_greedy_match"]["value"] == 1.0
        assert detail["gen_greedy_match"]["n"] == 2
    overhead = traced["report"]["tracing_overhead"]
    assert set(overhead) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert (tmp_path / f"{name}-seed2-spans.jsonl").exists()


def test_corrupted_oracle_counts_as_failure(tmp_path, monkeypatch):
    g = workloads.Generate(seed=2, workdir=tmp_path, **TINY["generate"])
    g.prepare()
    g.setup()
    for i in range(3):
        g.job(i)
    assert g.failed == 0 and len(g.greedy) == 2
    real = workloads.Generate.oracle
    monkeypatch.setattr(workloads.Generate, "oracle",
                        lambda self, req: real(self, req) + "x")
    g.verify()
    assert g.failed == 2
    assert g.samples["greedy_match"] == [0.0]


def test_failed_ops_and_checks_are_counted(tmp_path):
    w = workloads.Workload(seed=0, workdir=tmp_path)

    def boom():
        raise RuntimeError("no")

    w.run_ops([("ok", lambda: 1, lambda out, dt: (out == 1, "")),
               ("bad_output", lambda: 2, lambda out, dt: (out == 1, "wrong"))])
    w.run_ops([("raises", boom, None), ("after", lambda: 1, None)])
    assert (w.attempted, w.failed) == (4, 3)


def test_missing_source_exits_nonzero_without_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "train", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
