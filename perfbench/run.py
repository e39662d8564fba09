"""Benchmark entry point: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload train|generate|project --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The BLAS thread count is pinned to 1 before numpy loads.

A run sets the workload up several times (the median is `setup_s`),
then sends jobs in a closed loop until the timed part of the jobs adds
up to `--seconds`, then checks the outputs. Earlier lines of standard
output are a readable report: every end-to-end metric of the workload
with its unit and sample count, provenance and, in a traced run, the
per-layer self times. The last line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end metrics named in BENCHMARK.json; with
`--trace 1` they are the per-layer metrics, measured by wrapping the
program's module functions, and the report adds the tracing overhead
against the last untraced run of the same workload and seed.

Reports and span files go to `.perfbench_out/` in the checkout. The
benchmark's own tests: `python3 -m pytest -q perfbench/test_perfbench.py`.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# A set-up takes milliseconds, so one sees the machine's speed of that
# moment, which drifts from second to second. Two untimed set-ups warm the
# code paths, one timed block of SETUP_BLOCK set-ups runs before the first
# job, then another between the ops of the jobs whenever SETUP_EVERY
# seconds have passed since the last: the median samples the whole run, as
# the jobs do.
SETUP_WARMUP = 2
SETUP_BLOCK = 3
SETUP_EVERY = 0.25


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {"numpy": np.__version__, "blas": blas_id,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "commit": git_commit(ROOT), "seed": seed}


def instrument(tracer) -> None:
    """Wrap the public functions of the stylecast modules at their module boundaries."""
    from stylecast import checkpoint, config, generate, model, projection, tensor, text, train

    def steps(tr, args, kwargs, result):
        if kwargs.get("train"):
            tr.count("train.steps")

    def saved_bytes(tr, args, kwargs, result):
        tr.count("checkpoint.bytes", os.path.getsize(args[2]))

    def sym_edges(tr, args, kwargs, result):
        tr.count("projection.sym_edges", len(result.sym_edges))

    w = tracer.wrap
    w(tensor.Tensor, "backward", "tensor.backward")
    for mod in (model, train, generate):
        w(mod, "lm_forward", "model.lm_forward")
    for mod in (model, train):
        w(mod, "clf_forward", "model.clf_forward")
    for mod in (model, projection):
        w(mod, "extract_latent", "model.extract_latent")
    w(model, "learned_style", "style.learned_style")
    w(train, "lm_batch_loss", "train.lm_batch_loss", after=steps)
    for fn in ("train_lm", "clip_gradients", "adamw_step", "evaluate_lm", "clf_batch_loss",
               "evaluate_accuracy", "fine_tune_classifier"):
        w(train, fn, f"train.{fn}")
    for fn in ("load_jsonl", "build_vocab", "format_article", "encode_title"):
        w(text, fn, f"text.{fn}")
    w(checkpoint, "save_checkpoint", "checkpoint.save", after=saved_bytes)
    w(checkpoint, "load_checkpoint", "checkpoint.load")
    w(generate, "generate", "generate.request")
    w(generate, "sample_next", "generate.sample_next")
    w(projection, "fuzzy_knn_graph", "projection.knn", after=sym_edges)
    for fn, name in (("smooth_sigma", "smooth_sigma"), ("optimize_layout", "layout"),
                     ("project_latents", "project_latents"), ("cast_overlay", "cast"),
                     ("emit_scatter_svg", "svg")):
        w(projection, fn, f"projection.{name}")
    w(config, "validate_config", "config.validate")


# Per-layer metric -> (kind, span or counter name). Each value is what one
# set-up plus one job costs: set-up totals are divided by the number of
# set-ups, job totals by the number of jobs.
PER_LAYER = {
    "tensor.backward_s": ("s", "tensor.backward"),
    "model.lm_forward_calls": ("calls", "model.lm_forward"),
    "model.lm_forward_s": ("s", "model.lm_forward"),
    "model.clf_forward_s": ("s", "model.clf_forward"),
    "model.extract_latent_s": ("s", "model.extract_latent"),
    "style.learned_style_calls": ("calls", "style.learned_style"),
    "style.learned_style_s": ("s", "style.learned_style"),
    "train.lm_batch_loss_s": ("s", "train.lm_batch_loss"),
    "train.clip_gradients_s": ("s", "train.clip_gradients"),
    "train.adamw_step_s": ("s", "train.adamw_step"),
    "train.steps": ("count", "train.steps"),
    "train.evaluate_lm_s": ("s", "train.evaluate_lm"),
    "train.clf_batch_loss_s": ("s", "train.clf_batch_loss"),
    "train.evaluate_accuracy_s": ("s", "train.evaluate_accuracy"),
    "text.load_jsonl_s": ("s", "text.load_jsonl"),
    "text.build_vocab_s": ("s", "text.build_vocab"),
    "text.format_article_s": ("s", "text.format_article"),
    "text.encode_title_s": ("s", "text.encode_title"),
    "checkpoint.save_s": ("s", "checkpoint.save"),
    "checkpoint.load_s": ("s", "checkpoint.load"),
    "checkpoint.bytes": ("count", "checkpoint.bytes"),
    "generate.request_s": ("s", "generate.request"),
    "generate.tokens": ("calls", "generate.sample_next"),
    "generate.sample_next_s": ("s", "generate.sample_next"),
    "generate.self_s": ("self_s", "generate.request"),
    "projection.knn_s": ("s", "projection.knn"),
    "projection.sym_edges": ("count", "projection.sym_edges"),
    "projection.smooth_sigma_calls": ("calls", "projection.smooth_sigma"),
    "projection.layout_s": ("s", "projection.layout"),
    "projection.cast_s": ("s", "projection.cast"),
    "projection.svg_s": ("s", "projection.svg"),
    "config.validate_s": ("s", "config.validate"),
}
GRAPH_COUNTS = ("tensor.nodes_per_lm_step", "tensor.matmul_nodes_per_lm_step",
                "tensor.slice_concat_nodes_per_lm_step", "tensor.matmul_gflop_per_lm_step",
                "tensor.nodes_per_gen_forward", "tensor.nodes_per_classify")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("gflop_per_lm_step"):
        return "GFLOP"
    if metric == "checkpoint.bytes":
        return "bytes"
    return "count"


def per_layer(tracer, n_setups: int, n_jobs: int, graph: dict) -> dict:
    totals = tracer.totals()
    per = {"setup": n_setups, "job": n_jobs}
    out = {}
    for metric, (kind, name) in PER_LAYER.items():
        if kind == "count":
            rows = [(phase, n) for (counter, phase), n in tracer.counts.items() if counter == name]
        else:
            field = "calls" if kind == "calls" else kind
            rows = [(phase, row[field]) for (span, phase), row in totals.items() if span == name]
        out[metric] = sum(v / per[phase] for phase, v in rows if phase in per)
    out.update({k: graph.get(k, 0) for k in GRAPH_COUNTS})
    out["layers.failed_calls"] = sum(tracer.failures.values())
    return out


def measure(wl, tracer, seconds: float, min_jobs: int) -> tuple[list, dict, int, float]:
    """Generate inputs, set up, count the graph (traced runs), warm up, run the job loop.

    Timed set-ups are spread over the run (see SETUP_EVERY), so their
    median sees the same machine as the jobs do.
    """
    wl.prepare()
    setup_times = []
    last = [0.0]

    def setups(n: int, phase: str = "setup") -> None:
        for _ in range(n):
            if tracer is not None:
                tracer.phase, tracer.request = phase, None
            t0 = time.perf_counter()
            with wl.span("bench.setup"):
                wl.setup()
            last[0] = time.perf_counter()
            if phase == "setup":
                setup_times.append(last[0] - t0)

    def between_ops() -> None:
        if time.perf_counter() - last[0] < SETUP_EVERY:
            return
        saved = None if tracer is None else (tracer.phase, tracer.request)
        setups(SETUP_BLOCK)
        if tracer is not None:
            tracer.phase, tracer.request = saved

    setups(SETUP_WARMUP, phase="warmup")
    setups(SETUP_BLOCK)
    graph = {}
    if tracer is not None:
        tracer.phase = "warmup"
        with tracer.pause():
            graph = wl.graph_counts()
    # One untimed job first: lazy set-up and warm caches are not what a job costs.
    wl.job(0)
    wl.samples.clear()
    wl.between = between_ops
    timed = 0.0
    jobs = 0
    while timed < seconds or jobs < min_jobs:
        if tracer is not None:
            tracer.phase, tracer.request = "job", jobs
        with wl.span("bench.job"):
            timed += wl.job(jobs)
        jobs += 1
    wl.between = None
    if tracer is not None:
        tracer.phase = None
    return setup_times, graph, jobs, timed


def run(workload: str, seed: int, seconds: float, trace: bool, min_jobs: int = 1,
        **sizes) -> dict:
    """Set up, run jobs until `seconds` of them are timed (at least min_jobs), check outputs.

    `sizes` override the workload's input sizes.
    """
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    import_s = time.perf_counter() - PROCESS_START
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as tmp:
        wl = workloads.WORKLOADS[workload](seed=seed, workdir=Path(tmp), tracer=tracer,
                                           **sizes)
        if tracer is not None:
            instrument(tracer)
        try:
            setup_times, graph, jobs, timed = measure(wl, tracer, seconds, min_jobs)
        finally:
            if tracer is not None:
                tracer.restore()
        wl.verify()
    m = wl.metrics()
    end_to_end = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s", "n": len(setup_times)},
        "tok_s": m["tok_s"], "job_s": m["job_s"],
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"}}
    e2e = {k: v["value"] for k, v in end_to_end.items()}
    report = {"workload": workload, "trace": int(trace), "seconds": seconds,
              "provenance": provenance(seed), "jobs": jobs, "timed_s": timed,
              "import_s": import_s, "setup_reps": setup_times, "samples": wl.samples,
              "end_to_end": end_to_end,
              "detail": {**m["detail"],
                         "failed_frac": {"value": wl.failed / max(wl.attempted, 1),
                                         "unit": "ratio", "n": wl.attempted}},
              "errors": wl.errors}
    if tracer is not None:
        layers = per_layer(tracer, len(setup_times), jobs, graph)
        report["per_layer"] = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        report["self_time_by_layer"] = tracer.layer_table()
        report["tracing_overhead"] = overhead(workload, seed, e2e)
        tracer.write(OUT / f"{workload}-seed{seed}-spans.jsonl")
    metrics = report["per_layer"] if trace else report["end_to_end"]
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str))
    return {"report": report, "result": {
        "correct": wl.failed == 0, "attempted": wl.attempted, "failed": wl.failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}}}


def overhead(workload: str, seed: int, traced: dict) -> dict:
    """Traced minus untraced, per end-to-end metric, against the saved untraced run."""
    path = OUT / f"{workload}-seed{seed}-trace0.json"
    if not path.exists():
        return {"note": f"no untraced run of {workload} with seed {seed} recorded"}
    base = json.loads(path.read_text())["end_to_end"]
    return {k: {"traced": v, "untraced": base[k]["value"], "diff": v - base[k]["value"],
                "unit": base[k]["unit"]} for k, v in traced.items()}


def print_report(report: dict) -> None:
    print(f"# perfbench {report['workload']} trace={report['trace']} jobs={report['jobs']} "
          f"timed={report['timed_s']:.2f}s")
    print("# provenance " + json.dumps(report["provenance"], sort_keys=True))
    for section in ("end_to_end", "detail", "per_layer"):
        for name, m in report.get(section, {}).items():
            n = f"  n={m['n']}" if "n" in m else ""
            p95 = f"  p95={m['p95']:.6g}" if m.get("p95") is not None else ""
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{section:>10}  {name:<40} {value:>14} {m['unit']}{n}{p95}")
    if "per_layer" in report:
        print("# tensor.matmul_gflop_per_lm_step is computed from matmul shapes "
              "(2mkn forward, 4mkn backward), not measured")
    for layer, row in report.get("self_time_by_layer", {}).items():
        print(f"{'self_time':>10}  {layer:<40} {row['self_s']:>14.6g} s  "
              f"calls={row['calls']} failed={row['failed']}")
    for name, row in report.get("tracing_overhead", {}).items():
        if isinstance(row, dict):
            print(f"{'overhead':>10}  {name:<40} {row['diff']:>14.6g} {row['unit']}")
        else:
            print(f"{'overhead':>10}  {row}")
    for err in report["errors"]:
        print(f"#   failed: {err}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("train", "generate", "project"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "stylecast" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'stylecast'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(out["report"])
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
