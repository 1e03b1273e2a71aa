"""kgqa benchmark: questions/s, setup, memory and cost per question.

Usage, from the repository root:

    python3 benchmarks/run.py --workload prune-heavy --seed 1 --seconds 30 --trace 0

Each workload (see workloads.py) is generated from `--seed`. Load is a closed
loop from one process: the caller submits the whole dataset as one batch and
waits for it, by driving the public pipeline API the way `run_all` does
(`PipelineContext`, `run_stage` for each stage of `config.plan()`, then
`save_state`). Every plan run gets a fresh stage directory and a fresh
context, and plan runs repeat until `--seconds` have passed; timings are
medians over them.

With `--trace 0` the last line of standard output is a JSON object holding the
end-to-end metrics. With `--trace 1` untraced and traced plan runs alternate;
the traced ones wrap each layer's public functions (spans.py), and the last
line holds the per-layer metrics plus `trace.overhead_share`. Every plan run is
checked: hits@1 1.0, 4 provider calls per question, no failed records, and
artifacts byte-identical across the plan runs of one invocation. A plan run
that fails a check prints FAIL and counts as a failed operation.

Scratch files go under `.bench_work/` in the repository root and are removed
at exit, except the spans of a traced run, `.bench_work/spans-<workload>-<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "kgqa" / "__init__.py").is_file():
    sys.exit(f"benchmark: kgqa sources not found under {SRC}")
sys.path.insert(0, str(SRC))

from kgqa.gateway import CostLedger, cost_report, format_cost_report  # noqa: E402
from kgqa.pipeline import PipelineContext, run_all, run_stage  # noqa: E402

from spans import TEMPLATES, Recorder, dump, layer_metrics, percentile  # noqa: E402
from workloads import WORKLOADS, FixedLatencyProvider, build_inputs  # noqa: E402

ARTIFACTS = ("parsed.jsonl", "pruned.jsonl", "enriched.jsonl", "answers.jsonl", "report.json", "ledger.json")
CALLS_PER_QUESTION = 4
MIN_RUNS = 3  # plan runs of each kind, even when --seconds has already passed
# Set-up-only samples taken before each plan run, while they fit in a share of
# the previous plan run's time, so cheap set-ups are sampled across the whole run.
EXTRA_SETUPS = 9
EXTRA_SETUP_SHARE = 0.05


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--questions", type=int, help="override the workload's question count")
    parser.add_argument("--min-triples", type=int, help="override the workload's smallest graph")
    parser.add_argument("--max-triples", type=int, help="override the workload's largest graph")
    parser.add_argument("--prepare-cache", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def build(args: argparse.Namespace, cache_dir: Path):
    return build_inputs(
        WORKLOADS[args.workload],
        args.seed,
        str(cache_dir),
        n_questions=args.questions,
        min_triples=args.min_triples,
        max_triples=args.max_triples,
    )


def prepare_cache(args: argparse.Namespace, cache_dir: Path) -> None:
    """Fill the persisted embedding cache in a child process, so its memory is not counted here."""
    command = [sys.executable, str(Path(__file__).resolve()), "--prepare-cache", str(cache_dir)]
    for flag in ("workload", "seed", "seconds", "questions", "min_triples", "max_triples"):
        value = getattr(args, flag)
        if value is not None:
            command += [f"--{flag.replace('_', '-')}", str(value)]
    subprocess.run(command, check=True, timeout=170)


def plan_run(config, records, stage_dir: Path, latency_ms: float, recorder: Recorder | None):
    """One closed-loop plan run; returns (set-up seconds, plan seconds, context)."""

    def span(name: str, as_root: bool = False):
        return recorder.span(name, as_root) if recorder else contextlib.nullcontext()

    start = time.perf_counter()
    with span("pipeline.setup"):
        ctx = PipelineContext(config, stage_dir, records)
    setup_s = time.perf_counter() - start
    if latency_ms:
        ctx.gateway.provider = FixedLatencyProvider(ctx.gateway.provider, latency_ms / 1000.0)
    start = time.perf_counter()
    for stage in config.plan():
        with span(f"pipeline.{stage}", as_root=True):
            run_stage(stage, ctx)
    with span("pipeline.save_state"):
        ctx.save_state()
    return setup_s, time.perf_counter() - start, ctx


def setup_only(config, records, stage_dir: Path) -> float:
    """Seconds to construct a `PipelineContext`: templates, embedder, cache load, ledger load."""
    start = time.perf_counter()
    PipelineContext(config, stage_dir, records)
    return time.perf_counter() - start


def read_outputs(ctx, n_stages: int) -> dict:
    """Quality, cost and failure figures of a finished plan run, plus artifact hashes."""
    stage_dir = ctx.stage_dir
    n_questions = len(ctx.dataset)
    report = json.loads((stage_dir / "report.json").read_text(encoding="utf-8"))
    ledger = CostLedger.from_dict(json.loads((stage_dir / "ledger.json").read_text(encoding="utf-8")))
    costs = cost_report(ledger)
    failed_records = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in (stage_dir / "errors").glob("*.jsonl")
    )
    enriched = [json.loads(line) for line in (stage_dir / "enriched.jsonl").read_text(encoding="utf-8").splitlines()]
    answers = [json.loads(line) for line in (stage_dir / "answers.jsonl").read_text(encoding="utf-8").splitlines()]
    cache_file = Path(ctx.config.cache_dir) / "embeddings.json" if ctx.config.cache_dir else None
    return {
        "n": report["n"],
        "hits1": report["hits1"],
        "f1": report["f1"],
        "costs": costs,
        "attempts": ledger.totals().attempts,
        "calls_per_question": costs.total_calls / n_questions,
        "failed_share": failed_records / (n_questions * n_stages),
        "generated": sum(len(row["generated"]) for row in enriched),
        "structural_skipped": sum(row["warnings"]["structural_skipped"] for row in enriched),
        "feature_rejected": sum(row["warnings"]["feature_rejected"] for row in enriched),
        "used_triples_mean": sum(row["used_triples"] for row in answers) / len(answers) if answers else 0.0,
        "cache_file_mb": cache_file.stat().st_size / 2**20 if cache_file else 0.0,
        "cache_entries": len(ctx.cache),
        "hashes": tuple(hashlib.sha256((stage_dir / name).read_bytes()).hexdigest() for name in ARTIFACTS),
    }


def check(out: dict, n_questions: int) -> list[str]:
    problems = []
    if out["n"] != n_questions:
        problems.append(f"report covers {out['n']} of {n_questions} questions")
    if out["hits1"] != 1.0:
        problems.append(f"hits1 {out['hits1']} != 1.0")
    if out["calls_per_question"] != CALLS_PER_QUESTION:
        problems.append(f"calls_per_question {out['calls_per_question']} != {CALLS_PER_QUESTION}")
    if out["failed_share"] != 0:
        problems.append(f"failed_share {out['failed_share']} != 0")
    return problems


def summarize(values: list[float], what: str) -> tuple[float, str]:
    """Median with its sample count and quartiles, as (value, note)."""
    if len(values) < 2:
        return values[0], f"{len(values)} {what}"
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), f"median of {len(values)} {what}, q1 {q1:.6g}, q3 {q3:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.prepare_cache:
        records, config = build(args, Path(args.prepare_cache))
        run_all(config, records, Path(args.prepare_cache).parent / "prepare")
        return 0
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        if WORKLOADS[args.workload].warm_cache:
            prepare_cache(args, work / "cache")
        records, config = build(args, work / "cache")
        return measure(args, records, config, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, records, config, work: Path) -> int:
    latency_ms = WORKLOADS[args.workload].latency_ms
    n_questions = len(records)
    recorder = Recorder() if args.trace else None
    plan_s: dict[bool, list[float]] = {False: [], True: []}
    setup_s: list[float] = []
    outputs: list[dict] = []
    traced_requests = []
    failed = 0
    deadline = time.perf_counter() + args.seconds
    run = 0
    elapsed = 0.0
    while True:
        gc.collect()
        spent = 0.0
        for extra in range(EXTRA_SETUPS):
            if not setup_s or spent + setup_s[-1] > EXTRA_SETUP_SHARE * elapsed:
                break
            stage_dir = work / f"setup-{run}-{extra}"
            setup_s.append(setup_only(config, records, stage_dir))
            spent += setup_s[-1]
            shutil.rmtree(stage_dir)
        traced = recorder is not None and run % 2 == 1
        stage_dir = work / f"stage-{run}"
        if traced:
            recorder.request = run
            with recorder.installed():
                setup, elapsed, ctx = plan_run(config, records, stage_dir, latency_ms, recorder)
            traced_requests.append(recorder.take())
        else:
            setup, elapsed, ctx = plan_run(config, records, stage_dir, latency_ms, None)
        out = read_outputs(ctx, len(config.plan()))
        del ctx
        shutil.rmtree(stage_dir)
        problems = check(out, n_questions)
        if outputs and out["hashes"] != outputs[0]["hashes"]:
            problems.append("artifacts differ from the first plan run")
        failed += bool(problems)
        print(
            f"run {run}{' traced' if traced else ''}: setup {setup:.6f} s, plan {elapsed:.6f} s, "
            f"{n_questions / elapsed:.4f} q/s, hits1 {out['hits1']}, calls/q {out['calls_per_question']}, "
            f"failed_share {out['failed_share']}: {'FAIL ' + '; '.join(problems) if problems else 'ok'}"
        )
        plan_s[traced].append(elapsed)
        setup_s.append(setup)
        outputs.append(out)
        run += 1
        enough = all(len(plan_s[kind]) >= MIN_RUNS for kind in ((False, True) if recorder else (False,)))
        if enough and time.perf_counter() >= deadline:
            break

    print(format_cost_report(outputs[-1]["costs"], label=args.workload))
    if recorder:
        metrics = per_layer(traced_requests, plan_s, outputs[-1])
        spans_path = work.parent / f"spans-{args.workload}-{args.seed}.jsonl"
        dump(spans_path, traced_requests)
        print(f"spans: {spans_path}")
    else:
        metrics = end_to_end(plan_s[False], setup_s, outputs, n_questions)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value!r} {unit} ({note})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def end_to_end(plan_s: list[float], setup_s: list[float], outputs: list[dict], n_questions: int) -> dict:
    last = outputs[-1]
    costs = last["costs"]
    checked = f"last of {len(outputs)} checked plan runs"
    rate, rate_note = summarize([n_questions / s for s in plan_s], "plan runs")
    setup, setup_note = summarize(setup_s, "set-ups")
    return {
        "questions_per_s": (rate, "1/s", rate_note),
        "setup_s": (setup, "s", setup_note),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "1 sample, whole process"),
        "calls_per_question": (last["calls_per_question"], "count", checked),
        "tokens_per_question": (costs.mean_tokens, "tokens", checked),
        "cost_usd_per_question": (costs.mean_cost, "USD", checked),
        "hits1": (last["hits1"], "ratio", checked),
        "f1": (last["f1"], "ratio", checked),
    }


def per_layer(traced_requests, plan_s: dict[bool, list[float]], last: dict) -> dict:
    """Per-layer medians over the traced plan runs, plus counts read from the last run's artifacts."""
    per_run = [layer_metrics(spans, totals) for spans, totals in traced_requests]
    runs = f"median of {len(per_run)} traced plan runs"
    metrics = {name: (statistics.median(m[name][0] for m in per_run), unit, runs) for name, (_, unit) in per_run[0].items()}
    latencies_ms = [s.duration * 1000 for spans, _ in traced_requests for s in spans if s.name == "gateway.complete"]
    pooled = f"{len(latencies_ms)} calls"
    metrics["gateway.complete_p50_ms"] = (percentile(latencies_ms, 50), "ms", pooled)
    metrics["gateway.complete_p90_ms"] = (percentile(latencies_ms, 90), "ms", pooled)
    metrics["gateway.complete_samples"] = (len(latencies_ms), "count", pooled)
    artifacts = "from the last plan run's artifacts"
    metrics["gateway.attempts"] = (last["attempts"], "count", artifacts)
    for key in ("generated", "structural_skipped", "feature_rejected"):
        metrics[f"enrichment.{key}"] = (last[key], "count", artifacts)
    produced = last["generated"] + last["structural_skipped"] + last["feature_rejected"]
    metrics["enrichment.yield"] = (last["generated"] / produced if produced else 0.0, "ratio", f"base {produced} triples")
    metrics["answering.used_triples_mean"] = (last["used_triples_mean"], "count", artifacts)
    metrics["embedding.cache_file_mb"] = (last["cache_file_mb"], "MB", artifacts)
    metrics["embedding.cache_entries"] = (last["cache_entries"], "count", artifacts)
    untraced, traced = statistics.median(plan_s[False]), statistics.median(plan_s[True])
    metrics["trace.overhead_share"] = (
        (traced - untraced) / untraced, "ratio", f"medians of {len(plan_s[False])} untraced, {len(plan_s[True])} traced"
    )

    n_questions = last["costs"].n_questions
    print(f"{'template':<22}{'prompt tokens/q':>16}")
    for template in TEMPLATES:
        print(f"{template:<22}{metrics[f'gateway.prompt_tokens.{template}'][0] / n_questions:>16.1f}")
    print(f"{'completion (all)':<22}{metrics['gateway.completion_tokens'][0] / n_questions:>16.1f}")
    return dict(sorted(metrics.items()))


if __name__ == "__main__":
    sys.exit(main())
