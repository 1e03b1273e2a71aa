"""Command-line interface exposing every pipeline stage and diagnostic."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .gateway import CostLedger, cost_report, format_cost_report
from .pipeline import (
    ABLATIONS,
    STAGE_TABLE,
    VARIANT_STAGES,
    DatasetRecord,
    PipelineContext,
    RunConfig,
    StageError,
    load_dataset,
    quality_metrics,
    run_all,
    run_stage,
    sweep_k,
)


def _add_inputs(parser: argparse.ArgumentParser) -> None:
    """The inputs every command takes."""
    parser.add_argument("--config", type=Path, help="JSON config file (RunConfig fields)")
    parser.add_argument("--dataset", type=Path, help="dataset JSONL path")
    parser.add_argument("--stage-dir", type=Path, default=Path("stage"), help="artifact directory")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of the commands that run stages; the read-only commands reject them."""
    parser.add_argument("--top-k", type=int, help="override pruning k")
    parser.add_argument("--temperature", type=float, help="override generation temperature")
    parser.add_argument("--ablation", choices=ABLATIONS, help="override stage plan")
    parser.add_argument("--workers", type=int, help="override per-stage worker count")
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse per-record completion markers (default on)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kgqa", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true", help="log to stderr at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parsers = [sub.add_parser(stage, help=f"run the {stage} stage") for stage in STAGE_TABLE]
    run_parsers.append(sub.add_parser("run", help="run the full stage plan end to end"))
    for run_parser in run_parsers:
        _add_inputs(run_parser)
        _add_run_flags(run_parser)

    sweep_parser = sub.add_parser("sweep-k", help="answer coverage / token / cost per candidate k")
    _add_inputs(sweep_parser)
    sweep_parser.add_argument("--ks", default="10,50,100,300", help="comma-separated k values")
    sweep_parser.add_argument("--out", type=Path, help="CSV output path (default stage dir/sweep_k.csv)")

    metrics_parser = sub.add_parser("metrics", help="graph quality metrics per variant")
    _add_inputs(metrics_parser)
    metrics_parser.add_argument("--variants", default="vanilla,pruned,enriched", help="comma-separated variants")
    metrics_parser.add_argument("--out-dir", type=Path, help="output directory (default stage dir/quality)")
    metrics_parser.add_argument("--dumps", action="store_true", help="also write one embeddings_<dataset>_<variant>.csv per variant")

    cost_parser = sub.add_parser("cost-report", help="print the ledger in the efficiency-table layout")
    _add_inputs(cost_parser)

    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults) with the flag overrides, validated as a whole."""
    overrides = {
        name: getattr(args, name)
        for name in ("top_k", "temperature", "ablation", "workers")
        if getattr(args, name, None) is not None
    }
    try:
        config = RunConfig.from_file(args.config) if args.config else RunConfig()
        return dataclasses.replace(config, **overrides)
    except (OSError, ValueError) as exc:
        raise StageError(f"invalid config: {exc}") from exc


def _records(args: argparse.Namespace) -> list[DatasetRecord]:
    if not args.dataset:
        raise StageError("--dataset is required for this command")
    try:
        return load_dataset(args.dataset)
    except (OSError, ValueError) as exc:  # a missing or unreadable file, or a line that breaks the schema
        raise StageError(f"invalid dataset: {exc}") from exc


def _context(args: argparse.Namespace, config: RunConfig) -> PipelineContext:
    return PipelineContext(config, args.stage_dir, _records(args))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    # The run log goes to the stage dir; `delay` opens it at the first message, so a
    # command rejected before the stage dir exists creates none.
    run_log = logging.FileHandler(args.stage_dir / "run.log", encoding="utf-8", delay=True)
    run_log.setFormatter(logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s"))
    pkg_logger = logging.getLogger("kgqa")
    level = pkg_logger.level
    pkg_logger.addHandler(run_log)
    pkg_logger.setLevel(logging.INFO)
    try:
        config = _load_config(args)
        if args.command in STAGE_TABLE:
            ctx = _context(args, config)
            artifact = run_stage(args.command, ctx, resume=args.resume)
            ctx.save_state()
            print(f"{artifact.stage}: {artifact.processed} processed, {artifact.failed} failed -> {artifact.path}")
            if artifact.failed and not artifact.processed:
                print(f"error: stage {artifact.stage} failed every record it ran", file=sys.stderr)
                return 1
        elif args.command == "run":
            records = _records(args)
            report, ledger = run_all(config, records, args.stage_dir, resume=args.resume)
            summary = {key: value for key, value in report.to_dict().items() if key not in ("per_question", "notes")}
            print(json.dumps({**summary, "calls": ledger.total_calls()}, indent=2))
            if records and report.n == 0:
                print("error: the report covers no record; see the errors directory", file=sys.stderr)
                return 1
        elif args.command == "sweep-k":
            ks = [int(k) if k.strip().isdecimal() else 0 for k in str(args.ks).split(",") if k.strip()]
            if not ks or min(ks) < 1:
                raise StageError(f"--ks must be comma-separated integers >= 1, not {args.ks!r}")
            ctx = _context(args, config)
            out = args.out or (ctx.stage_dir / "sweep_k.csv")
            rows = sweep_k(ctx, ks, out)
            ctx.save_cache()
            for row in rows:
                print(f"k={row['k']:>5}  coverage={row['coverage']:.4f}  tokens={row['tokens']}  cost={row['cost']:.6g}")
            print(f"wrote {out}")
        elif args.command == "metrics":
            variants = [v.strip() for v in str(args.variants).split(",") if v.strip()]
            if not set(variants) <= set(VARIANT_STAGES):
                raise StageError(f"--variants must be comma-separated names from {tuple(VARIANT_STAGES)}, not {args.variants!r}")
            ctx = _context(args, config)
            out_dir = args.out_dir or (ctx.stage_dir / "quality")
            reports = quality_metrics(ctx, variants, out_dir, dataset_name=args.dataset.stem, with_dumps=args.dumps)
            ctx.save_cache()
            for report in reports:
                print(
                    f"{report.variant:<10} relevance={report.relevance.mean:.4f}  "
                    f"richness={report.semantic_richness.mean:.4f}  redundancy={report.redundancy.mean:.4f}"
                )
            print(f"wrote {out_dir}")
        elif args.command == "cost-report":
            if args.dataset:
                _records(args)  # checked as every command checks it, though the report reads only the ledger
            ledger_path = Path(args.stage_dir) / "ledger.json"
            if not ledger_path.exists():
                raise StageError(f"no ledger at {ledger_path}; run the pipeline first")
            try:
                ledger = CostLedger.from_dict(json.loads(ledger_path.read_text(encoding="utf-8")))
            except (OSError, ValueError, TypeError, AttributeError) as exc:  # not JSON, or not the layout run writes
                raise StageError(f"invalid ledger {ledger_path}: {exc}") from exc
            print(format_cost_report(cost_report(ledger, config.price_table()), label=config.llm.get("kind", "run")))
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        pkg_logger.removeHandler(run_log)
        pkg_logger.setLevel(level)
        run_log.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
