"""Command-line front end: solve programs, run the story pipeline, run benchmarks.

Exit codes: 0 on success, 1 for usage errors, 2 for runtime failures.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .bench import EmptyInputError, SchemaError, evaluate_case, load_dataset, report
from .gateway import GatewayConfig, build_backend
from .ground import GroundingError, GroundTimeout, ground_program
from .pipeline import PipelineOptions, PipelineOutcome, run_pipeline
from .syntax import AspSyntaxError, parse_program, render_program
from .solve import SolveTimeout, enumerate_models, render_models


class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="puzzle2asp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="enumerate stable models of a program file")
    p_solve.add_argument("program", help="path to a .lp program")
    p_solve.add_argument("--limit", type=int, default=2, help="max models (0 = all)")
    p_solve.add_argument("--budget", type=float, default=10.0, help="time budget in seconds")

    def add_backend_options(p):
        p.add_argument(
            "--backend", choices=("live", "replay", "scripted"), default="replay",
            help="completion backend",
        )
        p.add_argument("--cassette", help="cassette file for replay/record")
        p.add_argument("--record", action="store_true", help="record new completions")
        p.add_argument("--script", help="JSON file of scripted responses")
        p.add_argument("--config", help="gateway config JSON for the live backend")
        p.add_argument("--model", help="model name override")
        p.add_argument("--no-paraphrase", action="store_true")
        p.add_argument("--no-format", action="store_true")
        p.add_argument(
            "--original-constraints", action="store_true",
            help="use the unamended constraint-rules template",
        )

    p_pipe = sub.add_parser("pipeline", help="turn one story into a program")
    p_pipe.add_argument("story", help="path to a story text file")
    p_pipe.add_argument("--constants", help="JSON file of given constants {category: [values]}")
    p_pipe.add_argument("--trace", help="write the full pipeline trace to this JSON file")
    add_backend_options(p_pipe)

    p_bench = sub.add_parser("bench", help="evaluate a JSONL dataset")
    p_bench.add_argument("dataset", help="path to a JSONL dataset")
    p_bench.add_argument("--split", choices=("train", "test"), help="restrict to one split")
    p_bench.add_argument("--out", help="write the JSON report here")
    p_bench.add_argument("--workers", type=int, default=1, help="concurrent case evaluations")
    p_bench.add_argument("--budget", type=float, default=10.0, help="ground+solve budget per case")
    p_bench.add_argument("--trace-dir", help="write one trace JSON per case into this directory")
    add_backend_options(p_bench)

    return parser


def _pipeline_options(args) -> PipelineOptions:
    options = PipelineOptions(
        enable_formatting=not args.no_format,
        enable_paraphrase=not args.no_paraphrase,
        use_original_constraint_template=args.original_constraints,
    )
    if args.model:
        options.model = args.model
    return options


def _backend(args, scripted_responses=None):
    live_config = args.backend == "live" and args.config
    config = GatewayConfig.from_file(args.config) if live_config else None
    return build_backend(
        args.backend,
        cassette_path=args.cassette,
        record=args.record,
        scripted_responses=scripted_responses,
        config=config,
    )


def _load_script(path: str | None):
    return None if path is None else json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    text = Path(args.program).read_text(encoding="utf-8")
    program = parse_program(text)
    deadline = time.monotonic() + args.budget
    ground = ground_program(program, deadline=deadline)
    limit = None if args.limit == 0 else args.limit
    result = enumerate_models(ground, limit=limit, budget=args.budget, deadline=deadline)
    print(render_models(result))
    return 0


def _cmd_pipeline(args) -> int:
    story = Path(args.story).read_text(encoding="utf-8")
    given = None
    if args.constants:
        raw = _load_script(args.constants)
        if not isinstance(raw, dict) or not all(
            isinstance(values, list) and values for values in raw.values()
        ):
            raise ValueError(
                "--constants must be a JSON object mapping each category to a non-empty list"
            )
        given = tuple((name, tuple(str(v) for v in values)) for name, values in raw.items())
    responses = _load_script(args.script)
    if responses is not None and not isinstance(responses, list):
        raise ValueError("--script for the pipeline command must be a JSON array")
    options = _pipeline_options(args)
    if given is not None:
        options.use_given_constants = True
    backend = _backend(args, responses)
    trace = run_pipeline(story, given, options, backend)
    if args.trace:
        Path(args.trace).write_text(
            json.dumps(trace.to_json(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    if trace.outcome.kind != PipelineOutcome.ASSEMBLED:
        stage = trace.outcome.stage.value if trace.outcome.stage else "?"
        print(f"pipeline failed: {trace.outcome.kind} at {stage}", file=sys.stderr)
        return 2
    print(render_program(trace.assembled_program))
    return 0


def _cmd_bench(args) -> int:
    cases = load_dataset(args.dataset)
    if args.split:
        cases = [c for c in cases if c.split == args.split]
        if not cases:
            print(f"no cases in split {args.split!r}", file=sys.stderr)
            return 2
    scripts = _load_script(args.script)
    if scripts is not None and not isinstance(scripts, dict):
        raise ValueError("--script for the bench command must be a JSON object of id -> responses")
    if args.backend == "scripted":
        if args.record:
            # One shared cassette would desync the per-case scripted queues.
            raise ValueError("bench cannot --record the scripted backend: each case has its own script")
        backends = [
            _backend(args, None if scripts is None else list(scripts.get(case.id, [])))
            for case in cases
        ]
    else:
        backends = [_backend(args)] * len(cases)
    options = _pipeline_options(args)

    def run_one(case, backend):
        return evaluate_case(case, backend, options, budget=args.budget)

    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(run_one, cases, backends))
    else:
        results = list(map(run_one, cases, backends))

    rep = report(results)
    if args.trace_dir:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for result in results:
            payload = result.trace.to_json()
            payload["outcome_label"] = result.outcome.label()
            (trace_dir / f"{result.case_id}.json").write_text(
                json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
            )
    if args.out:
        Path(args.out).write_text(
            json.dumps(rep.to_json(), indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
        )
    print(rep.render_table())
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        return _cmd_bench(args)
    except (
        OSError,
        ValueError,
        json.JSONDecodeError,
        AspSyntaxError,
        GroundingError,
        GroundTimeout,
        SolveTimeout,
        SchemaError,
        EmptyInputError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
