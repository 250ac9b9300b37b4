"""Command line front end.

Exit codes follow the episode outcome: 0 when a question was answered,
2 when the agent gave up, 1 for runtime failures and bad inputs, 64 for
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from .agent import ANSWERED, NOT_FOUND, AgentConfig, run_episode
from .dataset import DatasetFormatError, generate_dataset, load_records, save_records
from .environment import Environment, check_prior, load_world_truth
from .evaluation import MockJudge, format_report, run_benchmark, save_report
from .scene_graph import BIG_OBJECT, FLOOR, ROOM, SMALL_OBJECT, WorldFormatError
from .worldgen import random_world_data

EX_OK = 0
EX_ERROR = 1
EX_NOT_FOUND = 2
EX_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the usage code instead of 2."""

    def error(self, message: str) -> Any:
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    """The type of a count flag: a whole number of at least 1."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, not {text!r}")
    return int(text)


def _agent_config(args: argparse.Namespace) -> AgentConfig:
    return AgentConfig(room_level_only=args.room_level_only)


def _add_agent_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--room-level-only",
        action="store_true",
        help="never anchor below the room layer (ablation)",
    )


def _describe_plan(plan: dict[str, Any]) -> str:
    kind = plan["kind"]
    if kind == "move_to":
        return f"MoveTo {plan.get('goal_label') or plan.get('goal')}"
    if kind == "observe":
        content = plan.get("content") or ""
        return f"Observe {content}".rstrip()
    return f"Answer {plan.get('value')!r}"


def _write_error(exc: OSError, path: str) -> int:
    """Report an output path that cannot be written, without a traceback."""
    print(f"error: {exc.filename or path}: {exc.strerror or exc}", file=sys.stderr)
    return EX_ERROR


def _cmd_ask(args: argparse.Namespace) -> int:
    try:
        world = load_world_truth(args.world)
    except (WorldFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_ERROR
    env = Environment(world)
    result = run_episode(args.question, env, config=_agent_config(args))

    if result.trace.pattern:
        print(f"pattern: {result.trace.pattern}")
    for i, event in enumerate(result.trace.events, start=1):
        mark = "ok" if event.feedback else "failed"
        if event.secondary:
            mark = "ok (identity check)"
        print(f"{i:3d}. k={event.k} {_describe_plan(event.plan)}  [{event.plan.get('tool')}] {mark}")
    print(f"answer: {result.answer}")
    print(f"status: {result.status.value}  steps: {result.steps}  plans: {result.plans}")

    if args.trace:
        try:
            result.trace.write(args.trace)
        except OSError as exc:
            return _write_error(exc, args.trace)
        print(f"trace written to {args.trace}")

    if result.status is ANSWERED:
        return EX_OK
    if result.status is NOT_FOUND:
        return EX_NOT_FOUND
    return EX_ERROR


def _load_world_registry(path: Path) -> dict[str, Any]:
    """Every world under the path by id; two files with one id are refused.
    An error in one file names that file, as load_world_truth words it."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise WorldFormatError(f"no world files under {path}")
    registry = {}
    origin: dict[str, Path] = {}
    for f in files:
        world = load_world_truth(f)
        if world.world_id in origin:
            raise WorldFormatError(f"world id {world.world_id!r} is in both {origin[world.world_id]} and {f}")
        registry[world.world_id] = world
        origin[world.world_id] = f
    return registry


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        records = load_records(args.dataset)
        worlds = _load_world_registry(Path(args.worlds))
    except (WorldFormatError, DatasetFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_ERROR
    report = run_benchmark(
        records,
        worlds,
        config=_agent_config(args),
        judge=MockJudge(),
        parallel=args.parallel,
    )
    print(format_report(report))
    if args.report:
        try:
            save_report(report, args.report)
        except OSError as exc:
            return _write_error(exc, args.report)
        print(f"report written to {args.report}")
    return EX_OK


def _cmd_gen_dataset(args: argparse.Namespace) -> int:
    datas = [random_world_data(seed) for seed in range(1, args.worlds + 1)]
    worlds = [load_world_truth(data) for data in datas]
    if args.worlds_dir:
        out_dir = Path(args.worlds_dir)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for data in datas:
                target = out_dir / f"{data['id']}.json"
                target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        except OSError as exc:
            return _write_error(exc, args.worlds_dir)
    records = generate_dataset(
        worlds,
        per_world=args.per_world,
        seed=args.seed,
        simple_filter=not args.keep_simple,
    )
    try:
        save_records(records, args.out)
    except OSError as exc:
        return _write_error(exc, args.out)
    print(f"{len(records)} records over {len(worlds)} worlds written to {args.out}")
    return EX_OK


def _cmd_validate_world(args: argparse.Namespace) -> int:
    try:
        world = load_world_truth(args.path)
        if args.strict_prior:
            check_prior(world.graph, args.path)
    except (WorldFormatError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EX_ERROR
    floors, rooms, bigs, smalls = (
        len(world.graph.nodes_at(layer)) for layer in (FLOOR, ROOM, BIG_OBJECT, SMALL_OBJECT)
    )
    print(f"ok: {world.world_id} with {floors} floors, {rooms} rooms, {bigs} big objects, {smalls} small objects")
    return EX_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stepqa", description="Layered scene graph question answering.")
    sub = parser.add_subparsers(dest="command", required=True)

    ask = sub.add_parser("ask", parents=[], help="answer one question against a world")
    ask.add_argument("question", help="natural language question")
    ask.add_argument("--world", required=True, help="world truth JSON file")
    ask.add_argument("--trace", default=None, help="write the episode trace JSONL here")
    _add_agent_flags(ask)
    ask.set_defaults(func=_cmd_ask)

    bench = sub.add_parser("bench", help="run a dataset against its worlds")
    bench.add_argument("--dataset", required=True, help="dataset JSONL file")
    bench.add_argument("--worlds", required=True, help="world file or directory of world files")
    bench.add_argument(
        "--parallel",
        type=_positive_int,
        default=1,
        help="run episodes on this many threads; no faster than serial, as the loop is "
        "CPU-bound Python, but the report is the same for any count",
    )
    bench.add_argument("--report", default=None, help="write the JSON report here")
    _add_agent_flags(bench)
    bench.set_defaults(func=_cmd_bench)

    gen = sub.add_parser("gen-dataset", help="generate worlds and a question set")
    gen.add_argument("--out", required=True, help="dataset JSONL output path")
    gen.add_argument("--worlds-dir", default=None, help="also write world files here")
    gen.add_argument("--worlds", type=_positive_int, default=6, help="number of generated worlds")
    gen.add_argument("--per-world", type=_positive_int, default=40, help="questions per world")
    gen.add_argument("--seed", type=int, default=0, help="selection seed")
    gen.add_argument(
        "--keep-simple",
        action="store_true",
        help="keep questions the prior graph alone can answer",
    )
    gen.set_defaults(func=_cmd_gen_dataset)

    validate = sub.add_parser("validate-world", help="check a world file")
    validate.add_argument("path", help="world JSON file")
    validate.add_argument(
        "--strict-prior",
        action="store_true",
        help="require a prior file: no small objects, no attributes",
    )
    validate.set_defaults(func=_cmd_validate_world)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
