"""Answer scoring and benchmark running.

Answers are graded on a three-rung ladder: 5 for an exact match after
light normalization, 3 when one answer's tokens are a subset of the
other's, 1 otherwise. The aggregate rescales rung sums to a 0..100
range. Summing integers before the one division keeps the aggregate
exact, so shuffling the episode order can never change the number.

The benchmark runner gives every episode its own environment instance
and sorts result rows by record id, which makes the report identical
whether episodes ran on one worker or eight.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Iterable

from .agent import AgentConfig, run_episode
from .dataset import QARecord
from .environment import Environment, WorldTruth
from .llm_client import ChatClient, SchemaError, ask

VALID_SCORES = (1, 3, 5)


def judge_normalize(text: str) -> str:
    """The judge's view of an answer: case and spacing folded, nothing else."""
    return " ".join(str(text).strip().lower().split())


class MockJudge:
    """Deterministic grader used for tests and offline benchmarks."""

    def score(self, question: str, gold: str, answer: str) -> int:
        g = judge_normalize(gold)
        a = judge_normalize(answer)
        if g == a:
            return 5
        g_tokens, a_tokens = set(g.split()), set(a.split())
        if g_tokens and a_tokens and (g_tokens <= a_tokens or a_tokens <= g_tokens):
            return 3
        return 1


class ChatJudge:
    """Grader backed by a chat model; replies must be a single rung digit."""

    def __init__(self, client: ChatClient) -> None:
        self.client = client

    def score(self, question: str, gold: str, answer: str) -> int:
        user = f"Question: {question}\nReference answer: {gold}\nCandidate answer: {answer}"
        return ask(self.client, "judge", user, _rung)


def _rung(reply: str) -> int:
    m = re.search(r"\b([135])\b", reply)
    if m is None:
        raise SchemaError(f"judge reply has no valid rung: {reply!r}")
    return int(m.group(1))


def llm_match(scores: Iterable[int]) -> float:
    """Rescale rung scores to 0..100.

    The sum of (rung - 1) is an integer, so the single division at the
    end is the only floating point step and the result is independent
    of score order.
    """
    scores = list(scores)
    for s in scores:
        if s not in VALID_SCORES:
            raise ValueError(f"score {s!r} is not one of {VALID_SCORES}")
    if not scores:
        raise ValueError("cannot aggregate zero scores")
    return sum(s - 1 for s in scores) * 25 / len(scores)


# -- benchmark --------------------------------------------------------------


def _run_record(
    record: QARecord,
    worlds: dict[str, WorldTruth],
    config: AgentConfig | None,
    judge: Any,
) -> dict[str, Any]:
    row = {
        "id": record.id,
        "category": record.category,
        "question": record.question,
        "gold": record.gold_answer,
    }
    world = worlds.get(record.world_id)
    if world is None:
        return {**row, "answer": None, "status": "missing_world", "steps": 0, "plans": 0, "score": 1}
    result = run_episode(record.question, Environment(world), config=config)
    return {
        **row,
        "answer": result.answer,
        "status": result.status.value,
        "steps": result.steps,
        "plans": result.plans,
        "score": judge.score(record.question, record.gold_answer, result.answer),
    }


def _block(rows: list[dict[str, Any]]) -> dict[str, Any]:
    n = len(rows)
    scores = [r["score"] for r in rows]
    return {
        "n": n,
        "score": llm_match(scores) if n else 0.0,
        "mean_steps": round(sum(r["steps"] for r in rows) / n, 3) if n else 0.0,
        "answered": sum(1 for r in rows if r["status"] == "answered"),
        "not_found": sum(1 for r in rows if r["status"] == "not_found"),
        "failed": sum(1 for r in rows if r["status"] in ("failed", "missing_world")),
    }


def run_benchmark(
    records: Iterable[QARecord],
    worlds: dict[str, WorldTruth],
    config: AgentConfig | None = None,
    judge: Any | None = None,
    parallel: int = 1,
) -> dict[str, Any]:
    """Run every record to an answer and grade it.

    Records whose world id is not in the registry are kept in the report
    with status missing_world and the bottom rung, so a broken pairing
    is visible instead of silently shrinking the denominator.

    ``parallel`` runs records on that many threads. The episode loop is
    CPU-bound Python, so this is no faster than serial; it shows that the
    report does not depend on the worker count.
    """
    judge = judge or MockJudge()
    records = list(records)
    if parallel <= 1:
        rows = [_run_record(r, worlds, config, judge) for r in records]
    else:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            rows = list(
                pool.map(lambda r: _run_record(r, worlds, config, judge), records)
            )
    rows.sort(key=lambda r: r["id"])

    categories = sorted({r["category"] for r in rows})
    return {
        "overall": _block(rows),
        "categories": {
            c: _block([r for r in rows if r["category"] == c]) for c in categories
        },
        "rows": rows,
    }


def format_report(report: dict[str, Any]) -> str:
    lines = []
    overall = report["overall"]
    lines.append(
        f"overall  n={overall['n']}  score={overall['score']:.1f}  "
        f"mean_steps={overall['mean_steps']:.2f}  "
        f"answered={overall['answered']}  not_found={overall['not_found']}  "
        f"failed={overall['failed']}"
    )
    for name, block in report["categories"].items():
        lines.append(
            f"  {name:<14} n={block['n']:<4} score={block['score']:.1f}  "
            f"mean_steps={block['mean_steps']:.2f}"
        )
    return "\n".join(lines)


def save_report(report: dict[str, Any], path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
