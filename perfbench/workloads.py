"""Workload definitions, input generation and the ``stepqa bench`` load path.

Every workload has a fixed set of generated worlds and questions, so its
report is the same for every seed and can be pinned by digest. The seed
permutes the order of the records in the dataset file, which changes the
order episodes run in (and so any state a later change might share
between episodes) but never the report, whose rows are sorted by id.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from stepqa import dataset, environment, evaluation, worldgen
from stepqa.agent import AgentConfig

DATASET_FILE = "dataset.jsonl"
WORLDS_DIR = "worlds"
# question selection seed of the ROADMAP's pinned dataset
# (stepqa gen-dataset --worlds 20 --per-world 40 --seed 3)
SELECTION_SEED = 3


@dataclass(frozen=True)
class Workload:
    """Generated inputs, agent settings and the report they must produce.

    ``report_sha256`` is the digest of the report file for these inputs.
    """

    name: str
    world_seeds: range
    per_world: int
    report_sha256: str
    world_kwargs: dict[str, Any] = field(default_factory=dict)
    room_level_only: bool = False

    def config(self) -> AgentConfig:
        return AgentConfig(room_level_only=self.room_level_only)


_PINNED = dict(world_seeds=range(1, 21), per_world=40)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "pinned",
            **_PINNED,
            report_sha256="cc0748a39a0fbef0ed055448025773078a6d240178bb99a61f8b519b71e5c929",
        ),
        Workload(
            "cluttered",
            world_seeds=range(1, 9),
            per_world=100,
            world_kwargs=dict(rooms=6, big_range=(4, 5), small_range=(20, 30)),
            report_sha256="40c058260754b8d8a2bac392521d83008f645da0681beb59ed2f0d164c6b818f",
        ),
        Workload(
            "room_level",
            **_PINNED,
            room_level_only=True,
            report_sha256="55983105bd35a5e0328c1bb6546b65ebdfda646c76862512d5a5c9cf0ea3c271",
        ),
    )
}


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> None:
    """Write the workload's world files and its seed-ordered dataset file."""
    worlds_dir = out_dir / WORLDS_DIR
    worlds_dir.mkdir(parents=True, exist_ok=True)
    worlds = []
    for world_seed in workload.world_seeds:
        data = worldgen.random_world_data(world_seed, **workload.world_kwargs)
        (worlds_dir / f"{data['id']}.json").write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        worlds.append(environment.load_world_truth(data))
    records = dataset.generate_dataset(
        worlds, per_world=workload.per_world, seed=SELECTION_SEED
    )
    random.Random(seed).shuffle(records)
    dataset.save_records(records, out_dir / DATASET_FILE)


def load_inputs(in_dir: Path) -> tuple[list[Any], dict[str, Any]]:
    """Load the dataset and every world file the way ``stepqa bench`` does.

    The loader is looked up on its module at call time, so a tracer that
    wraps ``stepqa.environment.load_world_truth`` sees every call.
    """
    records = dataset.load_records(in_dir / DATASET_FILE)
    worlds = {}
    for path in sorted((in_dir / WORLDS_DIR).glob("*.json")):
        world = environment.load_world_truth(path)
        worlds[world.world_id] = world
    return records, worlds


def run_pass(
    workload: Workload, records: list[Any], worlds: dict[str, Any], parallel: int = 1
) -> Any:
    return evaluation.run_benchmark(
        records,
        worlds,
        config=workload.config(),
        judge=evaluation.MockJudge(),
        parallel=parallel,
    )


def report_digest(report: dict[str, Any], path: Path) -> str:
    """SHA-256 of the report file ``stepqa bench --report`` would write."""
    evaluation.save_report(report, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()
