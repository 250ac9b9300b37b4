"""Question generation with verified gold answers.

Candidates are enumerated directly from world truth in a fixed order,
and every candidate is kept only if all entities matching its wording
agree on the answer. That exclusion rule is what makes the gold labels
trustworthy: a question like "what color is the desk" survives only
when every desk it could mean has the same color.

Gold answers come straight from truth-graph queries here; nothing in
this module runs the agent. Record selection and phrasing choices are
driven by a seeded generator keyed per world, so the same seed and
worlds always produce the same file, byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable

from .agent import normalize_answer
from .environment import WorldTruth
from .parsing import TemplateBackend, json_text
from .patterns import render
# perfbench/spans.py wraps normalize_label in this module, so the import must stay.
from .scene_graph import BIG_OBJECT, ROOM, SMALL_OBJECT, SceneNode, normalize_label, singularize
from .worldgen import SMALL_POOL_LABELS

_CATEGORY_ORDER = ("template", "multi_step", "small_object", "people")

_FAMILY_CATEGORY = {
    "attribute_big": "template",
    "attribute_big_scoped": "template",
    "room_of_big": "template",
    "next_to": "template",
    "attribute_small": "multi_step",
    "exists_small": "multi_step",
    "room_of_small": "small_object",
    "count_small": "small_object",
    "on_support": "small_object",
    "person_activity": "people",
    "person_state": "people",
}

_CONTAINER_RELATION = "in"

_RECORD_FIELDS = ("id", "world_id", "category", "question", "gold_answer", "gold_pattern")


class DatasetFormatError(ValueError):
    pass


@dataclass
class QARecord:
    id: str
    world_id: str
    category: str
    question: str
    gold_answer: str
    gold_pattern: str
    slots: dict[str, str]

    def to_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in (*_RECORD_FIELDS, "slots")}

    @classmethod
    def from_dict(cls, data: Any) -> QARecord:
        if not isinstance(data, dict):
            raise DatasetFormatError(f"record must be a JSON object, not {type(data).__name__}")
        slots = data.get("slots", {})
        if not isinstance(slots, dict):
            raise DatasetFormatError(f"slots must be a JSON object, not {type(slots).__name__}")
        texts = []
        for name in _RECORD_FIELDS:
            if name not in data:
                raise DatasetFormatError(f"record missing field {name!r}")
            value = data[name]
            texts.append(value if type(value) is str else json_text(value, name, DatasetFormatError))
        slots = {
            str(k): v if type(v) is str else json_text(v, f"slot {k!r}", DatasetFormatError) for k, v in slots.items()
        }
        return cls(*texts, slots)


def default_phrasings() -> dict[str, list[str]]:
    text = (resources.files(__package__) / "templates" / "default.json").read_text("utf-8")
    return json.loads(text)


# -- truth queries, the source of gold answers ------------------------------


def truth_on_labels(world: WorldTruth, big_id: str) -> list[str]:
    labels: list[str] = []
    for child in world.graph.children(big_id):
        if world.placement_relation(child.id) != "on":
            continue
        if child.label not in labels:
            labels.append(child.label)
    return labels


def truth_neighbors(world: WorldTruth, big_id: str) -> list[str]:
    graph = world.graph
    room = graph.room_of(big_id)
    labels: list[str] = []
    for sibling in graph.children(room.id):
        if sibling.id == big_id:
            continue
        if graph.spatial_relation(sibling.id, big_id) == "next-to":
            if sibling.label not in labels:
                labels.append(sibling.label)
    return labels


# -- candidate enumeration --------------------------------------------------


def _agree(values: Iterable[str | None]) -> str | None:
    seen = {v for v in values}
    if len(seen) == 1 and None not in seen:
        return next(iter(seen))
    return None


def _candidates_for_world(world: WorldTruth, simple_filter: bool) -> list[dict[str, Any]]:
    graph = world.graph
    cands: list[dict[str, Any]] = []
    seen: set[tuple] = set()

    def add(family: str, fields: dict[str, str], gold: str) -> None:
        key = (family, tuple(sorted(fields.items())))
        if key in seen:
            return
        seen.add(key)
        # Store gold in the same normal form episode answers use, so the
        # judge compares like with like ("The Hobbit" vs "hobbit").
        cands.append({"family": family, "fields": fields, "gold": normalize_answer(gold)})

    bigs_by_norm: dict[str, list[SceneNode]] = {}
    for big in graph.nodes_at(BIG_OBJECT):
        bigs_by_norm.setdefault(big.norm_label, []).append(big)
    smalls_by_norm: dict[str, list[SceneNode]] = {}
    for small in graph.nodes_at(SMALL_OBJECT):
        smalls_by_norm.setdefault(small.norm_label, []).append(small)

    pool_labels = list(SMALL_POOL_LABELS)

    for room in sorted(graph.nodes_at(ROOM), key=lambda n: n.id):
        for big in graph.children(room.id):
            bindings = bigs_by_norm[big.norm_label]
            # the question names the room by label, so every room with it counts
            in_room = [b for b in bindings if graph.room_of(b.id).norm_label == room.norm_label]

            for attr in sorted(big.attributes):
                if len(bindings) == 1:
                    add(
                        "attribute_big",
                        {"object": big.label, "attribute": attr},
                        big.attributes[attr],
                    )
                else:
                    gold = _agree(b.attributes.get(attr) for b in in_room)
                    if gold is not None:
                        add(
                            "attribute_big_scoped",
                            {"object": big.label, "attribute": attr, "room": room.label},
                            gold,
                        )

            room_gold = _agree(graph.room_of(b.id).label for b in bindings)
            if room_gold is not None:
                wanted = len(bindings) >= 2 if simple_filter else True
                if wanted:
                    add("room_of_big", {"object": big.label}, room_gold)

            neighbor_gold = _agree(
                ", ".join(truth_neighbors(world, b.id)) or None for b in in_room
            )
            if neighbor_gold:
                add("next_to", {"object": big.label, "room": room.label}, neighbor_gold)

            children = graph.children(big.id)
            relation = _CONTAINER_RELATION if any(
                world.placement_relation(c.id) == "in" for c in children
            ) else "on"
            group_labels = []
            for child in children:
                if child.norm_label not in group_labels:
                    group_labels.append(child.norm_label)

            for norm in group_labels:
                if norm == "person":
                    continue
                matching = [
                    c
                    for support in in_room
                    for c in graph.matches_under(support.id, norm, SMALL_OBJECT)
                    if c.norm_label != "person"
                ]
                if not matching:
                    continue
                sample = matching[0]
                base = {
                    "object": sample.label,
                    "support": big.label,
                    "room": room.label,
                    "relation": relation,
                }
                for attr in sorted(sample.attributes):
                    gold = _agree(c.attributes.get(attr) for c in matching)
                    if gold is not None:
                        add("attribute_small", {**base, "attribute": attr}, gold)
                if all(graph.matches_under(s.id, norm, SMALL_OBJECT) for s in in_room):
                    add("exists_small", dict(base), "yes")
                count_gold = _agree(
                    str(len(graph.matches_under(s.id, norm, SMALL_OBJECT))) for s in in_room
                )
                plural = sample.label + "s"
                if count_gold is not None and singularize(plural) == sample.label:
                    add("count_small", {**base, "plural": plural}, count_gold)

            for absent in pool_labels:
                if any(graph.matches_under(s.id, absent, SMALL_OBJECT) for s in in_room):
                    continue
                add(
                    "exists_small",
                    {
                        "object": absent,
                        "support": big.label,
                        "room": room.label,
                        "relation": relation,
                    },
                    "no",
                )
                break  # one negative per support is plenty

            if relation == "on":
                on_gold = _agree(
                    ", ".join(truth_on_labels(world, s.id)) or None for s in in_room
                )
                if on_gold:
                    add("on_support", {"support": big.label, "room": room.label}, on_gold)

            people = [c for c in children if c.norm_label == "person"]
            if people:
                matching_people = [
                    p
                    for support in in_room
                    for p in graph.matches_under(support.id, "person", SMALL_OBJECT)
                ]
                activity_gold = _agree(p.attributes.get("activity") for p in matching_people)
                if activity_gold is not None:
                    add(
                        "person_activity",
                        {"support": big.label, "room": room.label},
                        activity_gold,
                    )
                global_people = [
                    p
                    for s in bindings
                    for p in graph.matches_under(s.id, "person", SMALL_OBJECT)
                ]
                if global_people == matching_people:
                    state_gold = _agree(p.attributes.get("state") for p in matching_people)
                    if state_gold is not None:
                        add(
                            "person_state",
                            {"support": big.label},
                            "yes" if state_gold == "asleep" else "no",
                        )

    for norm, instances in sorted(smalls_by_norm.items()):
        if norm == "person":
            continue
        gold = _agree(graph.room_of(s.id).label for s in instances)
        if gold is not None:
            add("room_of_small", {"object": instances[0].label}, gold)

    return cands


# -- selection and phrasing -------------------------------------------------


def generate_dataset(
    worlds: Iterable[WorldTruth],
    per_world: int = 40,
    seed: int = 0,
    simple_filter: bool = True,
) -> list[QARecord]:
    """Sample a balanced, verified question set over the given worlds."""
    phrasings = default_phrasings()
    records: list[QARecord] = []

    for world in sorted(worlds, key=lambda w: w.world_id):
        rng = random.Random(f"{seed}:{world.world_id}")
        cands = _candidates_for_world(world, simple_filter)
        by_category: dict[str, list[dict[str, Any]]] = {c: [] for c in _CATEGORY_ORDER}
        for cand in cands:
            by_category[_FAMILY_CATEGORY[cand["family"]]].append(cand)
        for bucket in by_category.values():
            rng.shuffle(bucket)

        backend = TemplateBackend(world.prior_graph())
        picked = 0
        exhausted = False
        while picked < per_world and not exhausted:
            exhausted = True
            for category in _CATEGORY_ORDER:
                bucket = by_category[category]
                while bucket and picked < per_world:
                    cand = bucket.pop()
                    question = rng.choice(phrasings[cand["family"]]).format(**cand["fields"])
                    parsed = backend.parse(question)
                    if parsed is None:
                        continue
                    records.append(
                        QARecord(
                            id=f"{world.world_id}-q{picked:03d}",
                            world_id=world.world_id,
                            category=category,
                            question=question,
                            gold_answer=cand["gold"],
                            gold_pattern=render(parsed.chain),
                            slots=parsed.slots,
                        )
                    )
                    picked += 1
                    exhausted = False
                    break

    return records


def save_records(records: Iterable[QARecord], path: str | Path) -> None:
    lines = [json.dumps(r.to_dict(), sort_keys=True) for r in records]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_records(path: str | Path) -> list[QARecord]:
    """The records of a JSONL file read as UTF-8; DatasetFormatError names
    the file and the first line that is not a record."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object[: exc.start].count(b"\n") + 1
        raise DatasetFormatError(f"{path}: line {line}: not UTF-8 text") from exc
    out: list[QARecord] = []
    decode = json.JSONDecoder().raw_decode
    for number, line in enumerate(text.split("\n"), start=1):
        try:
            data, end = decode(line)
        except json.JSONDecodeError:
            if not line.strip():
                continue
            end = -1
        try:  # json.loads reads whitespace around the value, and words what is wrong
            out.append(QARecord.from_dict(data if end == len(line) else json.loads(line)))
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{path}: line {number}: {exc.msg}") from exc
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"{path}: line {number}: {exc}") from exc
    return out
