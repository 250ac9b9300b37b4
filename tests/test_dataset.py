"""Benchmark corpus generation: determinism, golds, and file format."""

import json
import re

import pytest

from stepqa.agent import normalize_answer
from stepqa.environment import load_world_truth
from stepqa.dataset import (
    DatasetFormatError,
    QARecord,
    _candidates_for_world,
    default_phrasings,
    generate_dataset,
    load_records,
    save_records,
    truth_neighbors,
    truth_on_labels,
)
from stepqa.parsing import TemplateBackend
from stepqa.patterns import render
from stepqa.scene_graph import Layer
from stepqa.worldgen import random_world, random_world_data


@pytest.fixture(scope="module")
def worlds():
    return [random_world(i) for i in range(3)]


@pytest.fixture(scope="module")
def records(worlds):
    return generate_dataset(worlds, per_world=20, seed=7)


class TestGeneratedWorlds:
    def test_world_generation_is_deterministic(self):
        assert random_world_data(5) == random_world_data(5)
        assert random_world_data(5) != random_world_data(6)

    def test_generated_worlds_validate(self, worlds):
        # each node was checked as it entered the graph on load
        for world in worlds:
            assert world.graph.nodes_at(Layer.ROOM)
            assert world.graph.nodes_at(Layer.BIG_OBJECT)

    def test_close_only_lines_up_with_attribute_vocabularies(self, worlds):
        from stepqa.llm_planner import CLOSE_RANGE_ATTRIBUTES

        for world in worlds:
            for node in world.graph.nodes_at(Layer.SMALL_OBJECT):
                hidden = world.close_only.get(node.id, frozenset())
                for attr in node.attributes:
                    if attr in CLOSE_RANGE_ATTRIBUTES:
                        assert attr in hidden, (node.id, attr)


class TestGeneration:
    def test_deterministic_across_runs(self, worlds, records):
        again = generate_dataset([random_world(i) for i in range(3)], per_world=20, seed=7)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in records]

    def test_seed_changes_the_draw(self, worlds, records):
        other = generate_dataset(worlds, per_world=20, seed=8)
        assert [r.to_dict() for r in other] != [r.to_dict() for r in records]

    def test_per_world_cap_and_id_format(self, records):
        assert len(records) == 60
        assert records[0].id == "gen-0-q000"
        per_world = {}
        for r in records:
            per_world.setdefault(r.world_id, []).append(r)
        assert all(len(v) == 20 for v in per_world.values())

    def test_all_categories_represented(self, records):
        assert {r.category for r in records} == {
            "template",
            "multi_step",
            "small_object",
            "people",
        }

    def test_every_question_parses_back_to_its_gold_pattern(self, worlds, records):
        backends = {w.world_id: TemplateBackend(w.prior_graph()) for w in worlds}
        for r in records:
            pq = backends[r.world_id].parse(r.question)
            assert pq is not None, r.question
            assert render(pq.chain) == r.gold_pattern, r.question


class TestGoldAnswers:
    """Golds come from direct truth queries, never from running the agent."""

    def world_for(self, worlds, record):
        return next(w for w in worlds if w.world_id == record.world_id)

    def test_attribute_golds_match_the_truth(self, worlds, records):
        checked = 0
        for r in records:
            if "attribute" not in r.slots or "value" in r.slots:
                continue
            world = self.world_for(worlds, r)
            scope = world.graph
            layer = Layer.SMALL_OBJECT if "V4" in r.gold_pattern else Layer.BIG_OBJECT
            matches = scope.matches_under(world.entrance, r.slots["object"], layer)
            if "room" in r.slots:
                room = next(
                    n
                    for n in scope.nodes_at(Layer.ROOM)
                    if n.label == r.slots["room"]
                )
                matches = [m for m in matches if scope.room_of(m.id).id == room.id]
            values = {m.attributes.get(r.slots["attribute"]) for m in matches}
            values.discard(None)
            assert len(values) >= 1
            assert normalize_answer(r.gold_answer) in {normalize_answer(v) for v in values}
            checked += 1
        assert checked > 5

    def test_count_golds_match_a_recount(self, worlds, records):
        checked = 0
        for r in records:
            if not r.gold_pattern.startswith("count:"):
                continue
            world = self.world_for(worlds, r)
            supports = [
                n
                for n in world.graph.nodes_at(Layer.BIG_OBJECT)
                if n.label == r.slots["support"]
            ]
            if "room" in r.slots:
                supports = [
                    s for s in supports if world.graph.room_of(s.id).label == r.slots["room"]
                ]
            counts = {
                len(world.graph.matches_under(s.id, r.slots["object"], Layer.SMALL_OBJECT))
                for s in supports
            }
            assert counts == {int(r.gold_answer)}
            checked += 1
        assert checked >= 1

    def test_existence_golds_are_yes_or_no(self, records):
        seen = set()
        for r in records:
            if r.gold_pattern.startswith("exists:"):
                assert r.gold_answer in ("yes", "no")
                seen.add(r.gold_answer)
        assert seen  # the corpus carries at least one existence question

    def test_ambiguous_bindings_are_excluded(self, worlds, records):
        """Same label twice with different values never becomes a question."""
        for r in records:
            if "attribute" not in r.slots or "value" in r.slots or "support" in r.slots:
                continue
            world = self.world_for(worlds, r)
            layer = Layer.SMALL_OBJECT if "V4" in r.gold_pattern else Layer.BIG_OBJECT
            matches = world.graph.matches_under(world.entrance, r.slots["object"], layer)
            if "room" in r.slots:
                matches = [
                    m
                    for m in matches
                    if world.graph.room_of(m.id).label == r.slots["room"]
                ]
            values = {
                normalize_answer(m.attributes[r.slots["attribute"]])
                for m in matches
                if r.slots["attribute"] in m.attributes
            }
            assert values == {normalize_answer(r.gold_answer)}, (r.question, values)

    def test_a_room_label_on_two_floors_needs_both_rooms_to_agree(self):
        def study(floor, smalls):
            desk = {"id": f"{floor}.study.desk", "label": "desk", "position": [0, 1]}
            desk["small_objects"] = [{"label": label} for label in smalls]
            return {"id": floor, "rooms": [{"id": f"{floor}.study", "label": "study", "position": [0, 0], "big_objects": [desk]}]}

        world = load_world_truth({"floors": [study("f0", ["cup", "cup", "book"]), study("f1", ["cup", "book"])]})
        counts = {
            c["fields"]["object"]: c["gold"]
            for c in _candidates_for_world(world, simple_filter=True)
            if c["family"] == "count_small"
        }
        # two cups on one study's desk and one on the other's: "the study" could mean either
        assert counts == {"book": "1"}

    @pytest.mark.parametrize("source", ["random", "demo_house"])
    def test_keeping_simple_questions_adds_room_questions_for_unique_big_objects(self, source, demo_path):
        world = random_world(1) if source == "random" else load_world_truth(demo_path)

        def room_of_big(simple_filter):
            cands = _candidates_for_world(world, simple_filter=simple_filter)
            return {(c["fields"]["object"], c["gold"]) for c in cands if c["family"] == "room_of_big"}

        kept, filtered = room_of_big(False), room_of_big(True)
        assert filtered < kept
        for label, _ in kept - filtered:
            assert len(world.graph.find_nodes(label, Layer.BIG_OBJECT)) == 1, label


class TestTruthOracles:
    def test_on_labels_follow_placement(self, demo_truth):
        assert truth_on_labels(demo_truth, "f0.living.table") == ["book", "potted plant"]
        # held objects are not "on"
        assert "phone" not in truth_on_labels(demo_truth, "f0.living.sofa")

    def test_neighbors_read_the_edge_list(self, demo_truth):
        assert truth_neighbors(demo_truth, "f0.living.table") == ["sofa"]
        assert truth_neighbors(demo_truth, "f0.bedroom.bed") == ["wardrobe"]

    def test_matches_respect_aliases_and_plurals(self, demo_truth):
        got = demo_truth.graph.matches_under("f0", "couch", Layer.BIG_OBJECT)
        assert [n.id for n in got] == ["f0.living.sofa"]
        got = demo_truth.graph.matches_under("f0", "cups", Layer.SMALL_OBJECT)
        assert len(got) == 2

    def test_missing_label_matches_the_whole_layer(self, demo_truth):
        graph = demo_truth.graph
        got = graph.matches_under("f0.living", None, Layer.BIG_OBJECT)
        assert got == graph.children("f0.living")
        assert len(graph.matches_under("f0", None, Layer.SMALL_OBJECT)) == 14


class TestFiles:
    def test_save_load_round_trip(self, records, tmp_path):
        p = tmp_path / "data.jsonl"
        save_records(records, p)
        loaded = load_records(p)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    def test_serialization_is_byte_stable(self, records, tmp_path):
        p = tmp_path / "data.jsonl"
        save_records(records, p)
        first = p.read_bytes()
        save_records(load_records(p), p)
        assert p.read_bytes() == first

    def test_lines_are_sorted_key_json(self, records, tmp_path):
        p = tmp_path / "data.jsonl"
        save_records(records[:1], p)
        line = p.read_text().splitlines()[0]
        keys = list(json.loads(line).keys())
        assert keys == sorted(keys)

    def test_malformed_line_reports_its_number(self, records, tmp_path):
        p = tmp_path / "data.jsonl"
        good = json.dumps(records[0].to_dict(), sort_keys=True)
        p.write_text(good + "\nnot json\n")
        with pytest.raises(DatasetFormatError) as err:
            load_records(p)
        assert str(err.value).startswith(f"{p}: line 2: ")

    def test_a_line_that_is_not_utf8_is_a_format_error_naming_it(self, records, tmp_path):
        p = tmp_path / "data.jsonl"
        good = json.dumps(records[0].to_dict(), sort_keys=True)
        p.write_bytes(good.encode() + b"\n\n\xff\xfe\n")
        with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(p))}: line 3: not UTF-8 text$"):
            load_records(p)

    def test_missing_field_is_a_format_error(self):
        with pytest.raises(DatasetFormatError):
            QARecord.from_dict({"id": "x", "world_id": "w"})

    @pytest.mark.parametrize(
        "bad",
        [
            [1, 2],
            "text",
            None,
            {"slots": [1, 2]},
            {"slots": None},
            {"gold_answer": None},
            {"id": True},
            {"question": ["what"]},
            {"slots": {"room": None}},
            {"slots": {"room": {"name": "kitchen"}}},
        ],
    )
    def test_a_line_that_is_not_a_record_reports_its_number(self, records, tmp_path, bad):
        good = records[0].to_dict()
        if isinstance(bad, dict):
            bad = {**good, **bad}
        p = tmp_path / "data.jsonl"
        p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DatasetFormatError) as err:
            load_records(p)
        assert str(err.value).startswith(f"{p}: line 2: ")

    def test_null_is_rejected_by_name_and_numbers_read_as_text(self, records):
        good = records[0].to_dict()
        with pytest.raises(DatasetFormatError, match="^gold_answer must be a string or a number, not null$"):
            QARecord.from_dict({**good, "gold_answer": None})
        with pytest.raises(DatasetFormatError, match="^slot 'room' must be a string or a number, not null$"):
            QARecord.from_dict({**good, "slots": {"room": None}})
        record = QARecord.from_dict({**good, "gold_answer": 3, "slots": {"count": 2.5}})
        assert (record.gold_answer, record.slots) == ("3", {"count": "2.5"})


def test_default_phrasings_cover_the_families():
    phrasings = default_phrasings()
    assert set(phrasings) >= {
        "attribute_big",
        "room_of_big",
        "next_to",
        "attribute_small",
        "exists_small",
        "count_small",
        "on_support",
        "person_activity",
        "person_state",
    }
    assert all(v for v in phrasings.values())
