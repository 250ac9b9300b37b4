"""Episode loop end to end on the bundled house."""

import json
import pathlib

import pytest

from stepqa import agent as agent_module, prompts
from stepqa.agent import (
    AgentConfig,
    EpisodeStatus,
    check_feedback,
    extract_answer,
    ingest_observation,
    normalize_answer,
    run_episode,
    secondary_perception,
)
from stepqa.environment import Environment, load_world_truth
from stepqa.llm_planner import ChatPlanner, LookupPlanner
from stepqa.parsing import TemplateBackend, parse_question
from stepqa.patterns import parse_pattern_string, render
from stepqa.rules import Plan, PlanKind
from stepqa.scene_graph import Layer, SceneGraph
from stepqa.worldgen import random_world_data


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
BOOK_QUESTION = "What is the title of the book on the coffee table in the living room?"


def ask(truth, question, **cfg):
    config = AgentConfig(**cfg) if cfg else None
    return run_episode(question, Environment(truth), config=config)


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "raw,clean",
        [
            ("The Red Book.", "red book"),
            ("  A   cup ", "cup"),
            ("WAR AND PEACE!", "war and peace"),
            ("an apple", "apple"),
            ("the the end", "the end"),  # only one article comes off
            ("no", "no"),
        ],
    )
    def test_cases(self, raw, clean):
        assert normalize_answer(raw) == clean


def _room(room_id, label, x, supports):
    return {"id": room_id, "label": label, "position": [x, 0.0], "big_objects": supports}


def _support(node_id, label, x, cups):
    return {
        "id": node_id,
        "label": label,
        "position": [x, 1.0],
        "small_objects": [{"label": "cup"} for _ in range(cups)],
    }


def _cup_world(*rooms):
    return load_world_truth(
        {"id": "cups", "entrance": "f0", "floors": [{"id": "f0", "label": "ground floor", "rooms": list(rooms)}]}
    )


class TestEpisodes:
    def test_close_attribute_walks_to_the_object(self, demo_truth):
        r = ask(demo_truth, "What is the title of the book on the coffee table in the living room?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "war and peace"
        assert (r.steps, r.plans) == (3, 4)

    def test_remote_attribute_reads_from_the_doorway(self, demo_truth):
        r = ask(demo_truth, "What color is the sofa in the living room?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "blue"
        assert (r.steps, r.plans) == (1, 2)

    def test_room_query_answers_from_prior_knowledge(self, demo_truth):
        r = ask(demo_truth, "Which room is the bed in?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "bedroom"
        assert r.steps == 0

    def test_room_query_for_undiscovered_object_sweeps(self, demo_truth):
        r = ask(demo_truth, "Which room is the phone in?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "living room"
        assert r.steps > 1  # had to go look

    @pytest.mark.parametrize(
        "question,plans",
        [
            ("Where is the bottle?", 12),
            ("Where is the laptop?", 11),
            ("What room is the bottle located in?", 12),
        ],
    )
    def test_sweep_goes_on_to_the_other_floors(self, question, plans):
        # the kitchen of generated world 5 moved to a floor of its own
        data = random_world_data(5)
        kitchen = data["floors"][0]["rooms"].pop()
        assert (kitchen["id"], kitchen["label"]) == ("f0.r3", "kitchen")
        data["floors"].append({"id": "f1", "label": "first floor", "rooms": [kitchen]})
        inside = {kitchen["id"], *(big["id"] for big in kitchen["big_objects"])}
        data["spatial_edges"] = [e for e in data["spatial_edges"] if not {e["a"], e["b"]} & inside]
        r = ask(load_world_truth(data), question)
        assert (r.status, r.answer, r.plans) == (EpisodeStatus.ANSWERED, "kitchen", plans)

    def test_count_tally(self, demo_truth):
        r = ask(demo_truth, "How many cups are on the dining table in the kitchen?")
        assert r.answer == "2"
        assert r.status is EpisodeStatus.ANSWERED

    def test_count_reads_the_support_that_was_observed(self):
        # two tables; the nearer one (x=1) is visited and holds 3 cups, the
        # other (x=30) sorts first by id and holds 1
        world = _cup_world(
            _room("f0.hall", "hall", 0.0, []),
            _room("f0.a", "kitchen", 30.0, [_support("f0.a.t", "table", 30.0, 1)]),
            _room("f0.b", "dining room", 1.0, [_support("f0.b.t", "table", 1.0, 3)]),
        )
        r = ask(world, "How many cups are on the table?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "3"

    def test_room_count_covers_every_support_in_the_room(self):
        world = _cup_world(
            _room(
                "f0.k",
                "kitchen",
                0.0,
                [_support("f0.k.t", "table", 0.0, 2), _support("f0.k.c", "counter", 3.0, 1)],
            ),
        )
        r = ask(world, "How many cups are in the kitchen?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "3"

    @pytest.mark.parametrize(
        "question,answer,support",
        [
            ("How many cups are on the table next to the refrigerator?", "2", "f0.kitchen.table"),
            ("Is there a bottle in the refrigerator next to the table?", "yes", "f0.kitchen.fridge"),
        ],
    )
    def test_a_relational_tally_counts_under_the_support_it_observed(
        self, demo_truth, question, answer, support
    ):
        # "next to" names a sibling of the support, not something inside it
        r = ask(demo_truth, question)
        assert (r.status, r.answer) == (EpisodeStatus.ANSWERED, answer)
        final = r.trace.events[-1]
        assert final.action.kind is PlanKind.OBSERVE
        assert final.action.focus_id == final.obs.anchor_id == support

    def test_a_tally_focused_on_its_own_target_counts_under_the_room(self, demo_truth):
        # a room-level look focuses on the chain's object once the graph holds one
        graph = demo_truth.prior_graph()
        book = graph.add_observed_node("f0.living.table", "book")
        question = "How many books are on the coffee table in the living room?"
        parsed = parse_question(question, [TemplateBackend(graph)])
        look = Plan(kind=PlanKind.OBSERVE, focus_id=book.id, advance_to=len(parsed.chain.steps))
        obs = demo_truth.view("f0.living", book.id)
        assert extract_answer(parsed.chain, parsed.slots, look, obs, graph) == "1"

    def test_a_tally_without_a_support_counts_under_the_planners_scope(self, demo_truth):
        # a sweep over a floor ends looking from the last support it visited
        graph = demo_truth.prior_graph()
        for support in ("f0.kitchen.table", "f0.living.table"):
            ingest_observation(graph, demo_truth.view(support))
        look = Plan(kind=PlanKind.OBSERVE, focus_id="f0.living.table", advance_to=1)
        obs = demo_truth.view("f0.living.table")
        assert extract_answer(parse_pattern_string("count: V4[cup]"), {}, look, obs, graph) == "2"

    def test_a_relational_count_reads_no_other_support(self, demo_path):
        # a third cup, in the refrigerator next to the table
        data = json.loads(demo_path.read_text())
        kitchen = next(r for r in data["floors"][0]["rooms"] if r["id"] == "f0.kitchen")
        fridge = next(b for b in kitchen["big_objects"] if b["id"] == "f0.kitchen.fridge")
        fridge["small_objects"].append({"label": "cup", "relation": "in"})
        r = ask(load_world_truth(data), "How many cups are on the table next to the refrigerator?")
        assert (r.status, r.answer) == (EpisodeStatus.ANSWERED, "2")

    @pytest.mark.parametrize("room_level_only", [False, True])
    @pytest.mark.parametrize(
        "question,answer",
        [
            ("How many desks are in the living room?", "2"),
            ("Is there a wardrobe in the bedroom?", "yes"),
        ],
    )
    def test_a_big_object_tally_counts_under_its_room(
        self, demo_truth, question, answer, room_level_only
    ):
        # a room-level look focuses on the target, which holds none of its kind
        r = ask(demo_truth, question, room_level_only=room_level_only)
        assert (r.status, r.answer) == (EpisodeStatus.ANSWERED, answer)

    @pytest.mark.parametrize(
        "question,answer",
        [
            ("How many white cushions are on the sofa?", "1"),
            ("Is there a white cushion on the sofa?", "yes"),
            ("How many yellow cushions are on the sofa in the living room?", "1"),
        ],
    )
    def test_tally_adjective_becomes_a_constraint(self, demo_truth, question, answer):
        # the sofa holds a white and a yellow cushion
        r = ask(demo_truth, question)
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == answer
        assert r.chain.steps[-1].label == "cushion"

    def test_negative_existence_is_an_answer_not_a_failure(self, demo_truth):
        r = ask(demo_truth, "Is there a magazine on the coffee table in the living room?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "no"

    def test_close_constraint_gets_verified_in_person(self, demo_truth):
        r = ask(demo_truth, "Is the person on the sofa asleep?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "no"
        # verification means actually anchoring at the person
        visited = [ev.observation["anchor"] for ev in r.trace.events]
        assert "f0.living.sofa.person.0" in visited

    def test_relational_question(self, demo_truth):
        r = ask(demo_truth, "What is on top of the coffee table in the living room?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "book, potted plant"

    def test_held_object_found_through_constraint_chain(self, demo_truth):
        r = ask(demo_truth, "What is the color of the phone held by the person on the couch?")
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "black"

    def test_object_absent_everywhere_comes_back_not_found(self, demo_truth):
        r = ask(demo_truth, "Where is the trombone?")
        assert r.status is EpisodeStatus.NOT_FOUND
        assert r.answer == "not found"

    def test_attribute_the_world_never_assigned(self, demo_truth):
        # cushions here have colors but no state; honest miss, not a crash
        r = ask(demo_truth, "What is the state of the cushion on the couch in the living room?")
        assert r.status is EpisodeStatus.NOT_FOUND

    def test_unparseable_question_fails_fast(self, demo_truth):
        r = ask(demo_truth, "Ponder the meaning of furniture.")
        assert r.status is EpisodeStatus.FAILED
        assert r.plans == 0

    def test_plan_budget_caps_the_search(self, demo_truth):
        r = ask(
            demo_truth,
            "What is the title of the book on the coffee table in the living room?",
            max_plans=1,
        )
        assert r.status is EpisodeStatus.NOT_FOUND
        assert r.plans == 1

    def test_default_budget_scales_with_chain_length(self):
        assert AgentConfig().plan_budget(4) == 24
        assert AgentConfig(max_plans=7).plan_budget(4) == 7


class TestSecondaryPerception:
    def test_alias_move_gets_rescued(self, demo_truth):
        r = ask(demo_truth, "What is the color of the phone held by the person on the couch?")
        first = r.trace.events[0]
        assert first.plan["goal_label"] == "couch"
        assert first.feedback is True
        assert first.secondary is True  # identity check saved the mismatch

    def test_direct_unit_rescue(self, demo_truth):
        graph = demo_truth.graph
        plan = Plan(
            kind=PlanKind.MOVE_TO,
            goal_id="f0.living.sofa",
            goal_label="couch",
            goal_layer=Layer.BIG_OBJECT,
        )
        env = Environment(demo_truth)
        env.reset()
        obs = env.execute(plan)
        assert check_feedback(plan, obs, graph) is False  # naive match says no
        assert secondary_perception(plan, obs, graph) is True  # identity says yes


class TestRoomLevelAblation:
    def test_close_attributes_become_unreachable(self, occluded_truth):
        r = run_episode(
            "What is the title of the book on the coffee table in the living room?",
            Environment(occluded_truth),
            config=AgentConfig(room_level_only=True),
        )
        assert r.status is EpisodeStatus.NOT_FOUND

    def test_never_anchors_below_a_room(self, occluded_truth):
        r = run_episode(
            "What is the title of the book on the coffee table in the living room?",
            Environment(occluded_truth),
            config=AgentConfig(room_level_only=True),
        )
        for ev in r.trace.events:
            layer = Layer.from_tag(ev.observation["anchor_layer"])
            assert layer <= Layer.ROOM

    def test_room_queries_still_work(self, occluded_truth):
        r = run_episode(
            "Which room is the bed in?",
            Environment(occluded_truth),
            config=AgentConfig(room_level_only=True),
        )
        assert r.status is EpisodeStatus.ANSWERED
        assert r.answer == "bedroom"

    def test_the_room_level_agent_classifies_no_attribute(self, demo_truth):
        class Counting(LookupPlanner):
            calls = 0

            def classify_attribute(self, attribute, object_label):
                self.calls += 1
                return super().classify_attribute(attribute, object_label)

        answers = []
        for room_level_only, calls in ((True, 0), (False, 1)):
            planner = Counting()
            r = run_episode(
                "What color is the sofa in the living room?",
                Environment(demo_truth),
                config=AgentConfig(room_level_only=room_level_only),
                planner=planner,
            )
            assert planner.calls == calls
            answers.append(r.answer)
        assert answers == ["blue", "blue"]

    @pytest.fixture()
    def resolves(self, monkeypatch):
        """Count of SceneGraph.resolve_label calls, however they are made."""
        calls = []
        original = SceneGraph.resolve_label

        def counting(graph, *args, **kwargs):
            calls.append(args)
            return original(graph, *args, **kwargs)

        monkeypatch.setattr(SceneGraph, "resolve_label", counting)
        return calls

    def test_each_chain_resolves_its_room_once(self, demo_truth, resolves):
        r = ask(demo_truth, BOOK_QUESTION, room_level_only=True)
        chains = 1 + len(r.chain.alternatives)
        assert r.plans == 20
        # the chain's room, then the book inside it; not two per plan
        assert len(resolves) <= 2 * chains

    def test_a_grown_graph_resolves_the_room_again(self, demo_truth, resolves, monkeypatch):
        def episode():
            # the move onto the coffee table shows the book, which the prior lacks
            table = Plan(kind=PlanKind.MOVE_TO, goal_id="f0.living.table", tool="fallback")
            planner = ScriptedFallback([table])
            return run_episode(
                BOOK_QUESTION,
                Environment(demo_truth),
                config=AgentConfig(room_level_only=True),
                planner=planner,
            )

        memoized = episode()
        assert len(resolves) == 4  # room and focus, then both again after the growth
        # every plan worked out afresh, as without the per-chain look
        fresh = agent_module.room_level_plan
        monkeypatch.setattr(
            agent_module,
            "room_level_plan",
            lambda chain, k, graph, pose, slots, look: fresh(chain, k, graph, pose, slots),
        )
        assert golden_text(memoized) == golden_text(episode())
        looks = [e for e in memoized.trace.events if e.action.kind is PlanKind.OBSERVE]
        focus = [e.plan.get("focus") for e in looks]
        assert focus == [None] * 3 + ["f0.living.table.book.0"] * 3


class ScriptedFallback(LookupPlanner):
    """Returns the given fallback plans in order, then gives up."""

    def __init__(self, plans):
        self.plans = iter(plans)

    def fallback_plan(self, graph, pose, explored, question=""):
        return next(self.plans, Plan(kind=PlanKind.ANSWER, value="not found", tool="fallback"))


class TestFoldOnce:
    @pytest.fixture()
    def folds(self, monkeypatch):
        """(graph, anchor id) of every ingest_observation call run_episode makes."""
        calls = []

        def recording(graph, obs):
            calls.append((graph, obs.anchor_id))
            return ingest_observation(graph, obs)

        monkeypatch.setattr(agent_module, "ingest_observation", recording)
        return calls

    def test_a_repeated_view_is_ingested_once(self, demo_truth, folds):
        r = ask(demo_truth, BOOK_QUESTION, room_level_only=True)
        anchors = [r.trace.entrance.anchor_id, *(e.obs.anchor_id for e in r.trace.events)]
        assert anchors.count("f0.living") > 3
        assert [anchor for _, anchor in folds] == list(dict.fromkeys(anchors))

    def test_a_view_whose_anchor_was_missing_is_folded_again(self, demo_truth, folds):
        book = "f0.living.table.book.0"
        planner = ScriptedFallback(
            [
                # lands on the book before the agent's graph has it
                Plan(kind=PlanKind.MOVE_TO, goal_label="book", goal_layer=Layer.SMALL_OBJECT, tool="fallback"),
                Plan(kind=PlanKind.MOVE_TO, goal_id="f0.living.table", tool="fallback"),
                Plan(kind=PlanKind.MOVE_TO, goal_id=book, tool="fallback"),
            ]
        )
        r = run_episode(
            BOOK_QUESTION,
            Environment(demo_truth),
            config=AgentConfig(room_level_only=True),
            planner=planner,
        )
        assert [anchor for _, anchor in folds] == ["f0", "f0.living", book, "f0.living.table", book]
        graph = folds[0][0]
        assert graph.node(book).attributes == {"color": "red", "title": "war and peace", "state": "open"}
        assert r.answer == "war and peace"


def golden_text(result):
    """The trace's lines as the golden files hold them: without wall_ms."""
    *lines, final = result.trace.lines()
    record = json.loads(final)
    del record["wall_ms"]
    return "\n".join([*lines, json.dumps(record, sort_keys=True)]) + "\n"


class TestTrace:
    @pytest.fixture()
    def result(self, demo_truth):
        return ask(demo_truth, "What is the title of the book on the coffee table in the living room?")

    def test_header_event_final_line_shape(self, result, tmp_path):
        path = tmp_path / "trace.jsonl"
        result.trace.write(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[-1]["kind"] == "final"
        assert all(l["kind"] == "event" for l in lines[1:-1])
        assert len(lines) == 2 + result.plans

    def test_header_records_the_parse(self, result, tmp_path):
        path = tmp_path / "trace.jsonl"
        result.trace.write(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["question"].startswith("What is the title")
        assert header["pattern"] == "V2[living room] -> V3[coffee table] -> V4(A)[book] -> A[title]"
        assert header["parse_source"] == "template"
        assert header["world_id"] == "demo_house"
        assert "entrance_observation" in header

    def test_the_pattern_is_rendered_only_when_read(self, demo_truth, monkeypatch):
        rendered = []
        monkeypatch.setattr(agent_module, "render", lambda chain: rendered.append(chain) or render(chain))
        result = ask(demo_truth, "What color is the sofa in the living room?")
        assert rendered == []
        assert result.trace.pattern == render(result.chain) == "V2[living room] -> V3(A)[sofa] -> A[color]"
        assert rendered == [result.chain]
        blank = ask(demo_truth, "   ")
        assert blank.chain is None and blank.trace.pattern is None
        assert json.loads(blank.trace.lines()[0])["pattern"] is None

    def test_final_line_matches_the_result(self, result, tmp_path):
        path = tmp_path / "trace.jsonl"
        result.trace.write(path)
        final = json.loads(path.read_text().splitlines()[-1])
        assert final["answer"] == result.answer
        assert final["status"] == "answered"
        assert final["steps"] == result.steps
        assert final["plans"] == result.plans

    def test_trace_lines_are_byte_stable(self, demo_truth, tmp_path):
        q = "What color is the sofa in the living room?"
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        ask(demo_truth, q).trace.write(a)
        ask(demo_truth, q).trace.write(b)
        strip = lambda text: [
            {k: v for k, v in json.loads(line).items() if k != "wall_ms"}
            for line in text.splitlines()
        ]
        assert strip(a.read_text()) == strip(b.read_text())

    @pytest.mark.parametrize(
        "fixture,question,config",
        [
            ("demo_sofa_color.jsonl", "What is the color of the sofa in the living room?", {}),
            (
                "demo_room_level_fallback.jsonl",
                "What is the title of the book on the coffee table in the living room?",
                {"room_level_only": True},
            ),
        ],
    )
    def test_trace_lines_match_the_golden_file(self, demo_truth, fixture, question, config):
        result = ask(demo_truth, question, **config)
        assert golden_text(result) == (GOLDEN / fixture).read_text(encoding="utf-8")

    def test_room_query_sweep_matches_the_golden_file(self):
        # the slowest kind of pinned episode: the prior has no cushion, so
        # the agent sweeps every support on the floor, replanning after each
        result = ask(load_world_truth(random_world_data(11)), "What room is the cushion located in?")
        assert (result.answer, result.plans) == ("bedroom", 13)
        assert golden_text(result) == (GOLDEN / "pinned_room_query_sweep.jsonl").read_text(encoding="utf-8")

    def test_golden_fallback_trace_covers_every_event_kind(self):
        lines = (GOLDEN / "demo_room_level_fallback.jsonl").read_text(encoding="utf-8").splitlines()
        plans = [json.loads(line)["plan"] for line in lines[1:-1]]
        assert {p["kind"] for p in plans} == {"move_to", "observe", "answer"}
        assert any(p["tool"] == "fallback" for p in plans)

    def test_final_observe_carries_the_subquestion(self, result):
        last = result.trace.events[-1]
        assert last.subquestion == "What is the title of the book?"
        assert last.plan["content"] == "What is the title of the book?"

    @pytest.mark.parametrize("room_level_only", [False, True])
    def test_each_plan_is_serialized_with_its_events_subgoal(self, demo_truth, room_level_only):
        r = ask(demo_truth, BOOK_QUESTION, room_level_only=room_level_only)
        ks = [e.k for e in r.trace.events]
        assert len(set(ks)) > 1
        assert [e.plan["step_index"] for e in r.trace.events] == ks
        looks = [e for e in r.trace.events if e.subquestion is not None]
        assert looks
        assert all(e.plan["content"] == "What is the title of the book?" for e in looks)
        assert all(e.action.content is None for e in looks)

    def test_a_chat_fallback_observe_keeps_its_own_content(self, demo_truth):
        fallbacks = iter(
            [
                json.dumps({"kind": "Observe", "content": "Look under the cushions."}),
                json.dumps({"kind": "Answer", "value": "not found"}),
            ]
        )

        class Model:
            def complete_text(self, system, user):
                if system == prompts.load("fallback_plan"):
                    return next(fallbacks)
                return "What is the title of the book?"

        r = run_episode(
            BOOK_QUESTION,
            Environment(demo_truth),
            config=AgentConfig(room_level_only=True),
            planner=ChatPlanner(Model()),
        )
        looks = [
            (e.plan["content"], e.plan["tool"], e.subquestion)
            for e in r.trace.events
            if e.action.kind is PlanKind.OBSERVE
        ]
        asked = ("What is the title of the book?", "rules", "What is the title of the book?")
        assert looks == [asked] * 3 + [("Look under the cushions.", "fallback", None)] + [asked] * 3

    def test_a_failed_chat_fallback_move_marks_only_its_own_observation(self, demo_truth):
        fallbacks = iter(
            [
                json.dumps({"kind": "MoveTo", "goal": "aquarium"}),
                json.dumps({"kind": "Answer", "value": "not found"}),
            ]
        )

        class Model:
            def complete_text(self, system, user):
                if system == prompts.load("fallback_plan"):
                    return next(fallbacks)
                return "What is the title of the book?"

        r = run_episode(
            BOOK_QUESTION,
            Environment(demo_truth),
            config=AgentConfig(room_level_only=True),
            planner=ChatPlanner(Model()),
        )
        events = r.trace.events
        i = next(i for i, e in enumerate(events) if e.action.goal_label == "aquarium")
        failed, after = events[i].observation, events[i + 1].observation
        assert failed["move_failed"] is True and failed["step"] == events[i].t
        assert after["anchor"] == failed["anchor"] and after["move_failed"] is False
        assert demo_truth.view(failed["anchor"]).move_failed is False
        assert [e.observation["step"] for e in events] == [e.t for e in events]
