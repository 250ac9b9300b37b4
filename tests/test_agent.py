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
    room_level_plan,
    room_look,
    run_episode,
    secondary_perception,
    tally_matches,
)
from stepqa.dataset import generate_dataset
from stepqa.environment import AgentPose, Environment, load_world_truth
from stepqa.llm_planner import ChatPlanner, LookupPlanner
from stepqa.parsing import GoldBackend, TemplateBackend, parse_question
from stepqa.patterns import SubGoal, TargetKind, parse_pattern_string, render
from stepqa.rules import Plan, PlanKind, ResolutionFailure, look_plan, next_plan, scope_node
from stepqa.scene_graph import Layer, SceneGraph, labels_match
from stepqa.worldgen import random_world_data

from conftest import add_small, ancestor_ids, bundled_and_generated_worlds


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

    def test_a_room_level_tally_counts_under_the_scope_from_its_room(self, demo_truth):
        # the look focuses on the room the chain names, not on the book inside it
        graph = demo_truth.prior_graph()
        add_small(graph, "f0.living.table", "book")
        question = "How many books are on the coffee table in the living room?"
        parsed = parse_question(question, [TemplateBackend(graph)])
        look = room_look(parsed.chain, graph, parsed.slots).here
        assert look.focus_id == "f0.living"
        obs = demo_truth.view("f0.living", look.focus_id)
        assert extract_answer(parsed.chain, parsed.slots, look, obs, graph) == "1"

    def test_a_sweeps_tally_focuses_on_its_scope_and_counts_under_it(self, demo_truth):
        # a sweep over a floor ends looking from the last support it visited
        graph = demo_truth.prior_graph()
        for support in ("f0.kitchen.table", "f0.living.table"):
            ingest_observation(graph, demo_truth.view(support))
        chain = parse_pattern_string("count: V4[cup]")
        explored = frozenset(n.id for n in graph.nodes_at(Layer.BIG_OBJECT))
        look = next_plan(chain, 0, graph, AgentPose("f0.living.table", 9), explored=explored)
        assert (look.kind, look.focus_id, look.advance_to) == (PlanKind.OBSERVE, "f0", 1)
        obs = demo_truth.view("f0.living.table", look.focus_id)
        assert extract_answer(chain, {}, look, obs, graph) == "2"

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

    @pytest.mark.parametrize("question", ["What is on the book?", "What is on the book on the coffee table?"])
    def test_an_object_query_around_a_small_object_reads_no_supports_view(self, demo_truth, question):
        # nothing is on the book; a sweep's look reads around its scope,
        # not around whichever support the sweep ended at
        r = ask(demo_truth, question)
        assert (r.status, r.answer) == (EpisodeStatus.NOT_FOUND, "not found")

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

    def test_plan_budget_caps_the_search(self, demo_truth, monkeypatch):
        monkeypatch.setattr(AgentConfig, "plan_budget", lambda self, chain_length: 1)
        r = ask(demo_truth, BOOK_QUESTION)
        assert r.status is EpisodeStatus.NOT_FOUND
        assert r.plans == 1

    def test_default_budget_scales_with_chain_length(self):
        assert AgentConfig().plan_budget(4) == 24
        assert AgentConfig(room_level_only=True).plan_budget(2) == 16

    def test_an_unknown_label_is_looked_for_as_a_small_object_only(self, demo_truth):
        # the prior's label index never places "doohickey", so the episode
        # runs its one chain, V4 under the kitchen, and ends when the
        # fallback gives up: 7 plans, where a second, big-object reading
        # took 9
        r = ask(demo_truth, "What is the color of the doohickey in the kitchen?")
        assert render(r.chain) == "V2[kitchen] -> V4(A)[doohickey] -> A[color]"
        assert (r.status, r.answer, r.plans, r.steps) == (EpisodeStatus.NOT_FOUND, "not found", 7, 6)
        assert r.trace.events[-1].action.tool == "fallback"


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

    def test_identity_and_label_checks_keep_their_ancestor_and_label_rules(self, demo_truth):
        graph = demo_truth.graph
        env = Environment(demo_truth)
        for node in graph.nodes:
            env.reset()
            obs = env.execute(Plan(kind=PlanKind.MOVE_TO, goal_id=node.id))
            for goal in graph.nodes:
                plan = Plan(kind=PlanKind.MOVE_TO, goal_id=goal.id, goal_label=goal.label, goal_layer=goal.layer)
                inside = goal.id == node.id or goal.id in ancestor_ids(graph, node.id)
                assert secondary_perception(plan, obs, graph) is inside
                assert check_feedback(plan, obs, graph) is labels_match(goal.label, node.label)
        # a move by label alone passes once the environment resolves it
        for label, passes in (("couch", True), ("trombone", False)):
            env.reset()
            plan = Plan(kind=PlanKind.MOVE_TO, goal_label=label)
            assert secondary_perception(plan, env.execute(plan), graph) is passes

    def test_a_label_only_fallback_move_to_an_alias_is_rescued(self, demo_truth):
        couch = Plan(kind=PlanKind.MOVE_TO, goal_label="couch", tool="fallback")
        r = run_episode(
            "Which room is the harpsichord in?",
            Environment(demo_truth),
            parse_backends=[GoldBackend("V3[harpsichord] -> V2")],
            planner=ScriptedFallback([couch]),
        )
        first = r.trace.events[0]
        assert (first.action, first.obs.anchor_id, first.obs.move_failed) == (couch, "f0.living.sofa", False)
        assert (first.feedback, first.secondary) == (True, True)


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
        assert r.plans == 20
        # the chain's room, then the book inside it; not two per plan
        assert len(resolves) <= 2

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
        # every plan worked out from a fresh look, as without the per-chain look
        fresh = agent_module.room_look
        monkeypatch.setattr(agent_module, "room_look", lambda *args: fresh(*args)._replace(size=-1))
        assert golden_text(memoized) == golden_text(episode())
        looks = [e for e in memoized.trace.events if e.action.kind is PlanKind.OBSERVE]
        focus = [e.plan.get("focus") for e in looks]
        assert focus == [None] * 3 + ["f0.living.table.book.0"] * 3


def look_questions(generated):
    """The golden parse questions, then the pinned dataset's questions
    (generated worlds 1 to 20, 40 a world, selection seed 3)."""
    lines = (GOLDEN / "parse_template.jsonl").read_text(encoding="utf-8").splitlines()
    pinned = generate_dataset(generated, per_world=40, seed=3)
    return list(dict.fromkeys([*(json.loads(line)["question"] for line in lines), *(r.question for r in pinned)]))


def fresh_look_plan(chain, graph, pose, slots):
    """The plan room_level_plan built before its look held prebuilt plans:
    look_plan from the chain's room, its focus and room resolved on a copy
    of the graph with an empty memo; a tally's focus is the planner's scope
    from that room. None where it raised."""
    fresh = graph.copy()
    fresh._memo = {}
    n = len(chain.steps)
    if chain.target_kind is TargetKind.ROOM:
        found = fresh.resolve_label(chain.steps[0].label or "", layer=chain.steps[0].layer)
        return Plan(kind=PlanKind.ANSWER, value=fresh.room_of(found[0].id).label, advance_to=n) if found else None
    room = agent_module._room_for_chain(chain, fresh)
    if room is None:
        return None
    if chain.target_kind in (TargetKind.COUNT, TargetKind.EXISTENCE):
        return look_plan(pose, room, scope_node(chain, fresh, AgentPose(room.id)).id, n)
    focus_label = slots.get("object") or slots.get("support")
    found = fresh.resolve_label(focus_label, scope_id=room.id) if focus_label else []
    return look_plan(pose, room, found[0].id if found else None, n)


class TestPrebuiltLookPlans:
    def test_a_looks_plans_are_the_plans_look_plan_builds(self):
        worlds = list(bundled_and_generated_worlds())
        questions = look_questions(worlds[-20:])
        kinds, checked = set(), 0
        for world in worlds:
            graph = world.prior_graph()
            backend = TemplateBackend(graph)
            poses = [AgentPose(n.id, 3) for n in (*graph.nodes_at(Layer.FLOOR), *graph.nodes_at(Layer.ROOM))]
            for question in questions:
                parsed = backend.parse(question)
                if parsed is None:
                    continue
                chain, slots = parsed.chain, parsed.slots
                look = room_look(chain, graph, slots)
                for pose in poses:
                    want = fresh_look_plan(chain, graph, pose, slots)
                    if want is None:
                        with pytest.raises(ResolutionFailure):
                            room_level_plan(look, pose)
                        continue
                    plan = room_level_plan(look, pose)
                    assert plan == want, (world.world_id, question, pose.anchor_id)
                    assert plan is (look.here if pose.anchor_id == look.room.id else look.away)
                    kinds.add((chain.target_kind, plan.kind))
                    checked += 1
        assert {kind for kind, _ in kinds} == set(TargetKind)
        assert {plan_kind for _, plan_kind in kinds} == set(PlanKind)
        assert checked > 50_000


class TestFinalLookFeedback:
    """A final look succeeds exactly when it yields the answer."""

    def test_a_look_that_reads_no_answer_counts_as_a_retry(self):
        # The television stands on the coffee table, so the room's view
        # shows something on it, but a room-level look sees no small object.
        table = _support("f0.living.table", "coffee table", 0.0, 0)
        table["small_objects"] = [{"label": "book"}]
        television = {"id": "f0.living.tv", "label": "television", "position": [1.0, 1.0]}
        living = _room("f0.living", "living room", 0.0, [table, television])
        truth = load_world_truth(
            {
                "id": "tv",
                "entrance": "f0",
                "floors": [{"id": "f0", "label": "ground floor", "rooms": [living]}],
                "spatial_edges": [{"a": "f0.living.tv", "b": "f0.living.table", "relation": "on"}],
            }
        )
        r = ask(truth, "What is on top of the coffee table in the living room?", room_level_only=True)
        # the move into the room, RETRIES + 1 failed looks, then the fallback,
        # which finds no unexplored sibling and gives up
        looks = [(PlanKind.OBSERVE, "rules", False)] * (agent_module.RETRIES + 1)
        want = [(PlanKind.MOVE_TO, "rules", True), *looks, (PlanKind.ANSWER, "fallback", True)]
        assert [(e.action.kind, e.action.tool, e.feedback) for e in r.trace.events] == want
        assert (r.status, r.answer) == (EpisodeStatus.NOT_FOUND, "not found")

    @pytest.mark.parametrize("room_level_only", [False, True])
    def test_an_ok_final_look_ends_the_episode_with_its_answer(self, monkeypatch, room_level_only):
        read = []

        def reading(*args):
            value = extract_answer(*args)
            read.append(value)
            return value

        monkeypatch.setattr(agent_module, "extract_answer", reading)
        config = AgentConfig(room_level_only=room_level_only)
        answered = 0
        for world in bundled_and_generated_worlds():
            for record in generate_dataset([world], per_world=40, seed=3):
                read.clear()
                r = run_episode(record.question, Environment(world), config=config)
                events = r.trace.events
                n = len(r.chain.steps)
                finals = [i for i, e in enumerate(events) if e.action.kind is PlanKind.OBSERVE and e.action.advance_to == n]
                assert len(read) == len(finals), record.question
                for i, value in zip(finals, read):
                    assert events[i].feedback is (value is not None), record.question
                    if events[i].feedback:
                        assert i == len(events) - 1 and r.status is EpisodeStatus.ANSWERED, record.question
                        assert r.answer == normalize_answer(value), record.question
                        answered += 1
        assert answered > 100


def reference_tally_scope(chain, plan, obs, graph):
    """The node a tally counted under before each planner focused its
    look there: the focus, when the chain names a support before its
    target and the focus sits just above the target's layer; else the
    planner's room scope from the anchor the count was observed at. The
    reference."""
    focus = graph.get(plan.focus_id)
    support = any(s.layer is Layer.BIG_OBJECT and s.label for s in chain.steps[:-1])
    if focus is not None and focus.layer == chain.steps[-1].layer - 1 and support:
        return focus.id
    return scope_node(chain, graph, AgentPose(obs.anchor_id)).id


class TestTallyFocus:
    """A final tally look counts under its focus, the node its planner named."""

    @pytest.mark.parametrize("room_level_only", [False, True])
    def test_a_tally_counts_under_its_focus_as_under_the_reference_scope(self, monkeypatch, room_level_only):
        tallies = []

        def reading(chain, slots, plan, obs, graph):
            if chain.target_kind in (TargetKind.COUNT, TargetKind.EXISTENCE):
                step = chain.steps[-1]
                want = len(tally_matches(graph, reference_tally_scope(chain, plan, obs, graph), step))
                tallies.append((len(tally_matches(graph, plan.focus_id, step)), want))
            return extract_answer(chain, slots, plan, obs, graph)

        monkeypatch.setattr(agent_module, "extract_answer", reading)
        config = AgentConfig(room_level_only=room_level_only)
        checked = 0
        for world in bundled_and_generated_worlds():
            for record in generate_dataset([world], per_world=40, seed=3):
                tallies.clear()
                run_episode(record.question, Environment(world), config=config)
                assert all(got == want for got, want in tallies), (world.world_id, record.question, tallies)
                checked += len(tallies)
        assert checked > 300


class ScriptedFallback(LookupPlanner):
    """Returns the given fallback plans in order, then gives up."""

    def __init__(self, plans):
        self.plans = iter(plans)

    def fallback_plan(self, graph, pose, explored, question=""):
        return next(self.plans, Plan(kind=PlanKind.ANSWER, value="not found", tool="fallback"))


class TestPlanningDomainError:
    def test_a_chain_no_rule_can_plan_fails_the_episode(self, demo_truth):
        # an attribute of a room: attributes live on object layers only
        r = run_episode(
            "What color is the kitchen?",
            Environment(demo_truth),
            parse_backends=[GoldBackend("V2[kitchen] -> A[color]")],
        )
        assert (r.status, r.answer, r.plans) == (EpisodeStatus.FAILED, "not found", 0)


class TestAttributeValues:
    """Resolution and a tally decide alike whether a node has a wanted value."""

    @pytest.fixture()
    def graph(self, demo_path):
        data = json.loads(demo_path.read_text())
        data["floors"][0]["rooms"][1]["big_objects"][0]["small_objects"][0]["attributes"]["color"] = "dark blue"
        data["floors"][0]["rooms"][1]["big_objects"][0]["small_objects"][1]["attributes"]["material"] = "canvas"
        return load_world_truth(data).graph

    def found(self, graph, constraint):
        found = graph.resolve_from("f0.kitchen", "cup", Layer.SMALL_OBJECT, constraint)
        resolved = [found.id] if found is not None else []
        tallied = [n.id for n in tally_matches(graph, "f0.kitchen", SubGoal(Layer.SMALL_OBJECT, "cup", constraint))]
        return resolved, tallied

    def test_case_and_whitespace_are_folded(self, graph):
        for want in ("dark  blue", " Dark Blue "):
            assert self.found(graph, ("color", want)) == (["f0.kitchen.table.cup.0"], ["f0.kitchen.table.cup.0"])

    def test_a_value_is_not_singularized(self, graph):
        resolved, tallied = self.found(graph, ("material", "canva"))
        # no cup is made of "canva": resolution keeps the cups that might
        # be, those with no material yet, and there are none
        assert (resolved, tallied) == ([], [])


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
