"""Planner helpers: perception classes, subquestions, fallback moves."""

import json

import pytest

from stepqa import prompts
from stepqa.agent import ingest_observation
from stepqa.environment import AgentPose, load_world_truth
from stepqa.llm_client import ChatClient, ChatMessage, ChatRequest, ReplayTransport
from stepqa.llm_planner import (
    CLOSE_RANGE_ATTRIBUTES,
    REMOTE_ATTRIBUTES,
    ChatPlanner,
    LookupPlanner,
    PerceptionRange,
    SchemaError,
)
from stepqa.parsing import TemplateBackend
from stepqa.rules import PlanKind
from stepqa.scene_graph import Layer

from conftest import WORLDS

@pytest.fixture()
def lookup():
    return LookupPlanner()


class TestAttributeClassification:
    def test_the_two_vocabularies_do_not_overlap(self):
        assert not REMOTE_ATTRIBUTES & CLOSE_RANGE_ATTRIBUTES

    @pytest.mark.parametrize("attr", sorted(REMOTE_ATTRIBUTES))
    def test_remote_attributes(self, lookup, attr):
        assert lookup.classify_attribute(attr, "sofa") is PerceptionRange.REMOTE

    @pytest.mark.parametrize("attr", sorted(CLOSE_RANGE_ATTRIBUTES))
    def test_close_range_attributes(self, lookup, attr):
        assert lookup.classify_attribute(attr, "book") is PerceptionRange.CLOSE_RANGE

    def test_unknown_attributes_default_to_close_range(self, lookup):
        # the conservative guess: walk over rather than misread from afar
        assert lookup.classify_attribute("engraving", "ring") is PerceptionRange.CLOSE_RANGE

    def test_classification_ignores_case_and_padding(self, lookup):
        assert lookup.classify_attribute(" Color ", "sofa") is PerceptionRange.REMOTE


class TestSimplifyQuestion:
    def parse(self, demo_truth, q):
        return TemplateBackend(demo_truth.prior_graph()).parse(q)

    def test_attribute_subquestion(self, lookup, demo_truth):
        pq = self.parse(demo_truth, "What is the title of the book on the coffee table in the living room?")
        out = lookup.simplify_question("irrelevant", pq.chain, 3, pq.slots)
        assert out == "What is the title of the book?"

    def test_existence_subquestion(self, lookup, demo_truth):
        pq = self.parse(demo_truth, "Is there a bag on the bed in the bedroom?")
        out = lookup.simplify_question("irrelevant", pq.chain, 2, pq.slots)
        assert out == "Is there a bag?"

    def test_count_subquestion(self, lookup, demo_truth):
        pq = self.parse(demo_truth, "How many cups are on the dining table in the kitchen?")
        out = lookup.simplify_question("irrelevant", pq.chain, 2, pq.slots)
        assert out == "How many of the cup are there?"

    def test_relational_subquestion(self, lookup, demo_truth):
        pq = self.parse(demo_truth, "What is next to the sofa in the living room?")
        out = lookup.simplify_question("irrelevant", pq.chain, 2, pq.slots)
        assert out == "What is next-to the sofa?"


class TestFallback:
    def test_moves_to_nearest_unexplored_sibling(self, lookup, demo_truth):
        graph = demo_truth.prior_graph()
        pose = AgentPose("f0.living.desk1", 3)
        plan = lookup.fallback_plan(graph, pose, frozenset(), "")
        assert plan.kind is PlanKind.MOVE_TO
        assert plan.tool == "fallback"
        assert plan.advance_to is None
        assert plan.goal_id == "f0.living.desk2"  # right beside desk1

    def test_explored_siblings_are_skipped(self, lookup, demo_truth):
        graph = demo_truth.prior_graph()
        pose = AgentPose("f0.living.desk1", 3)
        explored = frozenset({"f0.living.desk2", "f0.living.sofa", "f0.living.table"})
        plan = lookup.fallback_plan(graph, pose, explored, "")
        # no sibling left in the room: climb and try the next room
        assert plan.kind is PlanKind.MOVE_TO
        assert graph.node(plan.goal_id).layer is Layer.ROOM

    def test_exhausted_world_gives_up(self, lookup, demo_truth):
        graph = demo_truth.prior_graph()
        explored = frozenset(n.id for n in graph.nodes)
        pose = AgentPose("f0.living", 5)
        plan = lookup.fallback_plan(graph, pose, explored, "")
        assert plan.kind is PlanKind.ANSWER
        assert plan.value == "not found"
        assert plan.tool == "fallback"

    @pytest.mark.parametrize("world", ["demo_house", "clutter_clear", "clutter_occluded"])
    def test_the_pick_is_the_nearest_first_sort_of_the_unexplored_siblings(self, lookup, world):
        truth = load_world_truth(WORLDS / f"{world}.json")
        graph = truth.prior_graph()
        # small objects become anchors once their support's view is folded
        for big in graph.nodes_at(Layer.BIG_OBJECT):
            ingest_observation(graph, truth.view(big.id))
        assert graph.nodes_at(Layer.SMALL_OBJECT)

        def reference(anchor_id, explored):
            near = graph.position_of(anchor_id)
            probe = anchor_id
            while (parent := graph.parent(probe)) is not None:
                siblings = [s for s in graph.children(parent.id) if s.id != probe and s.id not in explored]
                if siblings:
                    return graph.nearest_first(siblings, near)[0].id
                probe = parent.id
            return None

        for anchor in graph.nodes:
            parent = graph.parent(anchor.id)
            siblings = [s.id for s in graph.children(parent.id)] if parent is not None else []
            for explored in [frozenset(), *(frozenset({s}) for s in siblings), frozenset(siblings)]:
                plan = lookup.fallback_plan(graph, AgentPose(anchor.id), explored, "")
                assert plan.goal_id == reference(anchor.id, explored), (anchor.id, sorted(explored))


def canned_client(pairs):
    """Replay client answering (system_prompt_name, user) -> content."""
    transport = ReplayTransport()
    for (prompt_name, user), content in pairs.items():
        system = prompts.load(prompt_name)
        transport.add(
            ChatRequest(
                model="test",
                messages=(ChatMessage("system", system), ChatMessage("user", user)),
            ),
            content,
        )
    return ChatClient(transport, model="test")


class TestChatPlanner:
    def test_classify_parses_verdict(self):
        client = canned_client(
            {("classify_attribute", "attribute: glow\nobject: lamp"): "REMOTE"}
        )
        planner = ChatPlanner(client)
        assert planner.classify_attribute("glow", "lamp") is PerceptionRange.REMOTE

    def test_classify_rejects_word_salad(self):
        client = canned_client(
            {("classify_attribute", "attribute: glow\nobject: lamp"): "hard to say"}
        )
        with pytest.raises(SchemaError):
            ChatPlanner(client).classify_attribute("glow", "lamp")

    def test_fallback_accepts_valid_json_plan(self, demo_truth):
        graph = demo_truth.prior_graph()
        pose = AgentPose("f0.living", 1)
        user = json.dumps(
            {
                "question": "where is it",
                "anchor": "living room",
                "siblings": [
                    {"id": s.id, "label": s.label, "explored": False}
                    for s in graph.children("f0")
                    if s.id != "f0.living"
                ],
            },
            sort_keys=True,
        )
        client = canned_client(
            {("fallback_plan", user): json.dumps({"kind": "MoveTo", "goal": "f0.kitchen"})}
        )
        plan = ChatPlanner(client).fallback_plan(graph, pose, frozenset(), "where is it")
        assert plan.kind is PlanKind.MOVE_TO
        assert plan.goal_id == "f0.kitchen"
        assert plan.advance_to is None
        assert plan.to_dict() == {
            "kind": "move_to",
            "step_index": 0,
            "tool": "fallback",
            "goal": "f0.kitchen",
            "goal_layer": "V2",
            "goal_label": "kitchen",
        }

    def test_fallback_retries_then_raises_on_junk(self, demo_truth):
        graph = demo_truth.prior_graph()
        pose = AgentPose("f0.living", 1)

        class JunkClient:
            model = "test"
            calls = 0

            def complete_text(self, system, user):
                JunkClient.calls += 1
                return "not json at all"

        with pytest.raises(SchemaError):
            ChatPlanner(JunkClient()).fallback_plan(graph, pose, frozenset(), "q")
        assert JunkClient.calls == 3

    def test_json_that_is_not_an_object_is_retried_then_raises(self, demo_truth):
        graph = demo_truth.prior_graph()
        pose = AgentPose("f0.living", 1)

        class ListClient:
            model = "test"
            calls = 0

            def complete_text(self, system, user):
                ListClient.calls += 1
                return "[1, 2]"

        with pytest.raises(SchemaError) as err:
            ChatPlanner(ListClient()).fallback_plan(graph, pose, frozenset(), "q")
        assert "fallback plan never validated" in str(err.value)
        assert ListClient.calls == 3

    def test_fenced_json_is_tolerated(self, demo_truth):
        graph = demo_truth.prior_graph()
        pose = AgentPose("f0.living", 1)

        class FencedClient:
            model = "test"

            def complete_text(self, system, user):
                return '```json\n{"kind": "Answer", "value": "not found"}\n```'

        plan = ChatPlanner(FencedClient()).fallback_plan(graph, pose, frozenset(), "q")
        assert plan.kind is PlanKind.ANSWER


class TestPromptCatalog:
    def test_every_prompt_loads_with_a_version(self):
        for name in prompts.VERSIONS:
            assert prompts.load(name).strip()
            assert prompts.VERSIONS[name].startswith("v")

    def test_unknown_prompt_is_an_error(self):
        with pytest.raises(KeyError):
            prompts.load("does_not_exist")
