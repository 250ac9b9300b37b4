"""Rule-table planning: observation layers and plan sequences."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from stepqa.agent import extract_answer, ingest_observation, room_level_plan, room_look, tally_matches
from stepqa.environment import AgentPose, load_world_truth
from stepqa.llm_planner import LookupPlanner, PerceptionRange
from stepqa.parsing import TemplateBackend
from stepqa.patterns import SubGoal, parse_pattern_string
from stepqa.rules import (
    Plan,
    PlanKind,
    PlanningDomainError,
    ResolutionFailure,
    _sweep_move,
    move_plan,
    next_plan,
    observation_layer,
    scope_node,
)
from stepqa.scene_graph import Layer, SceneGraph, SceneNode
from stepqa.worldgen import random_world_data

from conftest import WORLDS, add_small, multi_floor_data, scan_resolve_from, scan_resolve_label


def entrance() -> AgentPose:
    return AgentPose(anchor_id="f0", steps_taken=0)


def object_step(layer: Layer) -> SubGoal:
    return SubGoal(layer=layer, label="thing")


def attribute_step(layer: Layer) -> SubGoal:
    return SubGoal(layer=layer, queried_attribute="color", attribute_step=True)


class TestObservationLayer:
    """The planner's whole lookup table, row by row."""

    @pytest.mark.parametrize(
        "target,attr_class,expected",
        [
            (object_step(Layer.SMALL_OBJECT), None, Layer.BIG_OBJECT),
            (object_step(Layer.BIG_OBJECT), None, Layer.ROOM),
            (attribute_step(Layer.BIG_OBJECT), PerceptionRange.REMOTE, Layer.ROOM),
            (attribute_step(Layer.BIG_OBJECT), PerceptionRange.CLOSE_RANGE, Layer.BIG_OBJECT),
            (attribute_step(Layer.SMALL_OBJECT), PerceptionRange.REMOTE, Layer.BIG_OBJECT),
            (attribute_step(Layer.SMALL_OBJECT), PerceptionRange.CLOSE_RANGE, Layer.SMALL_OBJECT),
        ],
    )
    def test_rule_rows(self, target, attr_class, expected):
        assert observation_layer(target, attr_class) is expected

    @pytest.mark.parametrize(
        "target,attr_class",
        [
            (object_step(Layer.ROOM), None),
            (object_step(Layer.FLOOR), None),
            (attribute_step(Layer.SMALL_OBJECT), None),
            (attribute_step(Layer.BIG_OBJECT), None),
        ],
    )
    def test_rows_with_no_rule(self, target, attr_class):
        with pytest.raises(PlanningDomainError):
            observation_layer(target, attr_class)


class TestPlanSerialization:
    def test_move_plan_carries_goal_fields(self):
        truth = load_world_truth(WORLDS / "demo_house.json")
        chain = parse_pattern_string("V2[living room] -> V3[coffee table] -> V4[book]")
        plan = next_plan(chain, 0, truth.graph, entrance())
        d = plan.to_dict()
        assert d["kind"] == "move_to"
        assert d["goal"] == "f0.living"
        assert d["goal_layer"] == "V2"
        assert d["goal_label"] == "living room"
        assert d["tool"] == "rules"

    def test_plans_are_immutable(self):
        plan = Plan(kind=PlanKind.OBSERVE, focus_id="f0.living.sofa")
        with pytest.raises(AttributeError):
            plan.content = "What color is the sofa?"
        with pytest.raises(AttributeError):
            plan.step_index = 2
        assert plan.to_dict(2, "What color is the sofa?") == {
            "kind": "observe",
            "step_index": 2,
            "tool": "rules",
            "content": "What color is the sofa?",
            "focus": "f0.living.sofa",
        }
        assert plan.to_dict()["content"] == ""

    def test_index_bounds_are_checked(self):
        truth = load_world_truth(WORLDS / "demo_house.json")
        chain = parse_pattern_string("V2[living room] -> V3[sofa]")
        with pytest.raises(PlanningDomainError):
            next_plan(chain, 7, truth.graph, entrance())


class Walker:
    """Steps poses through plans against the fully known graph."""

    def __init__(self, graph):
        self.graph = graph
        self.pose = entrance()
        self.k = 0

    def run(self, chain, **kwargs):
        seen = []
        for _ in range(20):
            plan = next_plan(chain, self.k, self.graph, self.pose, **kwargs)
            seen.append(plan)
            if plan.kind is PlanKind.MOVE_TO:
                node = self.graph.node(plan.goal_id)
                self.pose = AgentPose(node.id, self.pose.steps_taken + 1)
            if plan.kind is PlanKind.ANSWER:
                return seen
            if plan.advance_to is not None:
                self.k = plan.advance_to
            if self.k >= len(chain.steps):
                return seen
        raise AssertionError("planner did not converge")


@pytest.fixture()
def full_graph(demo_truth):
    return demo_truth.graph


def brief(graph: SceneGraph, plans: list[Plan]) -> list[tuple]:
    """Each move's goal label, and each look's focus label."""
    return [(p.kind.value, p.goal_label if p.kind is PlanKind.MOVE_TO else graph.node(p.focus_id).label) for p in plans]


def look_answer(truth, walker, chain, slots, look):
    """What the final look yields, read off the world's view from where
    the walk stands."""
    obs = truth.view(walker.pose.anchor_id, look.focus_id)
    return extract_answer(chain, slots, look, obs, truth.graph)


class TestPlanSequences:
    def test_close_range_small_object_descends_all_the_way(self, full_graph):
        chain = parse_pattern_string(
            "V2[living room] -> V3[coffee table] -> V4(A)[book] -> A[title]"
        )
        plans = Walker(full_graph).run(chain, attr_class=PerceptionRange.CLOSE_RANGE)
        assert brief(full_graph, plans) == [
            ("move_to", "living room"),
            ("move_to", "coffee table"),
            ("move_to", "book"),
            ("observe", "book"),
        ]
        assert [p.advance_to for p in plans] == [1, 2, 3, 4]

    def test_remote_attribute_stops_at_the_room(self, full_graph):
        chain = parse_pattern_string("V2[living room] -> V3(A)[sofa] -> A[color]")
        plans = Walker(full_graph).run(chain, attr_class=PerceptionRange.REMOTE)
        assert brief(full_graph, plans) == [
            ("move_to", "living room"),
            ("observe", "sofa"),
        ]
        # the agent never anchors below the room for a remote read
        assert all(
            full_graph.node(p.goal_id).layer <= Layer.ROOM
            for p in plans
            if p.kind is PlanKind.MOVE_TO
        )

    def test_remote_small_object_attribute_reads_from_support(self, full_graph):
        chain = parse_pattern_string(
            "V2[living room] -> V3[coffee table] -> V4(A)[book] -> A[color]"
        )
        plans = Walker(full_graph).run(chain, attr_class=PerceptionRange.REMOTE)
        moves = [p for p in plans if p.kind is PlanKind.MOVE_TO]
        assert full_graph.node(moves[-1].goal_id).layer is Layer.BIG_OBJECT
        assert plans[-1].kind is PlanKind.OBSERVE

    def test_supported_object_query_observes_from_support(self, demo_truth, full_graph):
        pq = TemplateBackend(full_graph).parse("What is on top of the coffee table in the living room?")
        walker = Walker(full_graph)
        plans = walker.run(pq.chain)
        assert brief(full_graph, plans) == [
            ("move_to", "living room"),
            ("move_to", "coffee table"),
            ("observe", "coffee table"),
        ]
        assert look_answer(demo_truth, walker, pq.chain, pq.slots, plans[-1]) == "book, potted plant"

    def test_neighbor_query_observes_from_the_room(self, demo_truth, full_graph):
        pq = TemplateBackend(full_graph).parse("What is next to the sofa in the living room?")
        walker = Walker(full_graph)
        plans = walker.run(pq.chain)
        assert brief(full_graph, plans) == [
            ("move_to", "living room"),
            ("observe", "sofa"),
        ]
        assert look_answer(demo_truth, walker, pq.chain, pq.slots, plans[-1]) == "coffee table"


class TestRoomQueries:
    def test_known_big_object_answers_without_moving(self, demo_truth):
        chain = parse_pattern_string("V3[bed] -> V2[?]")
        plan = next_plan(chain, 0, demo_truth.prior_graph(), entrance())
        assert plan.kind is PlanKind.ANSWER
        assert plan.value == "bedroom"

    def test_unknown_small_object_starts_a_sweep(self, demo_truth):
        chain = parse_pattern_string("V4[phone] -> V2[?]")
        plan = next_plan(chain, 0, demo_truth.prior_graph(), entrance())
        assert plan.kind is PlanKind.MOVE_TO
        assert plan.advance_to is None  # sweeps do not advance the chain
        assert demo_truth.prior_graph().node(plan.goal_id).layer is Layer.BIG_OBJECT

    def test_sweep_skips_explored_anchors(self, demo_truth):
        graph = demo_truth.prior_graph()
        chain = parse_pattern_string("V4[phone] -> V2[?]")
        first = next_plan(chain, 0, graph, entrance())
        second = next_plan(chain, 0, graph, entrance(), explored=frozenset({first.goal_id}))
        assert second.goal_id != first.goal_id


class TestScopeNode:
    @pytest.fixture()
    def two_kitchens(self, demo_truth):
        graph = demo_truth.prior_graph()
        graph.add_node(SceneNode("f0.kitchen2", Layer.ROOM, "kitchen", position=(40.0, 0.0)), "f0")
        return graph

    @pytest.mark.parametrize(
        "anchor_id,room_id", [("f0.living", "f0.kitchen"), ("f0.study", "f0.kitchen2"), ("nowhere", "f0.kitchen")]
    )
    def test_two_rooms_with_the_chains_label_go_by_the_pose(self, two_kitchens, anchor_id, room_id):
        chain = parse_pattern_string("V2[kitchen] -> V3[dining table]")
        assert scope_node(chain, two_kitchens, AgentPose(anchor_id)).id == room_id

    def test_an_unknown_anchor_falls_back_to_the_first_floor(self):
        graph = load_world_truth(multi_floor_data(3, 2)).prior_graph()
        chain = parse_pattern_string("V3[table] -> V4[cup]")
        room = graph.nodes_at(Layer.ROOM)[-1]
        assert scope_node(chain, graph, AgentPose(room.id)).id == graph.floor_of(room.id).id == "f1"
        assert scope_node(chain, graph, AgentPose("nowhere")).id == "f0"
        with pytest.raises(PlanningDomainError, match="no floor"):
            scope_node(chain, SceneGraph(), AgentPose("nowhere"))


class TestResolutionFailures:
    def test_unknown_room_label(self, demo_truth):
        chain = parse_pattern_string("V2[ballroom] -> V3[harpsichord]")
        with pytest.raises(ResolutionFailure) as err:
            next_plan(chain, 0, demo_truth.prior_graph(), entrance())
        assert err.value.label == "ballroom"
        assert err.value.scope == "f0"

    def test_a_room_query_for_a_big_object_the_prior_lacks_is_a_dead_end(self, demo_truth):
        # the prior knows every big object, so no sweep starts
        chain = parse_pattern_string("V3[harpsichord] -> V2[?]")
        with pytest.raises(ResolutionFailure) as err:
            next_plan(chain, 0, demo_truth.prior_graph(), entrance())
        assert (err.value.label, err.value.scope) == ("harpsichord", "prior graph")

    def test_unknown_support_inside_known_room(self, demo_truth):
        graph = demo_truth.prior_graph()
        chain = parse_pattern_string("V2[living room] -> V3[aquarium] -> V4[fish]")
        pose = AgentPose("f0.living", 1)
        with pytest.raises(ResolutionFailure):
            next_plan(chain, 1, graph, pose)


class TestTallyPlans:
    def chain(self):
        return parse_pattern_string(
            "exists: V2[living room] -> V3[sofa] -> V4[person]{state=asleep}"
        )

    def test_close_constraint_visits_unverified_candidates(self, demo_truth):
        graph = demo_truth.prior_graph()
        person = add_small(graph, "f0.living.sofa", "person")
        pose = AgentPose("f0.living.sofa", 2)
        plan = next_plan(
            self.chain(), 2, graph, pose, constraint_class=PerceptionRange.CLOSE_RANGE
        )
        assert plan.kind is PlanKind.MOVE_TO
        assert plan.goal_id == person.id
        assert plan.advance_to is None

    def test_verified_candidates_get_the_final_tally_observe(self, demo_truth):
        graph = demo_truth.prior_graph()
        person = add_small(graph, "f0.living.sofa", "person")
        graph.update_attributes(person.id, {"state": "awake"})
        pose = AgentPose("f0.living.sofa", 2)
        plan = next_plan(
            self.chain(), 2, graph, pose, constraint_class=PerceptionRange.CLOSE_RANGE
        )
        assert (plan.kind, plan.focus_id, plan.advance_to) == (PlanKind.OBSERVE, "f0.living.sofa", 3)
        # the look settles the tally: the only person is awake
        assert extract_answer(self.chain(), {}, plan, demo_truth.view(pose.anchor_id, plan.focus_id), graph) == "no"

    def test_remote_constraint_needs_no_visits(self, demo_truth):
        graph = demo_truth.prior_graph()
        add_small(graph, "f0.living.sofa", "cushion")
        chain = parse_pattern_string(
            "count: V2[living room] -> V3[sofa] -> V4[cushion]{color=white}"
        )
        pose = AgentPose("f0.living.sofa", 2)
        plan = next_plan(chain, 2, graph, pose, constraint_class=PerceptionRange.REMOTE)
        assert (plan.kind, plan.focus_id, plan.advance_to) == (PlanKind.OBSERVE, "f0.living.sofa", 3)
        # the look settles the tally: the known cushion has no color yet
        assert extract_answer(chain, {}, plan, demo_truth.view(pose.anchor_id, plan.focus_id), graph) == "0"


class TestPlannerTail:
    """The final look: where each target kind has no rule, and where the
    full planner and the room-level ablation focus the look."""

    @pytest.mark.parametrize(
        "text",
        [
            "V2[kitchen]",
            "V1 -> V2[kitchen]",
            "count: V2[kitchen]",
            "count: V1 -> V1[ground floor]",
            "exists: V1[ground floor]",
            "exists: V1 -> V2[kitchen]",
        ],
    )
    def test_targets_above_the_object_layers_have_no_rule(self, demo_truth, text):
        chain = parse_pattern_string(text)
        with pytest.raises(PlanningDomainError):
            next_plan(chain, len(chain.steps) - 1, demo_truth.prior_graph(), entrance())

    @staticmethod
    def final_look(plan_for, graph):
        pose = entrance()
        for _ in range(20):
            plan = plan_for(pose)
            if plan.kind is PlanKind.OBSERVE:
                return plan
            assert plan.kind is PlanKind.MOVE_TO
            node = graph.node(plan.goal_id)
            pose = AgentPose(node.id, pose.steps_taken + 1)
        raise AssertionError("planner never looked")

    @pytest.mark.parametrize(
        "question,kind",
        [
            ("What color is the sofa in the living room?", "attribute"),
            ("What is the title of the book on the coffee table in the living room?", "attribute"),
            ("What is on top of the coffee table in the living room?", "object"),
            ("What is next to the sofa in the living room?", "object"),
            ("How many cups are on the dining table in the kitchen?", "count"),
            ("How many desks are in the living room?", "count"),
            ("Is there a person on the sofa in the living room?", "existence"),
            ("Is there a bed in the bedroom?", "existence"),
        ],
    )
    def test_both_planners_focus_the_final_look_alike(self, demo_truth, question, kind):
        graph = demo_truth.graph
        pq = TemplateBackend(graph).parse(question)
        chain, slots = pq.chain, pq.slots
        assert chain.target_kind.value == kind
        target = chain.steps[-1]
        attr_class = None
        if target.queried_attribute:
            attr_class = LookupPlanner().classify_attribute(target.queried_attribute, slots["object"])
        n = len(chain.steps)
        full = self.final_look(
            lambda pose: next_plan(chain, n - 1, graph, pose, attr_class=attr_class),
            graph,
        )
        look = room_look(chain, graph, slots)
        ablated = self.final_look(lambda pose: room_level_plan(look, pose), graph)
        assert full.advance_to == ablated.advance_to == n
        if kind in ("count", "existence"):
            # each focuses on the node it counts under: the full planner on
            # the support or the room, the ablation on the scope from its room
            assert graph.node(full.focus_id).layer == target.layer - 1
            assert ablated.focus_id == scope_node(chain, graph, AgentPose(look.room.id)).id
            assert full.focus_id in (ablated.focus_id, *(c.id for c in graph.children(ablated.focus_id)))
            assert len(tally_matches(graph, full.focus_id, target)) == len(tally_matches(graph, ablated.focus_id, target))
        else:
            assert full.focus_id == ablated.focus_id


# -- the outward search and the lazy sweep against full scans -------------


def reference_resolve_near_pose(graph, pose, label, layer, constraint=None):
    """The four-scope loop the planner ran before the outward search,
    each scope resolved by a scan over its subtree: the reference."""
    anchor = graph.node(pose.anchor_id) if pose.anchor_id in graph else None
    near = graph.position_of(anchor.id) if anchor else None
    scopes = []
    if anchor is not None:
        scopes.append(anchor.id)
        parent = graph.parent(anchor.id)
        if parent is not None:
            scopes.append(parent.id)
        if anchor.layer > Layer.ROOM:
            scopes.append(graph.room_of(anchor.id).id)
    scopes.append(None)
    for scope in dict.fromkeys(scopes):
        candidates = scan_resolve_label(graph, label, layer, scope, constraint, near)
        if candidates:
            return graph.node(candidates[0])
    return None


def pose_at(graph, anchor_id):
    return AgentPose(anchor_id, 0)


def resolve_queries(graph):
    """Exact, alias, head-word, plural, unknown and empty labels, and
    constraints that match, that no node has, and every value in the graph."""
    labels = {"couch", "tv", "fridge", "table", "unicorn", ""}
    for n in graph.nodes:
        labels.update({n.label, n.label.split()[-1], n.label + "s"})
    values = sorted({a for n in graph.nodes for a in n.attributes.items()})
    return sorted(labels), [None, ("color", "plaid"), *values]


def full_sweep(graph, scope, pose):
    """Every big object the sweep visits, from one sort of all of them: the
    scope's floor first and then the other floors in graph order, nearest
    room first within a floor and nearest object first within a room."""
    here = graph.position_of(pose.anchor_id) if pose.anchor_id in graph else None

    def near(node):
        pos = graph.position_of(node.id)
        return (math.dist(here, pos) if here and pos else math.inf, node.instance_index, node.id)

    floors = [f.id for f in graph.nodes_at(Layer.FLOOR)]
    if scope.layer is Layer.ROOM:
        bigs = [n for n in graph.children(scope.id) if n.layer is Layer.BIG_OBJECT]
    else:
        bigs = graph.nodes_at(Layer.BIG_OBJECT)

    def key(big):
        room = graph.parent(big.id)
        floor = graph.parent(room.id)
        return (floor.id != scope.id, floors.index(floor.id), near(room), near(big))

    return sorted(bigs, key=key)


class TestOutwardSearch:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(1, 10_000),
        floors=st.integers(1, 3),
        draws=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_outward_search_matches_the_four_scope_loop(self, seed, floors, draws, data):
        rng = random.Random(draws)
        world = load_world_truth(multi_floor_data(seed, floors))
        episode = world.prior_graph()
        anchors = sorted(n.id for n in world.graph.nodes)
        for anchor in data.draw(st.lists(st.sampled_from(anchors), max_size=8)):
            ingest_observation(episode, world.view(anchor))
        for graph in (world.graph, world.prior_graph(), episode):
            labels, constraints = resolve_queries(graph)
            for anchor in [*sorted(n.id for n in graph.nodes), "nowhere"]:
                pose = pose_at(graph, anchor)
                for label in labels:
                    layer = rng.choice((None, *Layer))
                    constraint = rng.choice(constraints)
                    want = reference_resolve_near_pose(graph, pose, label, layer, constraint)
                    assert graph.resolve_from(anchor, label, layer, constraint) is want, (
                        anchor, label, layer, constraint,
                    )

    def test_a_constraint_that_empties_the_inner_scopes_is_answered_further_out(self):
        graph = load_world_truth(random_world_data(11)).graph
        checked = 0
        for support in graph.nodes_at(Layer.BIG_OBJECT):
            for small in graph.children(support.id):
                here = [n for n in graph.children(support.id) if n.norm_label == small.norm_label]
                for twin in graph.nodes_at(Layer.SMALL_OBJECT):
                    if twin.norm_label != small.norm_label or twin in here:
                        continue
                    for attr, value in twin.attributes.items():
                        if any(n.attributes.get(attr, value) == value for n in here):
                            continue
                        pose = pose_at(graph, support.id)
                        found = graph.resolve_from(support.id, small.label, Layer.SMALL_OBJECT, (attr, value))
                        assert found is not None and found not in here
                        assert found is reference_resolve_near_pose(
                            graph, pose, small.label, Layer.SMALL_OBJECT, (attr, value)
                        )
                        checked += 1
        assert checked > 0

    @pytest.mark.parametrize("on_lamp", [False, True])  # the lamp, or a book on it
    @pytest.mark.parametrize("label", ["sofa", "couch", "table"])  # exact, alias, head word
    def test_the_anchors_room_answers_before_a_nearer_match_elsewhere(self, label, on_lamp):
        def big(node_id, name, x):
            return {"id": node_id, "label": name, "position": [x, 0.0]}

        world = load_world_truth(
            {
                "id": "two rooms",
                "entrance": "f0",
                "floors": [
                    {
                        "id": "f0",
                        "rooms": [
                            {
                                "id": "f0.a",
                                "label": "living room",
                                "position": [0.0, 0.0],
                                "big_objects": [
                                    big("f0.a.sofa", "sofa", 0.0),
                                    big("f0.a.table", "coffee table", 1.0),
                                    big("f0.a.lamp", "lamp", 10.0),
                                ],
                            },
                            {
                                "id": "f0.b",
                                "label": "den",
                                "position": [12.0, 0.0],
                                "big_objects": [
                                    big("f0.b.sofa", "sofa", 11.0),
                                    big("f0.b.table", "coffee table", 11.5),
                                ],
                            },
                        ],
                    }
                ],
            }
        )
        graph = world.prior_graph()
        book = add_small(graph, "f0.a.lamp", "book")
        pose = pose_at(graph, book.id if on_lamp else "f0.a.lamp")
        found = graph.resolve_from(pose.anchor_id, label, Layer.BIG_OBJECT)
        assert found.id.startswith("f0.a.")
        assert found is reference_resolve_near_pose(graph, pose, label, Layer.BIG_OBJECT)

    def test_a_label_nothing_matches_reads_no_scope(self, demo_truth, monkeypatch):
        graph = demo_truth.graph
        monkeypatch.setattr(type(graph), "_under", lambda *args: pytest.fail("scope read"))
        monkeypatch.setattr(type(graph), "position_of", lambda *args: pytest.fail("position read"))
        pose = pose_at(graph, "f0.living.table")
        assert pose.anchor_id in graph
        assert graph.resolve_from(pose.anchor_id, "unicorn", None) is None
        assert graph.resolve_from(pose.anchor_id, "sofa", Layer.SMALL_OBJECT) is None


def probe_labels(world):
    """Exact, plural, alias, head-word, multiword, unknown and empty labels:
    every label of the world's nodes, known to the graph yet or not."""
    labels = {"cups", "couch", "table", "coffee table", "potted plant", "unicorn", "big unicorn", ""}
    for n in world.graph.nodes:
        labels.update({n.label, n.label + "s", n.label.split()[-1]})
    return sorted(labels)


class TestLabelProbe:
    """resolve_from refuses a label no node carries with one probe of the
    label index; the probe changes no answer."""

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(1, 10_000),
        floors=st.integers(1, 3),
        draws=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_the_probe_changes_no_answer(self, seed, floors, draws, data):
        rng = random.Random(draws)
        world = load_world_truth(multi_floor_data(seed, floors))
        graph = world.prior_graph()
        labels = probe_labels(world)
        values = sorted({a for n in world.graph.nodes for a in n.attributes.items()})
        anchors = sorted(n.id for n in world.graph.nodes)
        folds = data.draw(st.lists(st.sampled_from(anchors), min_size=1, max_size=6))
        for folded in (False, True):
            if folded:
                for anchor in folds:
                    ingest_observation(graph, world.view(anchor))
            for anchor in [*sorted(n.id for n in graph.nodes), "nowhere"]:
                for label in labels:
                    for layer in (None, *Layer):
                        for constraint in (None, rng.choice(values)):
                            want = scan_resolve_from(graph, anchor, label, layer, constraint)
                            assert graph.resolve_from(anchor, label, layer, constraint) is graph.get(want), (
                                anchor, label, layer, constraint,
                            )

    def test_a_sweep_step_for_an_unseen_object_builds_no_scope(self, demo_truth, monkeypatch):
        calls = []
        for name in ("_outward_scopes", "resolve_label", "_outward"):
            real = getattr(SceneGraph, name)
            monkeypatch.setattr(SceneGraph, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        graph = demo_truth.prior_graph()
        chain = parse_pattern_string("V4[laptop] -> V2")  # as the parser gives "Which room is the laptop in?"
        pose, explored, steps = entrance(), frozenset(), 0
        while "laptop" not in {n.label for n in graph.nodes}:
            plan = next_plan(chain, 0, graph, pose, explored=explored)
            assert plan.kind is PlanKind.MOVE_TO and calls == []
            pose, explored = AgentPose(plan.goal_id, pose.steps_taken + 1), explored | {plan.goal_id}
            ingest_observation(graph, demo_truth.view(plan.goal_id))
            steps += 1
        assert steps > 1
        assert next_plan(chain, 0, graph, pose, explored=explored).value == "living room"
        assert "_outward" in calls

    @pytest.mark.parametrize("label", ["unicorn", "book"])  # refused by the probe, or found at no such layer
    def test_a_floor_room_or_big_object_miss_is_still_memoized(self, demo_truth, monkeypatch, label):
        graph = demo_truth.prior_graph()
        add_small(graph, "f0.living.table", "book")
        for layer in (Layer.FLOOR, Layer.ROOM, Layer.BIG_OBJECT):
            assert graph.resolve_from("f0.living", label, layer) is None
            assert graph._memo[("f0.living", label, layer)] is None
        monkeypatch.setattr(SceneGraph, "_outward", lambda *args: pytest.fail("searched"))
        for layer in (Layer.FLOOR, Layer.ROOM, Layer.BIG_OBJECT):
            assert graph.resolve_from("f0.living", label, layer) is None


class AskedAbout:
    """An explored set that holds every id and records each one asked about."""

    def __init__(self):
        self.asked = []

    def __contains__(self, node_id):
        self.asked.append(node_id)
        return True


def sweep_walk(graph, scope, pose):
    """The big objects _sweep_move walks, in order. With every id explored
    it asks about each of them, and last about a room scope itself."""
    explored = AskedAbout()
    assert _sweep_move(scope, graph, pose, explored) is None
    return [graph.node(i) for i in explored.asked if i != scope.id]


class TestLazySweep:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(1, 10_000), floors=st.integers(1, 3), data=st.data())
    def test_first_unexplored_anchor_matches_a_full_sort(self, seed, floors, data):
        graph = load_world_truth(multi_floor_data(seed, floors)).prior_graph()
        bigs = sorted(n.id for n in graph.nodes_at(Layer.BIG_OBJECT))
        scopes = [*graph.nodes_at(Layer.FLOOR), *graph.nodes_at(Layer.ROOM)]
        for anchor in [*sorted(n.id for n in graph.nodes), "nowhere"]:
            pose = pose_at(graph, anchor)
            explored = data.draw(st.frozensets(st.sampled_from(bigs)))
            for scope in scopes:
                order = full_sweep(graph, scope, pose)
                assert sweep_walk(graph, scope, pose) == order
                first = next((n for n in order if n.id not in explored), None)
                if first is None and scope.layer is Layer.ROOM and anchor != scope.id:
                    first = scope
                want = move_plan(first) if first is not None else None
                assert _sweep_move(scope, graph, pose, explored) == want

    def test_sweep_stops_at_the_first_unexplored_big_object(self, demo_truth, monkeypatch):
        graph = demo_truth.prior_graph()
        sorted_calls = []
        nearest_first = type(graph).nearest_first
        monkeypatch.setattr(
            type(graph),
            "nearest_first",
            lambda self, nodes, near: sorted_calls.append(1) or nearest_first(self, nodes, near),
        )
        plan = next_plan(parse_pattern_string("V4[phone] -> V2[?]"), 0, graph, entrance())
        assert plan.kind is PlanKind.MOVE_TO
        assert len(sorted_calls) == 2  # the floor's rooms, then the nearest room's objects
        assert len(graph.children("f0")) > 2

    def test_a_sweep_step_reads_one_position(self, demo_truth, monkeypatch):
        graph = demo_truth.prior_graph()
        positions = []
        position_of = SceneGraph.position_of
        monkeypatch.setattr(
            SceneGraph, "position_of", lambda self, node_id: positions.append(node_id) or position_of(self, node_id)
        )
        chain = parse_pattern_string("V4[phone] -> V2[?]")
        pose, explored = entrance(), frozenset()
        for _ in range(3):  # from the entrance, then from each support it moved to
            del positions[:]
            plan = next_plan(chain, 0, graph, pose, explored=explored)
            assert plan.kind is PlanKind.MOVE_TO and plan.goal_layer is Layer.BIG_OBJECT
            assert positions == [pose.anchor_id]
            pose, explored = AgentPose(plan.goal_id, 0), explored | {plan.goal_id}


def counting_nearest_first(monkeypatch):
    """A list that gets one entry per SceneGraph.nearest_first call."""
    calls = []
    nearest_first = SceneGraph.nearest_first
    monkeypatch.setattr(
        SceneGraph,
        "nearest_first",
        lambda self, nodes, near: calls.append(near) or nearest_first(self, nodes, near),
    )
    return calls


def every_sweep(graph):
    """Every sweep walk of the graph, from every anchor and for every scope."""
    scopes = [*graph.nodes_at(Layer.FLOOR), *graph.nodes_at(Layer.ROOM)]
    return {
        (anchor, scope.id): [n.id for n in sweep_walk(graph, scope, pose_at(graph, anchor))]
        for anchor in [*sorted(n.id for n in graph.nodes), "nowhere"]
        for scope in scopes
    }


def every_order(graph):
    """Each floor's and room's children nearest first, from every origin."""
    parents = [*graph.nodes_at(Layer.FLOOR), *graph.nodes_at(Layer.ROOM)]
    origins = [*sorted(n.id for n in graph.nodes), "nowhere"]
    points = {origin: graph.position_of(origin) if origin in graph else None for origin in origins}
    return {
        (p.id, origin): list(graph.child_ids_nearest_first(p.id, here))
        for p in parents
        for origin, here in points.items()
    }


def every_full_order(graph):
    """every_order from one sort per parent and origin: the reference."""
    parents = [*graph.nodes_at(Layer.FLOOR), *graph.nodes_at(Layer.ROOM)]
    out = {}
    for origin in [*sorted(n.id for n in graph.nodes), "nowhere"]:
        here = graph.position_of(origin) if origin in graph else None
        for p in parents:
            def key(n):
                pos = graph.position_of(n.id)
                return (math.dist(here, pos) if here and pos else math.inf, n.instance_index, n.id)

            out[p.id, origin] = [n.id for n in sorted(graph.children(p.id), key=key)]
    return out


def every_full_sweep(graph):
    scopes = [*graph.nodes_at(Layer.FLOOR), *graph.nodes_at(Layer.ROOM)]
    return {
        (anchor, scope.id): [n.id for n in full_sweep(graph, scope, pose_at(graph, anchor))]
        for anchor in [*sorted(n.id for n in graph.nodes), "nowhere"]
        for scope in scopes
    }


class TestSweepMemo:
    PHONE = "V4[phone] -> V2[?]"

    def test_a_second_plan_from_the_same_anchor_sorts_nothing(self, demo_truth, monkeypatch):
        calls = counting_nearest_first(monkeypatch)
        graph = demo_truth.prior_graph()
        first = next_plan(parse_pattern_string(self.PHONE), 0, graph, entrance())
        assert len(calls) == 2
        del calls[:]
        assert next_plan(parse_pattern_string(self.PHONE), 0, graph, entrance()) == first
        # another episode's graph reads the orders its world already sorted
        assert next_plan(parse_pattern_string(self.PHONE), 0, demo_truth.prior_graph(), entrance()) == first
        assert calls == []

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(1, 10_000), floors=st.integers(1, 3))
    def test_warm_orders_match_a_full_sort(self, seed, floors):
        world = load_world_truth(multi_floor_data(seed, floors))
        graph = world.prior_graph()
        want = every_full_sweep(graph)
        assert every_sweep(graph) == want
        assert every_sweep(graph) == want
        assert every_sweep(world.prior_graph()) == want

    @pytest.mark.parametrize(
        "layer,node_id,parent,position",
        [
            # a room next to the first room, which also moves its floor's centroid
            (Layer.ROOM, "f0.new", "f0", (0.0, 0.0)),
            # a room at a position another room has
            (Layer.ROOM, "f1.new", "f1", (12.0, 2.0)),
            # big objects at the far end of a room, and at another's spot
            (Layer.BIG_OBJECT, "f0.r0.new", "f0.r0", (-30.0, 2.0)),
            (Layer.BIG_OBJECT, "f0.r1.new", "f0.r1", (12.0, 2.0)),
        ],
    )
    def test_a_copy_that_adds_a_room_or_big_object_sorts_afresh(self, layer, node_id, parent, position):
        world = load_world_truth(multi_floor_data(7, 2))
        before = every_order(world.prior_graph())
        assert before == every_full_order(world.prior_graph())
        grown, sibling = world.prior_graph(), world.prior_graph()
        shared = sibling._memo
        grown.add_node(SceneNode(node_id, layer, "crate", position=position), parent)
        assert grown._memo is not shared
        assert every_order(grown) == every_full_order(grown)
        assert every_sweep(grown) == every_full_sweep(grown)
        assert any(node_id in order for order in every_order(grown).values())
        for kept in (sibling, world.prior_graph()):
            assert kept._memo is shared
            assert every_order(kept) == before

    def test_small_objects_keep_the_memo(self, demo_truth):
        graph = demo_truth.prior_graph()
        memo = graph._memo
        add_small(graph, "f0.living.sofa", "phone")
        assert graph._memo is memo
        assert every_sweep(graph) == every_full_sweep(graph)


def every_resolution(graph):
    """resolve_from of every floor, room and big-object label (and
    "crate") at each of those layers, from every anchor, by node id."""
    labels = sorted({n.label for n in graph.nodes if n.layer is not Layer.SMALL_OBJECT} | {"crate"})
    out = {}
    for anchor in [*sorted(n.id for n in graph.nodes), "nowhere"]:
        for label in labels:
            for layer in (Layer.FLOOR, Layer.ROOM, Layer.BIG_OBJECT):
                found = graph.resolve_from(anchor, label, layer)
                out[anchor, label, layer] = found.id if found else None
    return out


def every_reference_resolution(graph):
    """every_resolution from the four-scope scan: the reference."""
    out = {}
    for anchor, label, layer in every_resolution(graph):
        found = reference_resolve_near_pose(graph, pose_at(graph, anchor), label, layer)
        out[anchor, label, layer] = found.id if found else None
    return out


class TestResolutionMemo:
    @pytest.mark.parametrize(
        "layer,node_id,parent,position",
        [
            (Layer.ROOM, "f0.new", "f0", (0.0, 0.0)),
            (Layer.BIG_OBJECT, "f0.r0.new", "f0.r0", (-30.0, 2.0)),
            (Layer.BIG_OBJECT, "f0.r1.new", "f0.r1", (12.0, 2.0)),
        ],
    )
    def test_an_overlay_that_adds_a_room_or_big_object_resolves_afresh(self, layer, node_id, parent, position):
        world = load_world_truth(multi_floor_data(7, 2))
        sibling = world.prior_graph()
        before = every_resolution(sibling)
        assert before == every_reference_resolution(sibling)
        shared = sibling._memo
        stored = dict(shared)
        assert any(len(key) == 3 for key in stored)
        grown = world.prior_graph()
        grown.add_node(SceneNode(node_id, layer, "crate", position=position), parent)
        assert grown._memo is not shared
        assert every_resolution(grown) == every_reference_resolution(grown)
        assert node_id in every_resolution(grown).values()
        assert shared == stored
        for kept in (sibling, world.prior_graph()):
            assert kept._memo is shared
            assert every_resolution(kept) == before

    def test_two_overlays_share_the_templates_memo(self, demo_truth, monkeypatch):
        first, second = demo_truth.prior_graph(), demo_truth.prior_graph()
        assert first._memo is second._memo
        add_small(first, "f0.living.sofa", "phone")
        found = first.resolve_from(entrance().anchor_id, "desk", Layer.BIG_OBJECT)
        monkeypatch.setattr(SceneGraph, "_outward", lambda *args: pytest.fail("searched"))
        assert second.resolve_from(entrance().anchor_id, "desk", Layer.BIG_OBJECT) is found
