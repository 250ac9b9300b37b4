"""Observation model: what each anchor layer reveals, and movement."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from stepqa import scene_graph
from stepqa.agent import ingest_observation
from stepqa.environment import (
    AgentPose,
    Environment,
    MoveError,
    WorldTruth,
    load_world_prior,
    load_world_truth,
)
from stepqa.rules import Plan, PlanKind
from stepqa.scene_graph import (
    GraphValidationError,
    Layer,
    SceneGraph,
    SceneNode,
    UnknownNodeError,
    WorldFormatError,
    stands_in_for,
)
from stepqa.worldgen import random_world_data

from conftest import WORLDS, add_small, multi_floor_data, prior_data, small_id


def move(goal_id=None, label=None, layer=None) -> Plan:
    return Plan(kind=PlanKind.MOVE_TO, goal_id=goal_id, goal_label=label, goal_layer=layer)


def visible_ids(obs):
    return [v.node_id for v in obs.visible]


class TestReset:
    def test_starts_at_entrance_with_room_labels_only(self, demo_env):
        pose, obs = demo_env.reset()
        assert pose.anchor_id == "f0"
        assert obs.anchor_layer is Layer.FLOOR
        assert pose.steps_taken == 0
        assert {v.label for v in obs.visible} == {"living room", "kitchen", "bedroom", "study"}
        assert all(v.layer is Layer.ROOM for v in obs.visible)
        assert obs.revealed == {}

    def test_reset_rewinds_a_run(self, demo_env):
        demo_env.reset()
        demo_env.execute(move(goal_id="f0.living"))
        pose, _ = demo_env.reset()
        assert pose.anchor_id == "f0"
        assert pose.steps_taken == 0


class TestRoomAnchor:
    @pytest.fixture()
    def obs(self, demo_env):
        demo_env.reset()
        return demo_env.execute(move(goal_id="f0.living"))

    def test_big_objects_visible_with_containment(self, obs):
        assert set(visible_ids(obs)) == {
            "f0.living.table",
            "f0.living.sofa",
            "f0.living.desk1",
            "f0.living.desk2",
        }
        assert all(v.relation == "in" for v in obs.visible)

    def test_remote_attributes_revealed(self, obs):
        assert obs.revealed["f0.living.sofa"]["color"] == "blue"
        assert obs.revealed["f0.living.desk1"]["color"] == "white"
        assert obs.revealed["f0.living.desk2"]["color"] == "black"

    def test_close_range_attributes_held_back(self, obs):
        for attrs in obs.revealed.values():
            assert "material" not in attrs

    def test_small_objects_not_visible_from_the_room(self, obs):
        assert all(v.layer is not Layer.SMALL_OBJECT for v in obs.visible)


class TestBigObjectAnchor:
    @pytest.fixture()
    def env(self, demo_env):
        demo_env.reset()
        demo_env.execute(move(goal_id="f0.living"))
        return demo_env

    def test_small_objects_surface_with_placement(self, env):
        obs = env.execute(move(goal_id="f0.living.table"))
        by_id = {v.node_id: v for v in obs.visible}
        assert "f0.living.table.book.0" in by_id
        assert by_id["f0.living.table.book.0"].relation == "on"

    def test_remote_small_attributes_revealed_close_ones_not(self, env):
        obs = env.execute(move(goal_id="f0.living.table"))
        book = obs.revealed["f0.living.table.book.0"]
        assert book["color"] == "red"
        assert "title" not in book  # needs the close-up
        assert "state" not in book

    def test_anchor_reveals_its_own_attributes_in_full(self, env):
        obs = env.execute(move(goal_id="f0.living.table"))
        mine = obs.revealed["f0.living.table"]
        assert mine["material"] == "wood"  # close range, but we are here

    def test_held_placement_relation(self, env):
        obs = env.execute(move(goal_id="f0.living.sofa"))
        by_id = {v.node_id: v for v in obs.visible}
        assert by_id["f0.living.sofa.phone.0"].relation == "held"


class TestSmallObjectAnchor:
    def test_reveals_only_its_own_full_attributes(self, demo_env):
        demo_env.reset()
        demo_env.execute(move(goal_id="f0.living"))
        demo_env.execute(move(goal_id="f0.living.table"))
        obs = demo_env.execute(move(goal_id="f0.living.table.book.0"))
        assert obs.anchor_id == "f0.living.table.book.0"
        assert obs.visible == ()
        assert obs.revealed == {
            "f0.living.table.book.0": {
                "title": "war and peace",
                "color": "red",
                "state": "open",
            }
        }


def test_close_range_values_never_leak_from_a_distance(demo_truth):
    """Sweep every anchor: close-only values appear only at the node itself."""
    env = Environment(demo_truth)
    for node in demo_truth.graph.nodes:
        env.reset()
        env.pose = AgentPose(node.id, 0)
        obs = env.observe()
        for nid, attrs in obs.revealed.items():
            if nid == node.id:
                continue
            hidden = demo_truth.close_only.get(nid, frozenset())
            assert not hidden & set(attrs), (node.id, nid, attrs)


class TestOcclusion:
    def test_occluded_small_object_missing_from_support_view(self, occluded_truth):
        env = Environment(occluded_truth)
        env.reset()
        env.execute(move(goal_id="f0.living"))
        obs = env.execute(move(goal_id="f0.living.sofa"))
        labels = [v.label for v in obs.visible]
        assert labels.count("cushion") == 2  # third one is tucked away
        clear = Environment(load_world_truth("worlds/clutter_clear.json"))
        clear.reset()
        clear.execute(move(goal_id="f0.living"))
        obs2 = clear.execute(move(goal_id="f0.living.sofa"))
        assert [v.label for v in obs2.visible].count("cushion") == 3

    def test_occluded_object_still_reachable_by_direct_id(self, occluded_truth):
        env = Environment(occluded_truth)
        env.reset()
        obs = env.execute(move(goal_id="f0.living.sofa.cushion.2"))
        assert not obs.move_failed
        assert obs.revealed["f0.living.sofa.cushion.2"]["color"] == "yellow"


class TestMovement:
    def test_every_move_costs_a_step_and_observes(self, demo_env):
        demo_env.reset()
        obs = demo_env.execute(move(goal_id="f0.kitchen"))
        assert demo_env.pose.steps_taken == 1
        assert obs.anchor_id == "f0.kitchen"

    def test_label_goals_resolve_near_the_anchor(self, demo_env):
        demo_env.reset()
        demo_env.execute(move(goal_id="f0.living"))
        demo_env.execute(move(goal_id="f0.living.table"))
        obs = demo_env.execute(move(label="sofa", layer=Layer.BIG_OBJECT))
        assert obs.anchor_id == "f0.living.sofa"

    def test_ambiguous_label_prefers_the_current_room(self, demo_env):
        demo_env.reset()
        demo_env.execute(move(goal_id="f0.kitchen"))
        obs = demo_env.execute(move(label="table", layer=Layer.BIG_OBJECT))
        assert obs.anchor_id == "f0.kitchen.table"

    @pytest.mark.parametrize("layer", [Layer.BIG_OBJECT, None])
    def test_label_goals_search_the_floor_before_other_floors(self, layer):
        def room(rid, label, x, bigs):
            big_objects = [{"id": f"{rid}.{b}", "label": b, "position": [bx, 1]} for b, bx in bigs]
            return {"id": rid, "label": label, "position": [x, 0], "big_objects": big_objects}

        world = load_world_truth(
            {
                "id": "two floors",
                "floors": [
                    {
                        "id": "f0",
                        "rooms": [room("f0.hall", "hall", 0, []), room("f0.study", "study", 20, [("desk", 20)])],
                    },
                    {"id": "f1", "rooms": [room("f1.office", "office", 1, [("desk", 1)])]},
                ],
            }
        )
        env = Environment(world)
        env.reset()
        env.execute(move(goal_id="f0.hall"))
        planned = world.prior_graph().resolve_from(env.pose.anchor_id, "desk", layer)
        obs = env.execute(move(label="desk", layer=layer))
        # the nearer desk is upstairs; the planner and the move both stay on this floor
        assert obs.anchor_id == planned.id == "f0.study.desk"

    def test_failed_move_sets_the_flag_and_keeps_the_pose(self, demo_env):
        demo_env.reset()
        demo_env.execute(move(goal_id="f0.living"))
        obs = demo_env.execute(move(label="aquarium", layer=Layer.BIG_OBJECT))
        assert obs.move_failed
        assert demo_env.pose.anchor_id == "f0.living"
        assert demo_env.pose.steps_taken == 2  # failed attempts still cost

    def test_observe_plans_are_free(self, demo_env):
        demo_env.reset()
        demo_env.execute(move(goal_id="f0.living"))
        demo_env.execute(Plan(kind=PlanKind.OBSERVE))
        assert demo_env.pose.steps_taken == 1

    def test_answer_plans_are_not_executable(self, demo_env):
        demo_env.reset()
        with pytest.raises(MoveError):
            demo_env.execute(Plan(kind=PlanKind.ANSWER, value="whatever"))


class TestObservationShape:
    def test_to_dict_is_stable_and_json_friendly(self, demo_env):
        import json

        demo_env.reset()
        obs = demo_env.execute(move(goal_id="f0.living"))
        d = obs.to_dict()
        assert set(d) == {"step", "anchor", "anchor_layer", "visible", "revealed", "move_failed"}
        assert d["anchor_layer"] == "V2"
        json.dumps(d)  # nothing exotic inside

    def test_observation_steps_count_up(self, demo_env):
        # an observation carries no step; the trace event that holds it does
        _, first = demo_env.reset()
        second = demo_env.execute(move(goal_id="f0.living"))
        third = demo_env.execute(move(label="aquarium", layer=Layer.BIG_OBJECT))
        observations = (first, second, third)
        assert "step" not in first._fields
        assert [o.to_dict(t)["step"] for t, o in enumerate(observations)] == [0, 1, 2]
        assert [o.move_failed for o in observations] == [False, False, True]


class TestWorldTruthLoading:
    def test_demo_world_inventory(self, demo_truth):
        g = demo_truth.graph
        assert len(g.nodes_at(Layer.ROOM)) == 4
        assert len(g.nodes_at(Layer.BIG_OBJECT)) == 9
        assert len(g.nodes_at(Layer.SMALL_OBJECT)) == 14
        assert demo_truth.entrance == "f0"

    def test_prior_graph_hides_discoveries(self, demo_truth):
        prior = demo_truth.prior_graph()
        assert prior.nodes_at(Layer.SMALL_OBJECT) == []
        assert all(n.attributes == {} for n in prior.nodes)
        # but keeps the furniture and the map between rooms
        assert len(prior.nodes_at(Layer.BIG_OBJECT)) == 9
        assert prior.spatial_relation("f0.living.table", "f0.living.sofa") == "next-to"

    def test_prior_graphs_are_independent_copies(self, demo_truth, demo_env):
        def snapshot(graph):
            return [n.to_dict() for n in graph.nodes], list(graph.spatial_edges)

        truth_before = snapshot(demo_truth.graph)
        first, second = demo_truth.prior_graph(), demo_truth.prior_graph()
        assert first is not second
        template = demo_truth._prior_template
        template_before = snapshot(template)
        index_before = {k: dict(v) for k, v in template._index._asdict().items()}
        sofa = template.node("f0.living.sofa")

        add_small(first, "f0.kitchen.table", "spoon", {"color": "silver"})
        first.update_attributes("f0.living.sofa", {"color": "green"})
        add_small(first, "f0.living.table", "book", {"title": "dune"})
        demo_env.reset()
        ingest_observation(first, demo_env.execute(move(goal_id="f0.living")))
        ingest_observation(first, demo_env.execute(move(goal_id="f0.living.table")))
        assert first.nodes_at(Layer.SMALL_OBJECT)
        assert first.node("f0.living.sofa").attributes["color"] == "blue"
        assert first.node("f0.living.table").attributes == {"color": "brown", "material": "wood"}
        assert [n.id for n in first.resolve_label("spoon")] == ["f0.kitchen.table.spoon.0"]

        for untouched in (second, demo_truth.prior_graph()):
            assert untouched.nodes_at(Layer.SMALL_OBJECT) == []
            assert all(n.attributes == {} for n in untouched.nodes)
            assert untouched.resolve_label("spoon") == []
            assert untouched.node("f0.living.sofa") is sofa
        assert snapshot(template) == template_before
        assert {k: dict(v) for k, v in template._index._asdict().items()} == index_before
        assert snapshot(demo_truth.graph) == truth_before

    def test_copies_of_copies_stay_apart(self, demo_truth):
        parent = demo_truth.prior_graph()
        # the child shares what the parent wrote and added before the copy
        parent.update_attributes("f0.living.sofa", {"color": "blue"})
        add_small(parent, "f0.living.sofa", "phone")
        child = parent.copy()
        parent.update_attributes("f0.living.sofa", {"material": "leather"})
        add_small(parent, "f0.living.sofa", "book")
        child.update_attributes("f0.living.sofa", {"color": "green"})
        add_small(child, "f0.living.sofa", "cushion", {"color": "white"})
        parent.update_attributes("f0.kitchen.table", {"color": "brown"})

        assert parent.node("f0.living.sofa").attributes == {"color": "blue", "material": "leather"}
        assert child.node("f0.living.sofa").attributes == {"color": "green"}
        assert child.node("f0.kitchen.table").attributes == {}
        assert [n.label for n in parent.children("f0.living.sofa")] == ["phone", "book"]
        assert [n.label for n in child.children("f0.living.sofa")] == ["phone", "cushion"]
        assert parent.resolve_label("cushion") == [] and child.resolve_label("book") == []
        assert [n.label for n in child.resolve_label("phone")] == ["phone"]
        assert all(n.attributes == {} for n in demo_truth.prior_graph().nodes)

    def test_a_prior_with_a_room_without_position_is_refused(self):
        # refused as the room enters the graph, before any world holds it
        graph = SceneGraph()
        graph.add_node(SceneNode("f0", Layer.FLOOR, "floor"))
        with pytest.raises(GraphValidationError, match="node f0.hall at V2 has no position"):
            graph.add_node(SceneNode("f0.hall", Layer.ROOM, "hall"), "f0")
        assert "f0.hall" not in graph

    def test_the_prior_keeps_no_spatial_edge_between_small_objects(self, demo_truth):
        graph = demo_truth.graph
        graph.add_spatial_edge("f0.living.table.book.0", "f0.living.table.potted_plant.0", "next-to")
        prior = demo_truth.prior_graph()
        assert prior.spatial_edges == graph.spatial_edges[:-1]

    def test_prior_graph_built_by_racing_threads_is_the_same(self, demo_path):
        world = load_world_truth(demo_path)
        fresh = load_world_truth(demo_path).prior_graph()
        expected = [n.to_dict() for n in fresh.nodes]
        labels = sorted({n.label for n in fresh.nodes} | {"table", "couch", "tables"})

        def lookups(graph):
            return [[n.id for n in graph.resolve_label(label, layer)] for label in labels for layer in (None, *Layer)]

        expected_lookups = lookups(fresh)
        workers = 4
        start = threading.Barrier(workers)

        def build(_):
            start.wait(timeout=10)
            graph = world.prior_graph()
            return graph, lookups(graph)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(build, i) for i in range(workers)]
                graphs = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len({id(g) for g, _ in graphs}) == workers
        for graph, found in graphs:
            assert [n.to_dict() for n in graph.nodes] == expected
            assert found == expected_lookups
            assert lookups(graph) == expected_lookups

    def test_a_dict_without_an_id_is_named_world(self):
        data = random_world_data(1)
        del data["id"]
        assert load_world_truth(data).world_id == "world"

    def test_a_file_name_that_opens_with_a_brace_is_read_as_a_path(self, tmp_path, monkeypatch):
        data = random_world_data(1)
        del data["id"]
        (tmp_path / "{draft}.json").write_text(json.dumps(data))
        monkeypatch.chdir(tmp_path)
        assert load_world_truth("{draft}.json").world_id == "{draft}"

    def test_file_without_an_id_is_named_after_the_file(self, tmp_path):
        data = random_world_data(1)
        del data["id"]
        path = tmp_path / "attic.json"
        path.write_text(json.dumps(data))
        assert load_world_truth(path).world_id == "attic"
        assert load_world_truth(str(path)).world_id == "attic"

    def test_a_spatial_edge_may_not_name_a_small_object(self, demo_path):
        data = json.loads(demo_path.read_text())
        data["spatial_edges"].append({"a": "f0.living.table.book.0", "b": "f0.living.table.potted_plant.0", "relation": "next-to"})
        with pytest.raises(WorldFormatError, match="references unknown node 'f0.living.table.book.0'"):
            load_world_truth(data)

    def test_unknown_entrance_rejected(self, demo_truth):
        with pytest.raises(Exception):
            WorldTruth(demo_truth.graph, entrance="f9")

    def test_close_only_must_name_real_attributes(self, tmp_path):
        import json

        data = {
            "id": "w",
            "floors": [
                {
                    "id": "f0",
                    "label": "ground floor",
                    "rooms": [
                        {
                            "id": "f0.a",
                            "label": "den",
                            "position": [0, 0],
                            "big_objects": [
                                {
                                    "id": "f0.a.t",
                                    "label": "table",
                                    "position": [1, 0],
                                    "small_objects": [
                                        {
                                            "id": "f0.a.t.b",
                                            "label": "book",
                                            "attributes": {"color": "red"},
                                            "close_only": ["title"],
                                        }
                                    ],
                                }
                            ],
                        }
                    ],
                }
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        from stepqa.environment import WorldFormatError

        with pytest.raises(WorldFormatError):
            load_world_truth(p)


def _big(data, room=0, big=0):
    return data["floors"][0]["rooms"][room]["big_objects"][big]


_BIG0 = "floors[0].rooms[0].big_objects[0]"

# (break one thing in demo_house, where the loader must say it broke)
LOADER_REJECTIONS = {
    "floors_empty": (lambda d: d.update(floors=[]), "world"),
    "rooms_not_array": (lambda d: d["floors"][0].update(rooms={}), "floors[0]"),
    "room_without_position": (lambda d: d["floors"][0]["rooms"][1].pop("position"), "floors[0].rooms[1]"),
    "big_objects_not_array": (lambda d: d["floors"][0]["rooms"][2].update(big_objects="bed"), "floors[0].rooms[2]"),
    "bad_big_position": (lambda d: _big(d, 1, 1).update(position=[1.0]), "floors[0].rooms[1].big_objects[1]"),
    "attributes_not_object": (lambda d: _big(d).update(attributes=["brown"]), _BIG0),
    "close_only_not_array": (lambda d: _big(d).update(close_only="material"), _BIG0),
    "small_objects_not_array": (lambda d: _big(d).update(small_objects={"label": "book"}), _BIG0),
    "small_without_label": (lambda d: _big(d)["small_objects"][0].pop("label"), f"{_BIG0}.small_objects[0]"),
    "small_is_a_string": (lambda d: _big(d)["small_objects"].__setitem__(0, "book"), f"{_BIG0}.small_objects[0]"),
    "unknown_small_relation": (
        lambda d: _big(d)["small_objects"][1].update(relation="orbiting"),
        f"{_BIG0}.small_objects[1]",
    ),
    "spatial_edges_not_array": (lambda d: d.update(spatial_edges={}), "world"),
    "edge_to_unknown_node": (
        lambda d: d["spatial_edges"].append({"a": "f0.living.table", "b": "f0.attic", "relation": "next-to"}),
        "spatial_edges[4]",
    ),
    "edge_relation_orbiting": (
        lambda d: d["spatial_edges"].append({"a": "f0.living.table", "b": "f0.living.sofa", "relation": "orbiting"}),
        "spatial_edges[4]",
    ),
    "edge_big_object_to_room": (
        lambda d: d["spatial_edges"].append({"a": "f0.living.table", "b": "f0.kitchen", "relation": "next-to"}),
        "spatial_edges[4]",
    ),
    "unknown_entrance": (lambda d: d.update(entrance="f9"), "entrance"),
    "occluded_from_parent_string": (
        lambda d: _big(d)["small_objects"][0].update(occluded_from_parent="false"),
        f"{_BIG0}.small_objects[0]: occluded_from_parent must be a boolean, not 'false'",
    ),
    "occluded_from_parent_number": (
        lambda d: _big(d)["small_objects"][1].update(occluded_from_parent=0.5),
        f"{_BIG0}.small_objects[1]: occluded_from_parent must be a boolean, not 0.5",
    ),
    "null_attribute_value": (
        lambda d: _big(d)["attributes"].update(color=None),
        f"{_BIG0}: attributes.color must be a string or a number, not null",
    ),
    "boolean_attribute_value": (
        lambda d: _big(d)["attributes"].update(color=True),
        f"{_BIG0}: attributes.color must be a string or a number, not bool",
    ),
    "array_attribute_value": (
        lambda d: _big(d)["small_objects"][0]["attributes"].update(color=["a", "b"]),
        f"{_BIG0}.small_objects[0]: attributes.color must be a string or a number, not list",
    ),
    "null_room_id": (
        lambda d: d["floors"][0]["rooms"][1].update(id=None),
        "floors[0].rooms[1]: id must be a string or a number, not null",
    ),
    "object_label": (
        lambda d: _big(d, 1).update(label={"en": "table"}),
        "floors[0].rooms[1].big_objects[0]: label must be a string or a number, not dict",
    ),
    "boolean_position": (
        lambda d: d["floors"][0]["rooms"][1].update(position=[True, False]),
        "floors[0].rooms[1]: position must be [x, y] in meters",
    ),
    "close_only_names_an_array": (
        lambda d: _big(d).update(close_only=[["material"]]),
        f"{_BIG0}: close_only names absent attribute ['material']",
    ),
    "duplicate_room_id": (
        lambda d: d["floors"][0]["rooms"][1].update(id="f0.living"),
        "floors[0].rooms[1]: duplicate node id: f0.living",
    ),
    "duplicate_big_object_id_in_another_room": (
        lambda d: _big(d, 1).update(id="f0.living.table"),
        "floors[0].rooms[1].big_objects[0]: duplicate node id: f0.living.table",
    ),
    "big_object_with_a_small_objects_id": (
        lambda d: _big(d, 1, 1).update(id="f0.living.table.book.0"),
        "floors[0].rooms[1].big_objects[1]: duplicate node id: f0.living.table.book.0",
    ),
    "small_object_with_a_big_objects_id": (
        lambda d: _big(d, 0, 3).update(id="f0.kitchen.table.cup.0"),
        "floors[0].rooms[1].big_objects[0].small_objects[0]: duplicate node id: f0.kitchen.table.cup.0",
    ),
}


@pytest.mark.parametrize("case", sorted(LOADER_REJECTIONS))
def test_the_loader_names_where_a_world_file_breaks(case, demo_path):
    from stepqa.scene_graph import WorldFormatError

    breaks, locus = LOADER_REJECTIONS[case]
    data = json.loads(demo_path.read_text())
    breaks(data)
    with pytest.raises(WorldFormatError) as caught:
        load_world_truth(data)
    assert locus in str(caught.value)


def test_the_loader_reads_a_number_as_its_text(demo_path):
    data = json.loads(demo_path.read_text())
    _big(data).update(attributes={"color": "brown", "material": 3, "height": 0.5})
    _big(data)["small_objects"][0].update(label=42)
    graph = load_world_truth(data).graph
    assert graph.node("f0.living.table").attributes == {"color": "brown", "material": "3", "height": "0.5"}
    assert graph.node("f0.living.table.42.0").label == "42"


VIEW_WORLDS = ["demo_house.json", "clutter_clear.json", "clutter_occluded.json", "random"]


def _load(name, worlds_dir):
    if name == "random":
        return load_world_truth(random_world_data(11, rooms=4, small_range=(1, 3)))
    return load_world_truth(worlds_dir / name)


def _shown(obs):
    return obs.anchor_layer, obs.visible, obs.revealed


class TestViewCache:
    """Views are memoized per world; a shared view must equal a fresh build."""

    @pytest.mark.parametrize("name", VIEW_WORLDS)
    def test_cached_views_equal_fresh_builds(self, name, demo_path):
        world = _load(name, demo_path.parent)
        node_ids = [n.id for n in world.graph.nodes]
        focuses = [None, *node_ids]
        for anchor_id in node_ids:
            for focus_id in focuses:
                world.view(anchor_id, focus_id)
        env = Environment(world)
        fresh = _load(name, demo_path.parent)
        for anchor_id in reversed(node_ids):
            for focus_id in reversed(focuses):
                env.pose = AgentPose(anchor_id)
                want = Environment(fresh)
                want.pose = AgentPose(anchor_id)
                assert _shown(env.observe(focus_id)) == _shown(want.observe(focus_id)), (anchor_id, focus_id)

    def test_focus_outside_the_graph_uses_the_anchor(self, demo_truth):
        assert demo_truth.view("f0.living", "nowhere") is demo_truth.view("f0.living")

    def test_observations_share_the_views_parts(self, demo_env):
        demo_env.reset()
        plans = [
            move(goal_id="f0.living"),
            Plan(kind=PlanKind.OBSERVE, focus_id="f0.living.sofa"),
            move(label="aquarium", layer=Layer.BIG_OBJECT),
        ]
        for plan in plans:
            obs = demo_env.execute(plan)
            view = demo_env.world.view(obs.anchor_id, plan.focus_id)
            if obs.move_failed:
                # a failed move marks a copy, never the shared view
                assert obs == view._replace(move_failed=True) and not view.move_failed
                assert obs.visible is view.visible and obs.revealed is view.revealed
            else:
                assert obs is view
            assert view.fold is demo_env.world.view(obs.anchor_id).fold

    def test_unknown_anchor_raises(self, demo_env):
        demo_env.pose = AgentPose("nowhere")
        with pytest.raises(UnknownNodeError):
            demo_env.observe()

    def test_revealed_is_read_only_at_both_levels(self, demo_env):
        demo_env.reset()
        obs = demo_env.execute(move(goal_id="f0.living"))
        with pytest.raises(TypeError):
            obs.revealed["f0.living.sofa"] = {"color": "green"}
        with pytest.raises(TypeError):
            obs.revealed["f0.living.sofa"]["color"] = "green"
        again = Environment(demo_env.world).execute(move(goal_id="f0.living"))
        assert again.revealed["f0.living.sofa"]["color"] == "blue"

    def test_views_built_by_racing_threads_are_shared(self, demo_path):
        world = load_world_truth(demo_path)
        fresh = load_world_truth(demo_path)
        keys = [(n.id, f) for n in world.graph.nodes for f in (None, "f0.living.sofa")]
        workers = 4
        start = threading.Barrier(workers)

        def fill(i):
            start.wait(timeout=10)
            order = keys if i % 2 else list(reversed(keys))
            return {key: world.view(*key) for key in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(fill, i) for i in range(workers)]
                results = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for key in keys:
            assert results[0][key] == fresh.view(*key)
            # threads that lost the race return the kept view, not their own
            assert all(r[key] is world.view(*key) for r in results)


# -- folding a view by reference ---------------------------------------------


@pytest.mark.parametrize(
    "source",
    [*sorted(WORLDS.glob("*.json")), random_world_data(5, rooms=6, big_range=(4, 5), small_range=(20, 30))],
    ids=lambda s: s.stem if hasattr(s, "stem") else "cluttered",
)
def test_each_revealed_node_is_paired_with_the_nodes_it_stands_in_for(source):
    world = load_world_truth(source)
    template = world._template()
    paired = paired_above = 0
    for anchor in world.graph.nodes:
        fold = world.view(anchor.id).fold
        assert len(fold.replaces) == len(fold.also_replaces) == len(fold.revealed)
        parent = world.graph.parent(anchor.id)
        above = {}
        if parent is not None:
            # the nodes the parent's view adopts or reveals
            parent_fold = world.view(parent.id).fold
            above = {n.id: n for n in (*(parent_fold.adopted.nodes if parent_fold.adopted else ()), *parent_fold.revealed)}
        for seen, known, also in zip(fold.revealed, fold.replaces, fold.also_replaces):
            assert also is above.get(seen.id)
            if also is not None:
                assert stands_in_for(seen, also)
                paired_above += 1
            if seen.layer is Layer.SMALL_OBJECT:
                assert known is None  # the template holds no small object
                continue
            assert known is template.node(seen.id)
            assert stands_in_for(seen, known)
            paired += 1
        if fold.adopted is not None:  # a node is adopted or revealed, not both
            assert not {n.id for n in fold.revealed} & set(fold.adopted.ids)
    assert paired and paired_above


CLUTTERED = dict(rooms=6, big_range=(4, 5), small_range=(20, 30))


def reference_ingest(graph, obs):
    """ingest_observation as a fold of the observation's own parts, one
    node at a time, that builds and merges every node itself: the reference."""
    complete = obs.anchor_id in graph
    for v in obs.visible:
        if v.node_id in graph:
            continue
        if v.layer is Layer.SMALL_OBJECT and obs.anchor_layer is Layer.BIG_OBJECT:
            tail = v.node_id.rsplit(".", 1)[-1]
            node = SceneNode(v.node_id, v.layer, v.label, int(tail) if tail.isdigit() else 0)
            graph.add_node(node, obs.anchor_id)
        else:
            complete = False
    for node_id, attrs in obs.revealed.items():
        if node_id in graph:
            graph.update_attributes(node_id, attrs)
        else:
            complete = False
    return complete


def occluded_world_data(seed, floors, occlude, **world):
    """multi_floor_data with the small objects whose index is in occlude
    hidden from their support's view."""
    data = multi_floor_data(seed, floors, **world)
    bigs = [b for f in data["floors"] for r in f["rooms"] for b in r["big_objects"]]
    for i, small in enumerate(s for b in bigs for s in b["small_objects"]):
        small["occluded_from_parent"] = i in occlude
    return data


def fold_ops(world, data):
    """A drawn sequence of looks (anchor, focus) and of writes through
    update_attributes and adds of small objects, some of them of true values. A
    write may be followed by a look that shows the node written."""
    truth = world.graph
    ids = sorted(n.id for n in truth.nodes)
    objects = sorted(n.id for n in truth.nodes if n.layer >= Layer.BIG_OBJECT)
    bigs = sorted(n.id for n in truth.nodes_at(Layer.BIG_OBJECT))
    names = sorted({k for n in truth.nodes for k in n.attributes} | {"state"})
    values = sorted({v for n in truth.nodes for v in n.attributes.values()} | {"plaid"})
    smalls = [n.label for n in truth.nodes_at(Layer.SMALL_OBJECT)]
    labels = sorted({*smalls, *(label + "s" for label in smalls), "cup", "Cup"})
    # half the looks are at a support, whose fold adopts its small objects
    anchors = st.one_of(st.sampled_from(ids), st.sampled_from(bigs))
    look = st.tuples(st.just("look"), anchors, st.one_of(st.none(), st.sampled_from(ids)))
    write = st.tuples(
        st.just("set"), st.sampled_from(objects), st.sampled_from(names), st.sampled_from(values)
    )

    def true_value(node_id):
        # one of the node's own values, or a value for a name it lacks
        items = sorted(truth.node(node_id).attributes.items()) or [("state", "plaid")]
        return st.sampled_from(items).map(lambda item: ("set", node_id, *item))

    true = st.sampled_from(objects).flatmap(true_value)

    def labels_for(big):
        # the support's own labels, respelled, so an added node may take the id of one it holds
        own = sorted({spelling for n in truth.children(big) for spelling in (n.label, n.label.title())})
        return st.one_of(st.sampled_from(labels), *([st.sampled_from(own)] if own else []))

    add = st.sampled_from(bigs).flatmap(
        lambda big: st.tuples(
            st.just("add"),
            st.just(big),
            labels_for(big),
            st.dictionaries(st.sampled_from(names), st.sampled_from(values), max_size=2),
            st.integers(0, 2),
        )
    )

    def then_look(op):
        # a look at the written node or at its parent, which may reveal it
        near = [op[1], truth.parent(op[1]).id]
        return st.tuples(st.just(op), st.tuples(st.just("look"), st.sampled_from(near), st.none()))

    step = st.one_of(look.map(lambda op: (op,)), st.one_of(write, true, add).flatmap(then_look))
    return [op for ops in data.draw(st.lists(step, min_size=4, max_size=16)) for op in ops]


def run_fold_ops(world, ops, ingest):
    """A fresh prior graph grown by the ops, and the complete flag of each look."""
    graph = world.prior_graph()
    flags = []
    for op in ops:
        if op[0] == "look":
            flags.append(ingest(graph, world.view(op[1], op[2])))
        elif op[0] == "set":
            if op[1] in graph:
                graph.update_attributes(op[1], {op[2]: op[3]})
        else:
            _, big, label, attributes, index = op
            node_id = small_id(big, label, index)
            if node_id in graph:  # the graph holds a node with this id: merge into it
                graph.update_attributes(node_id, attributes)
            else:
                add_small(graph, big, label, attributes, index)
    return graph, flags


def graph_state(graph):
    """Nodes with their attributes and children, and what label lookups find."""
    nodes = [(n.to_dict(), [c.id for c in graph.children(n.id)]) for n in graph.nodes]
    labels = sorted({"cup", "couch", "table", "unicorn", *(n.label + end for n in graph.nodes for end in ("", "s"))})
    scopes = [None, *(n.id for n in graph.nodes if n.layer <= Layer.BIG_OBJECT)]
    constraints = [None, *sorted({a for n in graph.nodes for a in n.attributes.items()})[:4]]
    found = [
        [n.id for n in graph.resolve_label(label, layer, scope, constraint)]
        for label in labels
        for layer in (None, Layer.SMALL_OBJECT)
        for scope in scopes[::3]
        for constraint in constraints
    ]
    under = [
        [n.id for n in graph.matches_under(scope, query, layer)]
        for scope in scopes[1:]
        for query in (None, *labels[::2])
        for layer in (Layer.BIG_OBJECT, Layer.SMALL_OBJECT)
    ]
    return nodes, found, under


def assert_world_untouched(world, source):
    """The world's graph, prior template and cached views equal a fresh
    load's, fold nodes and their attributes included."""
    fresh = load_world_truth(source)
    assert [n.to_dict() for n in world.graph.nodes] == [n.to_dict() for n in fresh.graph.nodes]
    template = [n.to_dict() for n in world._prior_template.nodes]
    assert template == [n.to_dict() for n in fresh.prior_graph().nodes]
    for key, view in world._views.items():
        want = fresh.view(*key)
        assert view == want and view.to_dict() == want.to_dict(), key


class TestFoldByReference:
    """A view's fold, taken by reference, grows a graph exactly as folding
    the view's parts node by node does, and writes nothing it shares."""

    def test_a_graph_takes_the_views_nodes_and_clones_them_to_write(self, demo_truth):
        graph = demo_truth.prior_graph()
        room, table = demo_truth.view("f0.living"), demo_truth.view("f0.living.table")
        assert ingest_observation(graph, room) and ingest_observation(graph, table)
        sofa = next(n for n in room.fold.revealed if n.id == "f0.living.sofa")
        assert graph.node("f0.living.sofa") is sofa
        assert [graph.node(n.id) for n in table.fold.adopted.nodes] == list(table.fold.adopted.nodes)
        assert all(graph.node(n.id) is n for n in table.fold.adopted.nodes)
        graph.update_attributes("f0.living.sofa", {"color": "green"})
        book = graph.update_attributes("f0.living.table.book.0", {"color": "blue"})
        assert graph.node("f0.living.sofa").attributes["color"] == "green"
        assert book.attributes == {"color": "blue"} and graph.node(book.id) is book
        assert sofa.attributes["color"] == "blue" and room.revealed["f0.living.sofa"]["color"] == "blue"
        assert table.revealed["f0.living.table.book.0"] == {"color": "red"}
        assert next(n for n in table.fold.adopted.nodes if n.id == book.id).attributes == {"color": "red"}
        assert demo_truth.prior_graph().node("f0.living.sofa").attributes == {}

    def test_a_value_the_view_does_not_reveal_is_kept(self, demo_truth):
        graph = demo_truth.prior_graph()
        graph.update_attributes("f0.living.sofa", {"material": "fabric"})
        graph.update_attributes("f0.living.sofa", {"color": "green"})
        assert ingest_observation(graph, demo_truth.view("f0.living"))
        assert graph.node("f0.living.sofa").attributes == {"material": "fabric", "color": "blue"}
        assert demo_truth.view("f0.living").revealed["f0.living.sofa"] == {"color": "blue"}

    def test_a_relabelled_node_is_merged_not_replaced(self, demo_truth):
        graph = demo_truth.prior_graph()
        add_small(graph, "f0.living.table", "books")
        assert ingest_observation(graph, demo_truth.view("f0.living.table"))
        book = graph.node("f0.living.table.book.0")
        assert (book.label, book.attributes) == ("books", {"color": "red"})

    def test_a_view_showing_a_node_the_graph_lacks_is_not_complete(self, demo_truth, demo_path):
        # a graph that is not the world's own prior: the floor without its study
        prior = prior_data(demo_path)
        rooms = prior["floors"][0]["rooms"]
        study = next(r for r in rooms if r["id"] == "f0.study")
        rooms.remove(study)
        gone = {study["id"], *(b["id"] for b in study["big_objects"])}
        prior["spatial_edges"] = [e for e in prior["spatial_edges"] if not {e["a"], e["b"]} & gone]
        for ingest in (ingest_observation, reference_ingest):
            graph = load_world_prior(prior)
            # a floor's view reveals no attributes, so only what it shows can be missing
            assert not demo_truth.view("f0").revealed
            assert ingest(graph, demo_truth.view("f0")) is False
            assert ingest(graph, demo_truth.view("f0.living")) is True
            assert not gone & {n.id for n in graph.nodes}

    @pytest.mark.parametrize("path", sorted(WORLDS.glob("*.json")), ids=lambda p: p.stem)
    @pytest.mark.parametrize("descending", [False, True], ids=["rooms_first", "supports_first"])
    def test_a_prior_file_takes_every_view_by_the_full_rule(self, path, descending):
        # a graph read from a prior file holds none of the world's template
        # nodes, so no fold finds its pair there
        world = load_world_truth(path)
        anchors = sorted(world.graph.nodes, key=lambda n: n.layer, reverse=descending)
        graph, want = load_world_prior(prior_data(path)), load_world_prior(prior_data(path))
        flags = [ingest_observation(graph, world.view(n.id)) for n in anchors]
        assert flags == [reference_ingest(want, world.view(n.id)) for n in anchors]
        assert graph_state(graph) == graph_state(want)
        assert not {n.id for n in world._template().nodes} - {n.id for n in graph.nodes}
        assert not set(map(id, world._template().nodes)) & set(map(id, graph.nodes))

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_a_walk_on_the_worlds_own_overlay_runs_no_check(self, seed, monkeypatch):
        # a world the size of the benchmark's pinned ones
        world = load_world_truth(random_world_data(seed))
        truth = world.graph
        floor = truth.node(world.entrance)
        walks = []
        for room in truth.children(floor.id):
            supports = truth.children(room.id)
            smalls = [c for s in supports for c in truth.children(s.id)]
            walks.append([floor, room, *supports, *smalls[:1]])
        assert any(walk[-1].layer is Layer.SMALL_OBJECT for walk in walks)
        # the once-per-world checks and pairings run as the views are built
        walks = [[world.view(n.id) for n in walk] for walk in walks]
        calls = []
        for name in ("stands_in_for", "_check_nodes"):
            real = getattr(scene_graph, name)
            monkeypatch.setattr(scene_graph, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        swapped = 0
        for walk in walks:
            graph = world.prior_graph()
            for obs in walk:
                assert ingest_observation(graph, obs)
                for node in obs.fold.adopted.nodes if obs.fold.adopted else ():
                    assert graph.node(node.id) is node and graph.parent(node.id).id == obs.anchor_id
                # each revealed node took the place of the prebuilt node the graph held
                for seen, also in zip(obs.fold.revealed, obs.fold.also_replaces):
                    assert graph.node(seen.id) is seen
                    swapped += also is not None
        assert calls == []
        assert swapped

    @pytest.mark.parametrize(
        "world_size",
        [{}, CLUTTERED],
        ids=["small", "cluttered"],  # cluttered: 20-30 objects a support, labels repeated
    )
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(1, 10_000),
        floors=st.integers(1, 3),
        occlude=st.frozensets(st.integers(0, 40)),
        data=st.data(),
    )
    def test_folds_match_a_node_by_node_fold(self, world_size, seed, floors, occlude, data):
        source = occluded_world_data(seed, floors, occlude, **world_size)
        world, reference = load_world_truth(source), load_world_truth(source)
        ops = fold_ops(world, data)
        graph, flags = run_fold_ops(world, ops, ingest_observation)
        want_graph, want_flags = run_fold_ops(reference, ops, reference_ingest)
        assert flags == want_flags
        assert graph_state(graph) == graph_state(want_graph)
        # each label's and head word's ids, in the order node-by-node adds give
        assert graph._labels()._asdict() == want_graph._labels()._asdict()
        assert_world_untouched(world, source)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(1, 10_000),
        floors=st.integers(1, 3),
        occlude=st.frozensets(st.integers(0, 40)),
        data=st.data(),
    )
    def test_threads_folding_one_world_match_a_node_by_node_fold(self, seed, floors, occlude, data):
        source = occluded_world_data(seed, floors, occlude)
        world, reference = load_world_truth(source), load_world_truth(source)
        ops = [fold_ops(world, data) for _ in range(2)]
        start = threading.Barrier(2)

        def grow(mine):
            start.wait(timeout=10)
            graph, flags = run_fold_ops(world, mine, ingest_observation)
            return graph_state(graph), flags

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                results = [f.result(timeout=60) for f in [pool.submit(grow, mine) for mine in ops]]
        finally:
            sys.setswitchinterval(interval)
        for mine, (state, flags) in zip(ops, results):
            want_graph, want_flags = run_fold_ops(reference, mine, reference_ingest)
            assert flags == want_flags
            assert state == graph_state(want_graph)
        assert_world_untouched(world, source)
