"""Observation model: what each anchor layer reveals, and movement."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from stepqa.agent import ingest_observation
from stepqa.environment import (
    AgentPose,
    Environment,
    MoveError,
    WorldTruth,
    load_world_truth,
)
from stepqa.rules import Plan, PlanKind, resolve_near_pose
from stepqa.scene_graph import Layer
from stepqa.worldgen import random_world_data


def move(goal_id=None, label=None, layer=None) -> Plan:
    return Plan(kind=PlanKind.MOVE_TO, goal_id=goal_id, goal_label=label, goal_layer=layer)


def visible_ids(obs):
    return [v.node_id for v in obs.visible]


class TestReset:
    def test_starts_at_entrance_with_room_labels_only(self, demo_env):
        pose, obs = demo_env.reset()
        assert pose.anchor_id == "f0"
        assert pose.layer is Layer.FLOOR
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
        env.pose = AgentPose(node.id, node.layer, 0)
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
        planned = resolve_near_pose(world.prior_graph(), env.pose, "desk", layer)
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
        _, first = demo_env.reset()
        second = demo_env.execute(move(goal_id="f0.living"))
        assert (first.step, second.step) == (0, 1)


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
        first.add_observed_node("f0.kitchen.table", "spoon", {"color": "silver"})
        first.set_attribute("f0.living.sofa", "color", "green")
        demo_env.reset()
        demo_env.execute(move(goal_id="f0.living"))
        ingest_observation(first, demo_env.execute(move(goal_id="f0.living.table")))
        assert first.nodes_at(Layer.SMALL_OBJECT)

        for untouched in (second, demo_truth.prior_graph()):
            assert untouched.nodes_at(Layer.SMALL_OBJECT) == []
            assert all(n.attributes == {} for n in untouched.nodes)
        assert snapshot(demo_truth.graph) == truth_before

    def test_prior_graph_built_by_racing_threads_is_the_same(self, demo_path):
        world = load_world_truth(demo_path)
        expected = [n.to_dict() for n in load_world_truth(demo_path).prior_graph().nodes]
        workers = 4
        start = threading.Barrier(workers)

        def build(_):
            start.wait(timeout=10)
            return world.prior_graph()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                futures = [pool.submit(build, i) for i in range(workers)]
                graphs = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len({id(g) for g in graphs}) == workers
        for graph in graphs:
            assert [n.to_dict() for n in graph.nodes] == expected

    def test_json_text_without_an_id_is_named_world(self):
        data = random_world_data(1, rooms=6, small_range=(20, 30))
        del data["id"]
        text = json.dumps(data)
        assert len(text) > 4096  # far longer than any file name
        assert load_world_truth(text).world_id == "world"

    def test_file_without_an_id_is_named_after_the_file(self, tmp_path):
        data = random_world_data(1)
        del data["id"]
        path = tmp_path / "attic.json"
        path.write_text(json.dumps(data))
        assert load_world_truth(path).world_id == "attic"
        assert load_world_truth(str(path)).world_id == "attic"

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
