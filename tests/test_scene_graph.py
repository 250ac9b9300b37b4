"""Graph structure, label handling, and world file loading."""

import copy
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from stepqa import scene_graph
from stepqa.scene_graph import (
    GraphValidationError,
    Layer,
    LayerError,
    NodeBatch,
    SceneGraph,
    SceneNode,
    UnknownNodeError,
    WorldFormatError,
    alias_label,
    labels_match,
    normalize_label,
    singularize,
    stands_in_for,
)
from stepqa.agent import ingest_observation
from stepqa.environment import Fold, load_world_prior, load_world_truth
from stepqa.worldgen import random_world, random_world_data

from conftest import WORLDS, add_small, multi_floor_data, prior_data, scan_resolve_label, small_id


def small_world() -> dict:
    return {
        "id": "w",
        "floors": [
            {
                "id": "f0",
                "label": "ground floor",
                "rooms": [
                    {
                        "id": "f0.a",
                        "label": "living room",
                        "position": [0, 0],
                        "big_objects": [
                            {"id": "f0.a.t", "label": "coffee table", "position": [1, 0]},
                            {"id": "f0.a.s", "label": "sofa", "position": [2, 0]},
                        ],
                    },
                    {
                        "id": "f0.b",
                        "label": "kitchen",
                        "position": [5, 0],
                        "big_objects": [
                            {"id": "f0.b.t", "label": "dining table", "position": [6, 0]},
                        ],
                    },
                ],
            }
        ],
        "spatial_edges": [{"a": "f0.a.t", "b": "f0.a.s", "relation": "next-to"}],
    }


class TestLayer:
    def test_values_and_tags(self):
        assert [l.value for l in Layer] == [1, 2, 3, 4]
        assert [l.tag for l in Layer] == ["V1", "V2", "V3", "V4"]

    def test_from_tag_round_trip(self):
        for layer in Layer:
            assert Layer.from_tag(layer.tag) is layer

    def test_from_tag_rejects_garbage(self):
        with pytest.raises(ValueError):
            Layer.from_tag("V5")


class TestLabels:
    @pytest.mark.parametrize(
        "plural,singular",
        [
            ("books", "book"),
            ("cushions", "cushion"),
            ("shelves", "shelf"),
            ("dishes", "dish"),
            ("couches", "couch"),
            ("boxes", "box"),
            ("people", "person"),
            ("glasses", "glasses"),
            ("glass", "glass"),
            ("bus", "bus"),
            ("sofa", "sofa"),
        ],
    )
    def test_singularize(self, plural, singular):
        assert singularize(plural) == singular

    def test_normalize_collapses_and_singularizes_head(self):
        assert normalize_label("  Coffee   Tables ") == "coffee table"
        assert normalize_label("") == ""

    @given(
        st.one_of(
            st.text(),
            st.builds(
                lambda pad, word, tail: pad + word + tail,
                st.sampled_from(["", " ", "\t", "  The ", "Red\n"]),
                st.sampled_from(
                    ["People", "SHELVES", "knives", "Couches", "boxes", "glasses", "keys",
                     "children", "ladies", "bus", "Coffee  Tables", "sofa", "s", "ies"]
                ),
                st.sampled_from(["", " ", "\n ", "S"]),
            ),
        )
    )
    def test_memoized_normalize_matches_the_uncached_function(self, label):
        first = normalize_label(label)
        assert normalize_label(label) == first == normalize_label.__wrapped__(label)

    def test_alias_maps_synonyms(self):
        assert alias_label("couch") == "sofa"
        assert alias_label("Fridge") == "refrigerator"
        assert alias_label("tv") == "television"
        assert alias_label("book") == "book"

    def test_labels_match_exact_and_head_noun(self):
        assert labels_match("table", "coffee table")
        assert labels_match("Coffee Table", "coffee table")
        assert labels_match("book", "books")

    def test_labels_match_is_naive_about_synonyms(self):
        # resolution applies aliases separately; raw matching does not
        assert not labels_match("couch", "sofa")
        assert not labels_match("able", "coffee table")


class TestGraphStructure:
    def test_floor_takes_no_parent(self):
        g = SceneGraph()
        g.add_node(SceneNode("f0", Layer.FLOOR, "ground floor"))
        with pytest.raises(GraphValidationError):
            g.add_node(SceneNode("f1", Layer.FLOOR, "attic"), parent_id="f0")

    def test_non_floor_needs_parent(self):
        g = SceneGraph()
        with pytest.raises(GraphValidationError):
            g.add_node(SceneNode("r", Layer.ROOM, "kitchen", position=(0, 0)))

    def test_containment_must_step_one_layer(self):
        g = SceneGraph()
        g.add_node(SceneNode("f0", Layer.FLOOR, "ground floor"))
        with pytest.raises(GraphValidationError):
            g.add_node(
                SceneNode("b", Layer.BIG_OBJECT, "sofa", position=(0, 0)),
                parent_id="f0",
            )

    @pytest.mark.parametrize("layer", [Layer.ROOM, Layer.BIG_OBJECT])
    def test_a_room_or_big_object_needs_a_position(self, layer):
        g = load_world_prior(small_world())
        parent = g.nodes_at(Layer(layer - 1))[0]
        with pytest.raises(GraphValidationError, match=f"node x at {layer.tag} has no position"):
            g.add_node(SceneNode("x", layer, "hall"), parent.id)
        assert "x" not in g

    def test_duplicate_id_rejected(self):
        g = SceneGraph()
        g.add_node(SceneNode("f0", Layer.FLOOR, "ground floor"))
        with pytest.raises(GraphValidationError):
            g.add_node(SceneNode("f0", Layer.FLOOR, "ground floor again"))

    def test_unknown_node_lookup(self):
        g = SceneGraph()
        with pytest.raises(UnknownNodeError):
            g.node("nope")

    def test_fold_in_stands_in_only_for_a_node_in_the_same_place(self):
        fresh = load_world_prior(small_world())
        known = fresh.node("f0.a.t")
        fuller = known.clone({"color": "red", "material": "oak"})
        for other in (
            fuller.clone({"material": "oak"}),  # drops a value the graph has
            fuller.clone({"color": "blue", "material": "oak"}),
            SceneNode(known.id, known.layer, "desk", known.instance_index, known.position, fuller.attributes),
            SceneNode(known.id, Layer.ROOM, known.label, known.instance_index, known.position, fuller.attributes),
            SceneNode(known.id, known.layer, known.label, known.instance_index + 1, known.position, fuller.attributes),
            SceneNode(known.id, known.layer, known.label, known.instance_index, (9.0, 9.0), fuller.attributes),
        ):
            assert not stands_in_for(other, fresh.node(known.id).clone({"color": "red"}))
            g = fresh.copy()
            g.update_attributes(known.id, {"color": "red"})
            assert g.fold_in("f0.a", Fold(None, (other,), (None,), (None,), ()))
            # merged into the graph's own node, never swapped for the other
            node = g.node(known.id)
            assert node is not other
            assert (node.label, node.layer, node.instance_index, node.position) == (
                known.label, known.layer, known.instance_index, known.position
            )
            assert node.attributes == {"color": "red", **other.attributes}
        g = fresh.copy()
        g.update_attributes(known.id, {"color": "red"})
        assert g.fold_in("f0.a", Fold(None, (fuller,), (None,), (None,), ()))
        assert g.node(known.id) is fuller
        g.update_attributes(known.id, {"color": "green"})  # a write puts a new node in its place
        assert fuller.attributes == {"color": "red", "material": "oak"}
        assert g.node(known.id).attributes == {"color": "green", "material": "oak"}
        # a node that already has every revealed value is kept
        held = g.node(known.id)
        assert g.fold_in("f0.a", Fold(None, (known.clone({"color": "green"}),), (None,), (None,), ()))
        assert g.node(known.id) is held

    def test_fold_in_takes_a_paired_node_only_while_the_graph_holds_its_pair(self):
        fresh = load_world_prior(small_world())
        known = fresh.node("f0.a.t")
        desk = SceneNode(known.id, known.layer, "desk", known.instance_index, known.position, {"color": "red"})
        g = fresh.copy()
        assert g.fold_in("f0.a", Fold(None, (desk,), (known,), (None,), ()))
        assert g.node(known.id) is desk  # the pairing is trusted, not compared
        # so is the second pairing, with the node the parent's view shows
        g = fresh.copy()
        g.fold_in("f0.a", Fold(None, (fuller := known.clone({"color": "blue"}),), (known,), (None,), ()))
        assert g.fold_in("f0.a", Fold(None, (desk,), (known,), (fuller,), ()))
        assert g.node(known.id) is desk
        g = fresh.copy()
        g.update_attributes(known.id, {"material": "oak"})  # the pair is gone: the full rule runs
        assert g.fold_in("f0.a", Fold(None, (desk,), (known,), (None,), ()))
        assert (g.node(known.id).label, g.node(known.id).attributes) == ("coffee table", {"material": "oak", "color": "red"})
        # a revealed node the graph lacks, or a missing anchor, leaves the fold incomplete
        stray = SceneNode("f0.a.t.cup.0", Layer.SMALL_OBJECT, "cup", attributes={"color": "red"})
        assert not g.fold_in("f0.a", Fold(None, (stray,), (None,), (None,), ()))
        assert not g.fold_in("f0.gone", Fold(None, (), (), (), ()))
        assert not g.fold_in("f0", Fold(None, (), (), (), ("f0.a", "f0.gone")))
        assert g.fold_in("f0", Fold(None, (), (), (), ("f0.a", "f0.b")))
        assert stray.id not in g and "f0.gone" not in g

    @pytest.mark.parametrize(
        "bad, parent_id, message, when_built",
        [
            (SceneNode("f0.a.t", Layer.BIG_OBJECT, "cup", position=(0, 0)), "f0.a", "duplicate node id: f0.a.t", False),
            (SceneNode("f0.a.cup.1", Layer.BIG_OBJECT, "mug", position=(0, 0)), "f0.a", "duplicate node id: f0.a.cup.1", True),
            (SceneNode("f0.a.hall", Layer.ROOM, "hall", position=(0, 0)), "f0.a", "node f0.a.hall at V2 cannot attach to f0.a at V2", True),
            (SceneNode("f0.a.box", Layer.BIG_OBJECT, "box"), "f0.a", "node f0.a.box at V3 has no position", True),
            (None, "f0", "node f0.a.cup.0 at V3 cannot attach to f0 at V1", False),
            (None, "f0.gone", "'f0.gone'", False),  # UnknownNodeError
        ],
    )
    def test_a_bad_batch_names_its_node_and_writes_nothing(self, bad, parent_id, message, when_built):
        # A prebuilt batch is checked against its parent alone as it is
        # built; what depends on the graph is refused as a graph adds it.
        g = load_world_prior(small_world()).copy()
        g.resolve_label("sofa")  # build the index, so a write would show in it
        before = snapshot(g)
        good = [SceneNode(f"f0.a.cup.{i}", Layer.BIG_OBJECT, "cup", i, (0.0, float(i))) for i in range(3)]
        for nodes in (good[:2] + [bad], [bad] + good) if bad is not None else (good,):
            if when_built:
                with pytest.raises(GraphValidationError, match=f"^{re.escape(message)}$"):
                    NodeBatch.under(g.node("f0.a"), nodes)
                batches = [nodes]
            else:
                batches = [nodes, NodeBatch.under(g.node("f0.a"), nodes)]
            for batch in batches:
                with pytest.raises((GraphValidationError, UnknownNodeError)) as refused:
                    g.add_node(batch, parent_id)
                assert str(refused.value) == message
                assert snapshot(g) == before
                assert (g._children["f0.a"], g._index.by_label.get("cup")) == (("f0.a.t", "f0.a.s"), None)

    @pytest.mark.parametrize("prebuilt", [False, True], ids=["plain", "prebuilt"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_a_batch_extends_a_cluttered_support_once(self, seed, prebuilt, monkeypatch):
        world = load_world_truth(random_world_data(seed, rooms=6, big_range=(4, 5), small_range=(20, 30)))
        support = max(world.graph.nodes_at(Layer.BIG_OBJECT), key=lambda b: len(world.graph.children(b.id)))
        objects = world.graph.children(support.id)
        assert 20 <= len(objects) <= 30
        assert len({n.norm_label for n in objects}) < len(objects)  # labels repeat
        given = NodeBatch.under(support, objects) if prebuilt else objects
        template = world._template()
        template_index = {k: dict(v) for k, v in template._labels()._asdict().items()}
        one_by_one = world.prior_graph()
        for node in objects:
            one_by_one.add_node(node, support.id)

        class Writes(dict):
            def __setitem__(self, key, value):
                self.keys_written.append(key)
                super().__setitem__(key, value)

        graph = world.prior_graph()
        graph._children = Writes(graph._children)
        graph._children.keys_written = []
        copies = []
        index_type = scene_graph._LabelIndex
        monkeypatch.setattr(scene_graph, "_LabelIndex", lambda *maps: copies.append(1) or index_type(*maps))
        assert graph.add_node(given, support.id) is given
        assert graph._children.keys_written.count(support.id) == 1
        assert graph._children[support.id] == tuple(n.id for n in objects)
        assert len(copies) == 1 and graph._index_owned
        assert snapshot(graph) == snapshot(one_by_one)
        # each label's and head word's ids in the order node-by-node adds give
        assert graph._index._asdict() == one_by_one._index._asdict()
        assert {k: dict(v) for k, v in template._index._asdict().items()} == template_index

    def test_traversal_helpers(self):
        g = load_world_prior(small_world())
        assert g.parent("f0.a.t").id == "f0.a"
        assert [c.id for c in g.children("f0.a")] == ["f0.a.t", "f0.a.s"]
        assert [a.id for a in g.ancestors("f0.a.t")] == ["f0.a", "f0"]
        assert g.room_of("f0.a.t").id == "f0.a"
        assert {n.id for n in g.descendants("f0")} >= {"f0.a", "f0.b", "f0.a.t"}

    def test_descendants_are_breadth_first_on_a_wide_graph(self):
        g = SceneGraph()
        g.add_node(SceneNode("f", Layer.FLOOR, "floor"))
        rooms = [f"r{i}" for i in range(40)]
        bigs = [f"{r}.b{j}" for r in rooms for j in range(5)]
        smalls = [f"{b}.s{k}" for b in bigs for k in range(5)]
        for room in rooms:
            g.add_node(SceneNode(room, Layer.ROOM, "room", position=(0, 0)), "f")
        for big in bigs:
            g.add_node(SceneNode(big, Layer.BIG_OBJECT, "table", position=(0, 0)), big.rsplit(".", 1)[0])
        for small in smalls:
            g.add_node(SceneNode(small, Layer.SMALL_OBJECT, "cup"), small.rsplit(".", 1)[0])
        assert [n.id for n in g.descendants("f")] == rooms + bigs + smalls
        assert [n.id for n in g.descendants("r7")] == bigs[35:40] + smalls[175:200]
        assert g.descendants(smalls[0]) == []

    def test_descendants_walk_a_deep_chain_in_order(self):
        # add_node stops containment at four layers; descendants itself only
        # follows the child lists, so a long chain is wired through them.
        g = SceneGraph()
        g.add_node(SceneNode("n0", Layer.FLOOR, "floor"))
        ids = [f"n{i}" for i in range(1500)]
        for parent, child in zip(ids, ids[1:]):
            g._nodes[child] = SceneNode(child, Layer.SMALL_OBJECT, "link")
            g._parent[child] = parent
            g._children[parent] = [child]
            g._children[child] = []
        assert [n.id for n in g.descendants("n0")] == ids[1:]
        assert [n.id for n in g.descendants("n1400")] == ids[1401:]

    def test_room_of_on_a_room_is_identity(self):
        g = load_world_prior(small_world())
        assert g.room_of("f0.a").id == "f0.a"

    def test_room_of_rejects_floors(self):
        g = load_world_prior(small_world())
        with pytest.raises(LayerError):
            g.room_of("f0")

    def test_spatial_edges_same_layer_with_weights(self):
        g = load_world_prior(small_world())
        assert g.spatial_relation("f0.a.t", "f0.a.s") == "next-to"
        assert g.spatial_relation("f0.a.s", "f0.a.t") == "next-to"
        assert g.spatial_relation("f0.a.t", "f0.b.t") is None
        assert math.isclose(math.dist(g.position_of("f0.a.t"), g.position_of("f0.a.s")), 1.0)

    def test_nearest_first_orders_by_distance_then_instance(self):
        g = load_world_prior(small_world())
        bigs = g.nodes_at(Layer.BIG_OBJECT)
        assert [n.id for n in g.nearest_first(bigs, g.position_of("f0.b"))] == ["f0.b.t", "f0.a.s", "f0.a.t"]
        assert g.nearest_first(bigs, None) == sorted(bigs, key=lambda n: (n.instance_index, n.id))

    def test_cross_layer_edge_rejected(self):
        g = load_world_prior(small_world())
        with pytest.raises(GraphValidationError):
            g.add_spatial_edge("f0.a", "f0.a.t", "next-to")

    def test_unknown_relation_rejected(self):
        g = load_world_prior(small_world())
        with pytest.raises(GraphValidationError):
            g.add_spatial_edge("f0.a.t", "f0.a.s", "orbiting")

    def test_a_write_puts_a_new_node_in_place_of_the_held_one(self):
        g = load_world_prior(small_world())
        table = g.node("f0.a.t")
        book = add_small(g, "f0.a.t", "book", {"color": "red"})
        written = g.update_attributes(table.id, {"color": "brown"})
        merged = g.update_attributes(book.id, {"state": "open"})
        assert table.attributes == {} and book.attributes == {"color": "red"}
        assert g.node(table.id) is written is not table and written.attributes == {"color": "brown"}
        assert g.node(book.id) is merged is not book and merged.attributes == {"color": "red", "state": "open"}

    def test_explicit_instance_index_keeps_twins_apart(self):
        g = load_world_prior(small_world())
        a = add_small(g, "f0.a.t", "cup", index=0)
        b = add_small(g, "f0.a.t", "cup", index=1)
        assert a.id != b.id
        assert len(g.resolve_label("cup")) == 2

    def test_copy_is_deep_for_attributes(self):
        g = load_world_prior(small_world())
        node = add_small(g, "f0.a.t", "book")
        dup = g.copy()
        dup.update_attributes(node.id, {"color": "red"})
        assert "color" not in g.node(node.id).attributes
        assert dup.node(node.id).attributes["color"] == "red"


class TestResolveLabel:
    def test_scope_narrows_matches(self):
        g = load_world_prior(small_world())
        everywhere = g.resolve_label("table")
        assert {n.id for n in everywhere} == {"f0.a.t", "f0.b.t"}
        scoped = g.resolve_label("table", scope_id="f0.b")
        assert [n.id for n in scoped] == ["f0.b.t"]

    def test_alias_applies_during_resolution(self):
        g = load_world_prior(small_world())
        assert [n.id for n in g.resolve_label("couch")] == ["f0.a.s"]

    def test_constraint_filters_on_attributes(self):
        g = load_world_prior(small_world())
        a = add_small(g, "f0.a.t", "cup", {"color": "white"}, index=0)
        add_small(g, "f0.a.t", "cup", {"color": "blue"}, index=1)
        got = g.resolve_label("cup", constraint=("color", "White"))
        assert [n.id for n in got] == [a.id]

    def test_constraint_keeps_unverified_candidates_when_none_match(self):
        g = load_world_prior(small_world())
        add_small(g, "f0.a.t", "cup", {"color": "blue"}, index=0)
        unseen = add_small(g, "f0.a.t", "cup", index=1)
        got = g.resolve_label("cup", constraint=("color", "white"))
        assert [n.id for n in got] == [unseen.id]

    def test_near_orders_by_distance(self):
        g = load_world_prior(small_world())
        got = g.resolve_label("table", near=(6.0, 0.0))
        assert [n.id for n in got] == ["f0.b.t", "f0.a.t"]


class TestWorldFiles:
    def test_prior_file_rejects_attributes(self):
        data = small_world()
        data["floors"][0]["rooms"][0]["big_objects"][0]["attributes"] = {"color": "brown"}
        with pytest.raises(WorldFormatError):
            load_world_prior(data)
        # truth loading tolerates the same payload
        load_world_truth(data)

    def test_prior_file_rejects_small_objects(self):
        data = small_world()
        data["floors"][0]["rooms"][0]["big_objects"][0]["small_objects"] = [
            {"id": "x", "label": "book"}
        ]
        with pytest.raises(WorldFormatError):
            load_world_prior(data)

    def test_a_prior_file_is_checked_on_content(self):
        data = small_world()
        big = data["floors"][0]["rooms"][0]["big_objects"][0]
        big.update(small_objects=[], attributes={}, close_only=[])
        assert len(load_world_prior(data).nodes_at(Layer.BIG_OBJECT)) == 3

    def test_a_prior_files_entrance_must_name_a_node(self):
        data = small_world()
        data["entrance"] = "f0.a"
        assert "f0.a" in load_world_prior(data)
        data["entrance"] = "f9"
        with pytest.raises(WorldFormatError) as err:
            load_world_prior(data)
        assert "entrance" in str(err.value)

    def test_missing_fields_are_reported_with_locus(self):
        data = small_world()
        del data["floors"][0]["rooms"][1]["position"]
        with pytest.raises(WorldFormatError) as err:
            load_world_prior(data)
        assert "position" in str(err.value)

    def test_the_loader_makes_small_object_ids_and_indices(self):
        data = small_world()
        smalls = [{"label": "cup"}, {"label": "potted plant"}, {"label": "cups"}]
        data["floors"][0]["rooms"][0]["big_objects"][0]["small_objects"] = smalls
        g = load_world_truth(data).graph
        got = [(n.id, n.label, n.instance_index) for n in g.children("f0.a.t")]
        assert got == [
            ("f0.a.t.cup.0", "cup", 0),
            ("f0.a.t.potted_plant.0", "potted plant", 0),
            ("f0.a.t.cup.1", "cups", 1),
        ]

    def test_an_edge_naming_a_small_object_is_refused(self):
        data = small_world()
        data["floors"][0]["rooms"][0]["big_objects"][0]["small_objects"] = [{"label": "cup"}]
        data["spatial_edges"].append({"a": "f0.a.t.cup.0", "b": "f0.a.t.cup.0", "relation": "next-to"})
        with pytest.raises(WorldFormatError, match="references unknown node 'f0.a.t.cup.0'"):
            load_world_truth(data)

    def test_edge_to_unknown_node_rejected(self):
        data = small_world()
        data["spatial_edges"].append({"a": "f0.a.t", "b": "ghost", "relation": "on"})
        with pytest.raises(WorldFormatError):
            load_world_prior(data)

    def test_load_world_prior_from_path(self, tmp_path, demo_path):
        p = tmp_path / "prior.json"
        import json

        p.write_text(json.dumps(prior_data(demo_path)))
        g = load_world_prior(p)
        assert len(g.nodes_at(Layer.ROOM)) == 4
        assert g.nodes_at(Layer.SMALL_OBJECT) == []
        for node in g.nodes:
            assert node.attributes == {}

    def test_truth_file_is_not_a_valid_prior(self, demo_path):
        with pytest.raises(WorldFormatError):
            load_world_prior(demo_path)

    def test_an_open_file_is_not_a_world_source(self, demo_path):
        with demo_path.open() as f, pytest.raises(WorldFormatError, match="unsupported world source"):
            load_world_truth(f)

    def test_a_file_that_is_not_utf8_is_a_format_error_naming_it(self, tmp_path):
        p = tmp_path / "latin1.json"
        p.write_bytes('{"id": "caf\u00e9", "floors": []}'.encode("latin-1"))
        with pytest.raises(WorldFormatError, match=f"^{re.escape(str(p))}: not UTF-8 text at byte 11$"):
            load_world_truth(p)

    def test_bad_json_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{\n  \"floors\": [,]\n}")
        with pytest.raises(WorldFormatError) as err:
            load_world_prior(p)
        assert "line" in str(err.value)

    def test_prior_graph_matches_the_strict_load_of_its_prior_file(self):
        def contents(graph):
            def row(n):
                parent = graph.parent(n.id)
                children = [c.id for c in graph.children(n.id)]
                return (n.id, n.layer, n.label, n.instance_index, n.position, n.attributes, parent and parent.id, children)

            return [row(n) for n in graph.nodes], graph.spatial_edges

        # a generated world with its first room twice on its floor, so rooms share a label
        twin = random_world_data(11)
        room = copy.deepcopy(twin["floors"][0]["rooms"][0])
        room["id"] += ".twin"
        for big in room["big_objects"]:
            big["id"] += ".twin"
        twin["floors"][0]["rooms"].append(room)

        names = ("demo_house", "clutter_clear", "clutter_occluded")
        sources = [*(WORLDS / f"{name}.json" for name in names), random_world_data(11), twin]
        sources += [multi_floor_data(seed, 3) for seed in (2, 7)]
        for source in sources:
            prior = load_world_truth(source).prior_graph()
            assert contents(prior) == contents(load_world_prior(prior_data(source))), source


# -- the label index against a brute-force scan ----------------------------


def scan_find_nodes(graph, label, layer=None):
    found = [
        n
        for n in graph.nodes
        if normalize_label(n.label) == normalize_label(label) and (layer is None or n.layer is layer)
    ]
    return [n.id for n in sorted(found, key=lambda n: (n.layer, n.instance_index, n.id))]


def scan_matches_under(graph, scope_id, label, layer):
    return [
        n.id
        for n in graph.descendants(scope_id)
        if n.layer is layer
        and (not label or labels_match(label, n.label) or alias_label(label) == normalize_label(n.label))
    ]


def query_labels(graph):
    """Every label in the graph, its head word and plural, plus synonyms,
    an unknown word and the empty label."""
    labels = {"couch", "tv", "fridge", "table", "Coffee  Tables", "unicorn", ""}
    for n in graph.nodes:
        labels.update({n.label, n.label.split()[-1], n.label + "s"})
    return sorted(labels)


LAYERS = (None, *Layer)


def assert_lookups_match_scan(graph, rng):
    labels = query_labels(graph)
    ids = sorted(n.id for n in graph.nodes)
    constraints = [None, ("color", "plaid"), *sorted({a for n in graph.nodes for a in n.attributes.items()})]
    for label in labels:
        for layer in LAYERS:
            assert [n.id for n in graph.find_nodes(label, layer)] == scan_find_nodes(graph, label, layer)
            got = [n.id for n in graph.resolve_label(label, layer)]
            assert got == scan_resolve_label(graph, label, layer)
            if layer is not None:
                norm = normalize_label(label)
                assert graph.has_label(norm, layer) == bool(scan_find_nodes(graph, label, layer))
                ending = [n for n in graph.nodes if n.layer is layer and n.norm_label.endswith(" " + norm)]
                assert graph.has_label_ending(norm, layer) == bool(ending)
    for scope in ids:
        label, layer, constraint = rng.choice(labels), rng.choice(LAYERS), rng.choice(constraints)
        near = rng.choice([None, (rng.uniform(-5, 60), rng.uniform(-5, 5))])
        got = [n.id for n in graph.resolve_label(label, layer, scope, constraint, near)]
        assert got == scan_resolve_label(graph, label, layer, scope, constraint, near)
        for layer_at in Layer:
            for query in (label, None):
                got = [n.id for n in graph.matches_under(scope, query, layer_at)]
                assert got == scan_matches_under(graph, scope, query, layer_at)


def grow(graph, world, data):
    """Observed nodes and views from the world, in an order drawn by hypothesis."""
    from stepqa.agent import ingest_observation

    bigs = [n.id for n in graph.nodes_at(Layer.BIG_OBJECT)]
    adds = st.tuples(
        st.sampled_from(bigs),
        st.sampled_from(["cup", "cups", "coffee cup", "red book", "book", "couch", "tv"]),
        st.dictionaries(st.sampled_from(["color", "state"]), st.sampled_from(["red", "open"]), max_size=2),
        st.integers(0, 2),
    )
    for parent, label, attributes, index in data.draw(st.lists(adds, max_size=6)):
        node_id = small_id(parent, label, index)
        if node_id in graph:  # the graph holds a node with this id: merge into it
            graph.update_attributes(node_id, attributes)
        else:
            add_small(graph, parent, label, attributes, index)
    for anchor in data.draw(st.lists(st.sampled_from(sorted(n.id for n in world.graph.nodes)), max_size=6)):
        ingest_observation(graph, world.view(anchor))


def snapshot(graph):
    return [(n.to_dict(), [c.id for c in graph.children(n.id)]) for n in graph.nodes]


class TestLabelIndex:
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(1, 10_000),
        rooms=st.integers(1, 6),
        rng=st.randoms(use_true_random=False),
        data=st.data(),
    )
    def test_lookups_match_a_scan_on_generated_worlds(self, seed, rooms, rng, data):
        world = random_world(seed, rooms=rooms, small_range=(0, 4))
        assert_lookups_match_scan(world.graph, rng)
        template = world.prior_graph()
        assert_lookups_match_scan(template, rng)

        episode = world.prior_graph()
        grow(episode, world, data)
        assert_lookups_match_scan(episode, rng)
        before = snapshot(episode)

        nested = episode.copy()
        grow(nested, world, data)
        assert_lookups_match_scan(nested, rng)
        assert snapshot(episode) == before
        assert_lookups_match_scan(episode, rng)
        assert snapshot(world.prior_graph()) == snapshot(template)

    @pytest.mark.parametrize("seed", [2, 5])
    def test_the_first_lookup_builds_the_index_a_node_at_a_time_would(self, seed):
        graph = load_world_truth(random_world_data(seed, rooms=6, big_range=(4, 5), small_range=(20, 30))).graph
        by_label, by_head = {}, {}
        for node in graph.nodes:
            by_label[node.norm_label] = by_label.get(node.norm_label, ()) + (node.id,)
            words, _, head = node.norm_label.rpartition(" ")
            if words:
                by_head[head] = by_head.get(head, ()) + (node.id,)
        assert any(len(ids) > 20 for ids in by_label.values())
        index = graph._labels()
        # the same groups, in the same order, each tuple in node order
        assert list(index.by_label.items()) == list(by_label.items())
        assert list(index.by_head.items()) == list(by_head.items())

    def test_index_built_before_a_node_is_added_stays_current(self):
        g = load_world_prior(small_world())
        assert g.resolve_label("cup") == []
        cup = add_small(g, "f0.a.t", "coffee cup")
        assert g.resolve_label("cup") == [cup]
        assert g.find_nodes("coffee cups") == [cup]
        assert g.matches_under("f0.a", "cup", Layer.SMALL_OBJECT) == [cup]


# -- the memo of unconstrained floor, room and big-object lookups ----------

MEMO_LAYERS = (Layer.FLOOR, Layer.ROOM, Layer.BIG_OBJECT)


def memo_worlds():
    yield load_world_truth(WORLDS / "demo_house.json")
    for seed in range(1, 21):
        yield random_world(seed)


def memo_labels(graph):
    """Every floor, room and big-object label, each multiword label's head
    word, the aliases and a label nothing has."""
    labels = {"couch", "fridge", "tv", "unicorn"}
    for node in graph.nodes:
        if node.layer is not Layer.SMALL_OBJECT:
            labels.update({node.label, node.label.split()[-1]})
    return sorted(labels)


def resolutions(graph):
    """The memo's resolution entries; the sort orders have two-part keys."""
    return {k: v for k, v in graph._memo.items() if len(k) == 3}


def fresh_resolve(graph, anchor_id, label, layer, constraint=None):
    """resolve_from on a copy of the graph with an empty memo."""
    fresh = graph.copy()
    fresh._memo = {}
    return fresh.resolve_from(anchor_id, label, layer, constraint)


class TestResolutionMemo:
    def test_memoized_lookups_match_a_fresh_lookup_with_every_view_folded_in(self):
        checked = 0
        for world in memo_worlds():
            episode = world.prior_graph()
            for node in world.graph.nodes:
                ingest_observation(episode, world.view(node.id))
            sibling = world.prior_graph()
            assert sibling._memo is episode._memo
            labels = memo_labels(episode)
            anchors = [*sorted(n.id for n in episode.nodes), "nowhere"]
            queries = [(a, label, layer) for a in anchors for label in labels for layer in MEMO_LAYERS]
            for anchor, label, layer in queries:  # fill the shared memo from the bare prior
                if anchor in sibling:
                    sibling.resolve_from(anchor, label, layer)
            for anchor, label, layer in queries:
                want = fresh_resolve(episode, anchor, label, layer)
                for _ in range(2):  # a miss, or a hit after the sibling's lookup, then a hit
                    found = episode.resolve_from(anchor, label, layer)
                    assert found is want, (world.world_id, anchor, label, layer)
                    assert found is None or found is episode.node(found.id)
                checked += 1
            assert resolutions(episode)
        assert checked > 40_000

    def test_a_hit_returns_the_graphs_own_node(self):
        world = load_world_truth(WORLDS / "demo_house.json")
        template = world.prior_graph()
        sofa = template.resolve_from("f0", "sofa", Layer.BIG_OBJECT)
        episode = world.prior_graph()
        seen = episode.update_attributes(sofa.id, {"color": "green"})
        assert episode.resolve_from("f0", "couch", Layer.BIG_OBJECT) is seen
        assert episode.resolve_from("f0", "sofa", Layer.BIG_OBJECT) is seen
        assert template.resolve_from("f0", "sofa", Layer.BIG_OBJECT) is sofa
        assert "color" not in sofa.attributes

    def test_a_hit_searches_no_scope(self, monkeypatch):
        graph = load_world_truth(WORLDS / "demo_house.json").prior_graph()
        want = graph.resolve_from("f0", "table", Layer.BIG_OBJECT)
        monkeypatch.setattr(SceneGraph, "resolve_outward", lambda *args: pytest.fail("searched"))
        monkeypatch.setattr(SceneGraph, "position_of", lambda *args: pytest.fail("centroid"))
        assert graph.resolve_from("f0", "table", Layer.BIG_OBJECT) is want

    @pytest.mark.parametrize(
        "anchor,label,layer,constraint",
        [
            ("f0", "sofa", Layer.BIG_OBJECT, ("color", "green")),  # a constraint
            ("f0", "sofa", None, None),  # any layer
            ("f0.living.table", "book", Layer.SMALL_OBJECT, None),  # a small object
            ("nowhere", "sofa", Layer.BIG_OBJECT, None),  # an anchor not in the graph
            ("f0.living.table.book.0", "sofa", Layer.BIG_OBJECT, None),  # a small anchor
        ],
    )
    def test_lookups_that_are_never_stored(self, anchor, label, layer, constraint):
        world = load_world_truth(WORLDS / "demo_house.json")
        graph = world.prior_graph()
        ingest_observation(graph, world.view("f0.living.table"))
        assert anchor == "nowhere" or anchor in graph
        want = fresh_resolve(graph, anchor, label, layer, constraint)
        assert want is not None
        for _ in range(2):
            assert graph.resolve_from(anchor, label, layer, constraint) is want
        assert resolutions(graph) == {}

    def test_an_unresolved_label_is_stored_as_none(self):
        graph = load_world_truth(WORLDS / "demo_house.json").prior_graph()
        assert graph.resolve_from("f0", "unicorn", Layer.ROOM) is None
        assert resolutions(graph) == {("f0", "unicorn", Layer.ROOM): None}
