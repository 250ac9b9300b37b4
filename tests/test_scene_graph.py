"""Graph structure, label handling, and world file loading."""

import copy
import math

import pytest
from hypothesis import given, settings, strategies as st

from stepqa.scene_graph import (
    GraphValidationError,
    Layer,
    LayerError,
    SceneGraph,
    SceneNode,
    UnknownNodeError,
    WorldFormatError,
    alias_label,
    labels_match,
    normalize_label,
    singularize,
)
from stepqa.environment import load_world_prior, load_world_truth
from stepqa.worldgen import random_world, random_world_data

from conftest import WORLDS, multi_floor_data, prior_data, scan_resolve_label


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

    def test_duplicate_id_rejected(self):
        g = SceneGraph()
        g.add_node(SceneNode("f0", Layer.FLOOR, "ground floor"))
        with pytest.raises(GraphValidationError):
            g.add_node(SceneNode("f0", Layer.FLOOR, "ground floor again"))

    def test_unknown_node_lookup(self):
        g = SceneGraph()
        with pytest.raises(UnknownNodeError):
            g.node("nope")

    def test_share_stands_in_only_for_a_node_in_the_same_place(self):
        g = load_world_prior(small_world())
        known = g.node("f0.a.t")
        g.update_attributes(known.id, {"color": "red"})
        fuller = known.clone({"color": "red", "material": "oak"})
        for other in (
            fuller.clone({"material": "oak"}),  # drops a value the graph has
            fuller.clone({"color": "blue", "material": "oak"}),
            SceneNode(known.id, known.layer, "desk", known.instance_index, known.position, fuller.attributes),
            SceneNode(known.id, Layer.ROOM, known.label, known.instance_index, known.position, fuller.attributes),
            SceneNode(known.id, known.layer, known.label, known.instance_index + 1, known.position, fuller.attributes),
            SceneNode(known.id, known.layer, known.label, known.instance_index, (9.0, 9.0), fuller.attributes),
        ):
            assert not g.share(other)
            assert g.node(known.id).attributes == {"color": "red"}
        assert g.share(fuller)
        assert g.node(known.id) is fuller
        g.update_attributes(known.id, {"color": "green"})  # a write puts a new node in its place
        assert fuller.attributes == {"color": "red", "material": "oak"}
        assert g.node(known.id).attributes == {"color": "green", "material": "oak"}

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

    def test_observed_node_attaches_to_big_object_only(self):
        g = load_world_prior(small_world())
        node = g.add_observed_node("f0.a.t", "book", attributes={"color": "red"})
        assert node.layer is Layer.SMALL_OBJECT
        assert g.parent(node.id).id == "f0.a.t"
        with pytest.raises(LayerError):
            g.add_observed_node("f0.a", "book")

    def test_reobservation_merges_instead_of_duplicating(self):
        g = load_world_prior(small_world())
        first = g.add_observed_node("f0.a.t", "book", attributes={"color": "red"})
        again = g.add_observed_node("f0.a.t", "book", attributes={"state": "open"})
        assert again.id == first.id
        assert g.node(first.id).attributes == {"color": "red", "state": "open"}

    def test_a_write_puts_a_new_node_in_place_of_the_held_one(self):
        g = load_world_prior(small_world())
        table = g.node("f0.a.t")
        book = g.add_observed_node("f0.a.t", "book", attributes={"color": "red"})
        written = g.update_attributes(table.id, {"color": "brown"})
        merged = g.add_observed_node("f0.a.t", "book", attributes={"state": "open"})
        assert table.attributes == {} and book.attributes == {"color": "red"}
        assert g.node(table.id) is written is not table and written.attributes == {"color": "brown"}
        assert g.node(book.id) is merged is not book and merged.attributes == {"color": "red", "state": "open"}

    def test_explicit_instance_index_keeps_twins_apart(self):
        g = load_world_prior(small_world())
        a = g.add_observed_node("f0.a.t", "cup", instance_index=0)
        b = g.add_observed_node("f0.a.t", "cup", instance_index=1)
        assert a.id != b.id
        assert len(g.resolve_label("cup")) == 2

    def test_copy_is_deep_for_attributes(self):
        g = load_world_prior(small_world())
        node = g.add_observed_node("f0.a.t", "book")
        dup = g.copy()
        dup.update_attributes(node.id, {"color": "red"})
        assert "color" not in g.node(node.id).attributes
        assert dup.node(node.id).attributes["color"] == "red"

    def test_validate_passes_on_well_formed_graph(self):
        load_world_prior(small_world()).validate()


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
        a = g.add_observed_node("f0.a.t", "cup", attributes={"color": "white"}, instance_index=0)
        g.add_observed_node("f0.a.t", "cup", attributes={"color": "blue"}, instance_index=1)
        got = g.resolve_label("cup", constraint=("color", "White"))
        assert [n.id for n in got] == [a.id]

    def test_constraint_keeps_unverified_candidates_when_none_match(self):
        g = load_world_prior(small_world())
        g.add_observed_node("f0.a.t", "cup", attributes={"color": "blue"}, instance_index=0)
        unseen = g.add_observed_node("f0.a.t", "cup", instance_index=1)
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
        st.one_of(st.none(), st.integers(0, 2)),
    )
    for parent, label, attributes, index in data.draw(st.lists(adds, max_size=6)):
        graph.add_observed_node(parent, label, attributes, index)
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

    def test_index_built_before_a_node_is_added_stays_current(self):
        g = load_world_prior(small_world())
        assert g.resolve_label("cup") == []
        cup = g.add_observed_node("f0.a.t", "coffee cup")
        assert g.resolve_label("cup") == [cup]
        assert g.find_nodes("coffee cups") == [cup]
        assert g.matches_under("f0.a", "cup", Layer.SMALL_OBJECT) == [cup]
