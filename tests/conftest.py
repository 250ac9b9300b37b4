"""Shared fixtures: bundled worlds and a tiny hand-rolled graph."""

from __future__ import annotations

import contextlib
import copy
import math
import pathlib

import pytest

from stepqa.environment import Environment, WorldTruth, load_world_truth, read_world_source
from stepqa.scene_graph import Layer, SceneNode, alias_label, normalize_label
from stepqa.worldgen import random_world_data

WORLDS = pathlib.Path(__file__).resolve().parent.parent / "worlds"

# Acceptance verdicts, filled in by the criterion() blocks in
# test_acceptance.py and echoed after the run so the pass/fail line for
# each criterion survives pytest's output capture.
acceptance_results: dict[int, tuple[bool, str]] = {}


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        acceptance_results[number] = (False, description)
        raise
    acceptance_results[number] = (True, description)


def pytest_terminal_summary(terminalreporter):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(acceptance_results):
        ok, description = acceptance_results[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {description}")


@pytest.fixture(scope="session")
def demo_path() -> pathlib.Path:
    return WORLDS / "demo_house.json"


@pytest.fixture()
def demo_truth(demo_path) -> WorldTruth:
    return load_world_truth(demo_path)


@pytest.fixture()
def demo_env(demo_truth) -> Environment:
    return Environment(demo_truth)


@pytest.fixture()
def clear_truth() -> WorldTruth:
    return load_world_truth(WORLDS / "clutter_clear.json")


@pytest.fixture()
def occluded_truth() -> WorldTruth:
    return load_world_truth(WORLDS / "clutter_occluded.json")


def bundled_and_generated_worlds():
    """The bundled worlds, then generated worlds 1 to 20."""
    for path in sorted(WORLDS.glob("*.json")):
        yield load_world_truth(path)
    for seed in range(1, 21):
        yield load_world_truth(random_world_data(seed))


def small_id(parent_id, label, index=0):
    """The id the world loader gives a small object."""
    return f"{parent_id}.{normalize_label(label).replace(' ', '_')}.{index}"


def add_small(graph, parent_id, label, attributes=None, index=0):
    """Add a small object under a big object, as the world loader does."""
    node_id = small_id(parent_id, label, index)
    node = SceneNode(node_id, Layer.SMALL_OBJECT, label, index, attributes=dict(attributes or {}))
    return graph.add_node(node, parent_id)


def ancestor_ids(graph, node_id):
    """The ids on the node's containment path, its parent's up to its floor's."""
    out = []
    while (parent := graph.parent(node_id)) is not None:
        out.append(parent.id)
        node_id = parent.id
    return out


def scan_resolve_label(graph, label, layer=None, scope_id=None, constraint=None, near=None):
    """resolve_label as a scan over every node in scope: the reference."""
    pool = graph.descendants(scope_id) if scope_id is not None else graph.nodes
    pool = [n for n in pool if layer is None or n.layer is layer]
    norm, aliased = normalize_label(label), alias_label(label)
    found = [n for n in pool if normalize_label(n.label) == norm]
    if not found and aliased != norm:
        found = [n for n in pool if normalize_label(n.label) == aliased]
    if not found:
        found = [n for n in pool if normalize_label(n.label).endswith(" " + norm)]
    if constraint is not None and found:
        attr, value = constraint
        want = value.lower().split()
        matching = [n for n in found if attr in n.attributes and n.attributes[attr].lower().split() == want]
        found = matching or [n for n in found if attr not in n.attributes]

    def key(n):
        pos = graph.position_of(n.id) if near is not None else None
        d = (math.dist(near, pos) if pos is not None else math.inf) if near is not None else 0.0
        return (d, n.layer, n.instance_index, n.id)

    return [n.id for n in sorted(found, key=key)]


def scan_resolve_from(graph, anchor_id, label, layer=None, constraint=None):
    """resolve_from as scans: ``scan_resolve_label`` in each of the
    anchor's outward scopes (its subtree, its parent's, its room's, then
    the whole graph) until one has a candidate, nearest the anchor first.
    The winner's id, or None: the reference."""
    anchor = graph.get(anchor_id)
    scopes = []
    if anchor is not None:
        scopes.append(anchor.id)
        parent = graph.parent(anchor.id)
        if parent is not None:
            scopes.append(parent.id)
            if parent.layer > Layer.ROOM:
                scopes.append(graph.room_of(parent.id).id)
    near = graph.position_of(anchor_id) if anchor is not None else None
    for scope in [*scopes, None]:
        found = scan_resolve_label(graph, label, layer, scope, constraint, near)
        if found:
            return found[0]
    return None


def multi_floor_data(seed, floors, **world):
    """A generated world whose rooms are dealt round-robin onto floors f0..fn,
    without the spatial edges (which may not cross floors). The keywords
    go to random_world_data, 4 rooms unless they say otherwise."""
    data = random_world_data(seed, **{"rooms": 4, **world})
    rooms = data["floors"][0]["rooms"]
    data["floors"] = [
        {"id": f"f{i}", "label": f"floor {i}", "rooms": rooms[i::floors]} for i in range(floors)
    ]
    data["spatial_edges"] = []
    return data


def prior_data(source):
    """A world file cut down to the prior schema: its big objects without
    small objects, attributes or close_only lists."""
    data = copy.deepcopy(read_world_source(source)[0])
    for floor in data["floors"]:
        for room in floor["rooms"]:
            for big in room["big_objects"]:
                for key in ("small_objects", "attributes", "close_only"):
                    big.pop(key, None)
    return data
