"""Simulated indoor world and what the agent gets to see in it.

The world truth is a full scene graph down to small objects, plus
per-node perception metadata; ``load_world_truth`` is the one reader of
the world-file format. A world file writes no small object's id: the
loader makes it from the support's id, the label and the object's index
among its same-label siblings. The agent starts from its prior: the
floors, rooms and big objects of that graph, with no attributes. What an
observation reveals depends only on where the agent stands:

  * at a floor: the labels of its rooms, nothing else
  * at a room: the labels of its big objects and their remote attributes
  * at a big object: the labels of attached small objects (unless a
    small object hides from parent view), the small objects' remote
    attributes, and every attribute of the big object itself
  * at a small object: every attribute of that object

Attributes listed in a node's close_only set never show from one layer
up; they require standing at the node. Movement between anchors is by
teleport, one step per MoveTo whether it succeeds or not. A MoveTo that
names a label instead of a node resolves it outward from the pose on the
world's graph (``SceneGraph.resolve_from``), which memoizes each
unconstrained floor, room or big-object answer for the world's life.
Observing is free. A failed move is reported through the observation,
not raised.

An observation is a view: what one anchor shows, with relations taken to
one reference node. Each view is built once per world, and every
observation of that anchor and reference is that very record, across
episodes and threads; only a failed move's observation is a copy, marked
as failed. A view shows only its anchor's children, one layer below it.
The anchor's own view (reference = anchor) holds the parts every view of
the anchor shares: the revealed attributes and the fold. A fold is what
the view adds to an agent's graph, as prebuilt nodes the graph takes by
reference in one ``SceneGraph.fold_in`` call (see ``Fold`` and
``agent.ingest_observation``). A big object's fold carries its small
objects as a prebuilt ``NodeBatch``: checked once per world and grouped
for the label index, so a graph adopts them with a check of its own ids
and parent and a few map updates. Each revealed node is paired, once per
world, with the two prebuilt nodes it may stand in for: the prior
template's node, and the node the parent anchor's view adopts or reveals
for its id. A graph that still holds either one swaps it out without
comparing the two. An observation carries no step number; the trace
event that holds it does. A world's graph must therefore not be mutated
after its first episode: views built before the change would not see it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

from .parsing import json_text
from .rules import MOVE_TO, OBSERVE, Plan
from .scene_graph import (
    BIG_OBJECT,
    FLOOR,
    ROOM,
    SMALL_OBJECT,
    GraphValidationError,
    Layer,
    NodeBatch,
    SceneGraph,
    SceneNode,
    WorldFormatError,
    _INVERSE_RELATION,
    normalize_label,
    stands_in_for,
)

_DEFAULT_PLACEMENT = {ROOM: "in", BIG_OBJECT: "in", SMALL_OBJECT: "on"}

_SMALL_RELATIONS = ("on", "in", "above", "below", "next-to", "held")


@dataclass
class AgentPose:
    anchor_id: str
    steps_taken: int = 0


@dataclass(frozen=True)
class VisibleNode:
    node_id: str
    label: str
    layer: Layer
    relation: str | None

    def to_list(self) -> list[Any]:
        return [self.node_id, self.label, self.layer.tag, self.relation]


class Fold(NamedTuple):
    """What one anchor's views add to an agent's graph, built once per
    world with the anchor's own view and shared by its other views.

    adopted holds the small objects a big-object anchor shows, as a
    ``NodeBatch`` to add under it, checked and grouped for the label
    index once, here; None for a view that adopts nothing. revealed
    holds a node for each node the view does not adopt and whose
    attributes it reveals: the anchor, or a room's big objects. Each
    adopted or revealed node is a clone of the world's node that carries
    only the revealed attributes, so it differs from the prior template's
    node, or from the node its parent's view adopts or reveals, in
    nothing but those. A node's attribute map is the very dict the view's
    ``revealed`` wraps read-only; no graph writes a node it holds in
    place, so graphs hold these nodes by reference.

    Each revealed node is paired with the two prebuilt nodes it may
    replace, each checked once per world with ``scene_graph.stands_in_for``
    and None where there is no such node or the check fails: replaces
    holds the prior template's node of its id (None for a small object,
    which the template lacks), and also_replaces the node the parent
    anchor's view adopts or reveals for its id, as a room's view reveals
    its big objects and a big object's view adopts its small objects.
    shown holds the ids of the nodes the view shows and does not adopt:
    a floor's rooms or a room's big objects. ``SceneGraph.fold_in``
    reads the whole fold.
    """

    adopted: NodeBatch | None
    revealed: tuple[SceneNode, ...]
    replaces: tuple[SceneNode | None, ...]
    also_replaces: tuple[SceneNode | None, ...]
    shown: tuple[str, ...]


class Observation(NamedTuple):
    """What the agent sees at one step: the view ``WorldTruth.view``
    memoizes, shared by every observation of it, or for a failed move a
    copy of it with ``move_failed`` set. ``revealed`` is read-only at both
    levels, because every view of the anchor shares it, as they share
    its ``fold``. ``visible`` holds the anchor's children only, each with
    the relation it holds to the view's reference. The step is the
    trace's: ``to_dict`` takes it."""

    anchor_id: str
    anchor_layer: Layer
    visible: tuple[VisibleNode, ...]
    revealed: Mapping[str, Mapping[str, str]]
    fold: Fold
    move_failed: bool = False

    def to_dict(self, step: int = 0) -> dict[str, Any]:
        return {
            "step": step,
            "anchor": self.anchor_id,
            "anchor_layer": self.anchor_layer.tag,
            "visible": [v.to_list() for v in self.visible],
            "revealed": {k: dict(v) for k, v in sorted(self.revealed.items())},
            "move_failed": self.move_failed,
        }


class WorldTruth:
    """Ground-truth world: full graph plus perception metadata.

    The prior graph template (``graph``'s layers 1 to 3 without
    attributes) and every observation view, with its fold, are built from
    ``graph`` on first use and kept for the life of the world, so
    ``graph`` must not be mutated after the first episode.
    """

    def __init__(
        self,
        graph: SceneGraph,
        world_id: str = "world",
        entrance: str | None = None,
        close_only: dict[str, frozenset[str]] | None = None,
        occluded: set[str] | None = None,
        placement: dict[str, str] | None = None,
    ) -> None:
        self.graph = graph
        self.world_id = world_id
        self.close_only = close_only or {}
        self.occluded = occluded or set()
        self.placement = placement or {}
        if entrance is None:
            floors = graph.nodes_at(FLOOR)
            if not floors:
                raise WorldFormatError("world has no floor")
            entrance = floors[0].id
        elif entrance not in graph:
            raise WorldFormatError(f"entrance references unknown node {entrance!r}")
        self.entrance = entrance
        self._prior_template: SceneGraph | None = None
        self._views: dict[tuple[str, str], Observation] = {}

    # -- queries used by the environment and by dataset oracles ---------

    def remote_attributes(self, node_id: str) -> dict[str, str]:
        node = self.graph.node(node_id)
        hidden = self.close_only.get(node_id, frozenset())
        return {k: v for k, v in node.attributes.items() if k not in hidden}

    def placement_relation(self, node_id: str) -> str:
        node = self.graph.node(node_id)
        return self.placement.get(node_id, _DEFAULT_PLACEMENT.get(node.layer, "in"))

    def view(self, anchor_id: str, focus_id: str | None = None) -> Observation:
        """What standing at the anchor shows, relations taken to the focus.

        The reference for relations is the focus if it is in the graph,
        else the anchor. Each (anchor, reference) view is built on first
        request and shared after that: a hit is one probe, made before the
        focus is looked up in the graph. The anchor's own view is built
        from its children; a view with another reference takes that view's
        ``revealed`` and ``fold`` and works out only the relations in
        ``visible``. Two threads that race on the first request both build
        the same view and one of them is kept, which is harmless. Raises
        UnknownNodeError for an anchor not in the graph.
        """
        reference_id = anchor_id if focus_id is None else focus_id
        key = (anchor_id, reference_id)
        cached = self._views.get(key)
        if cached is not None:
            return cached
        if reference_id != anchor_id and reference_id not in self.graph:
            return self.view(anchor_id)
        if reference_id == anchor_id:
            view = self._anchor_view(self.graph.node(anchor_id))
        else:
            # A visible node is the anchor's child, so the reference,
            # which is not the anchor, is never its parent.
            own = self.view(anchor_id)
            ref_parent = self.graph.parent(reference_id)

            def relation(node_id: str) -> str | None:
                if node_id == reference_id:
                    return "here"
                if ref_parent is not None and ref_parent.id == node_id:
                    rel = self.placement_relation(reference_id)
                    return _INVERSE_RELATION.get(rel, rel)
                return self.graph.spatial_relation(node_id, reference_id)

            visible = tuple(VisibleNode(v.node_id, v.label, v.layer, relation(v.node_id)) for v in own.visible)
            view = own._replace(visible=visible)
        return self._views.setdefault(key, view)

    def _anchor_view(self, anchor: SceneNode) -> Observation:
        """The anchor's own view: the children it shows, the attributes it
        reveals and its fold, which its views with other references share.
        The fold's batch is checked here, and each revealed node paired
        with the nodes it stands in for, so the checks run once per world.
        The parent's view is built first, for its nodes to pair with."""
        big = anchor.layer is BIG_OBJECT
        children = tuple(self.graph.children(anchor.id))
        if big and self.occluded:
            children = tuple(c for c in children if c.id not in self.occluded)
        revealed: dict[str, Mapping[str, str]] = {}
        adopted: list[SceneNode] = []
        with_values: list[SceneNode] = []
        # A floor shows its rooms' labels only; a small object has no children.
        if anchor.layer is not FLOOR:
            if anchor.attributes:
                attributes = dict(anchor.attributes)
                revealed[anchor.id] = MappingProxyType(attributes)
                with_values.append(anchor.clone(attributes))
            for child in children:
                remote = self.remote_attributes(child.id)
                node = child.clone(remote)
                if remote:
                    revealed[child.id] = MappingProxyType(remote)
                if big:
                    adopted.append(node)
                elif remote:
                    with_values.append(node)
        # a child stands to its anchor as it is placed there
        visible = tuple(VisibleNode(c.id, c.label, c.layer, self.placement_relation(c.id)) for c in children)
        # A template node holds no values and a revealed node at least one,
        # so a graph that holds the template node swaps it, never keeps it.
        template = self._template()
        above: dict[str, SceneNode] = {}
        parent = self.graph.parent(anchor.id)
        if parent is not None:
            parent_fold = self.view(parent.id).fold
            above = {n.id: n for n in parent_fold.revealed}
            if parent_fold.adopted is not None:
                above.update(parent_fold.adopted.by_id)

        def pair(node: SceneNode, known: SceneNode | None) -> SceneNode | None:
            return known if known is not None and stands_in_for(node, known) else None

        replaces = tuple(pair(n, template.get(n.id)) for n in with_values)
        also_replaces = tuple(pair(n, above.get(n.id)) for n in with_values)
        batch = NodeBatch.under(anchor, adopted) if adopted else None
        shown = () if big else tuple(c.id for c in children)
        fold = Fold(batch, tuple(with_values), replaces, also_replaces, shown)
        return Observation(anchor.id, anchor.layer, visible, MappingProxyType(revealed), fold)

    def _template(self) -> SceneGraph:
        template = self._prior_template
        if template is None:
            graph = self.graph
            template = SceneGraph()
            for floor in graph.nodes_at(FLOOR):
                template.add_node(floor.clone({}))
                for room in graph.children(floor.id):
                    template.add_node(room.clone({}), floor.id)
                    for big in graph.children(room.id):
                        template.add_node(big.clone({}), room.id)
            template.spatial_edges = {
                (a, b): relation for (a, b), relation in graph.spatial_edges.items() if a in template and b in template
            }
            self._prior_template = template
        return template

    def prior_graph(self) -> SceneGraph:
        """The agent's starting knowledge: layers 1 to 3 of ``graph``.

        That is a new node without attributes for each floor, room and big
        object, with its id, label, instance index and position, and the
        spatial edges between them. The template is built from
        ``graph`` on the first call and kept for the life of this world.
        Each call returns an overlay on it (``SceneGraph.copy``): the node
        objects and the label index stay shared with the template, and the
        overlay keeps only what it adds or writes. Callers may grow it
        freely through ``SceneGraph`` methods, which put a new node in
        place of one they write; writing to ``node.attributes`` directly
        would reach the template. ``graph`` must not be mutated once the
        template exists: later calls would not see the change.
        Two threads that race on the first call both build the same
        template and index, which is harmless.
        """
        return self._template().copy()


# -- world files ------------------------------------------------------------


def _locus(fi: int, ri: int, bi: int, si: int, ei: int) -> str:
    """Where the entry being read sits, from its index at each level, -1 at a
    level it is not in: "floors[0].rooms[2]", "spatial_edges[4]" or "world"."""
    if ei >= 0:
        return f"spatial_edges[{ei}]"
    steps = zip(("floors", "rooms", "big_objects", "small_objects"), (fi, ri, bi, si))
    return ".".join(f"{name}[{i}]" for name, i in steps if i >= 0) or "world"


def _require(mapping: Any, key: str) -> Any:
    if not isinstance(mapping, dict):
        raise WorldFormatError("expected an object")
    if key not in mapping:
        raise WorldFormatError(f"missing field {key!r}")
    return mapping[key]


def _array(entry: dict[str, Any], key: str, default: list[Any] | None = None) -> list[Any]:
    """The array under the key, which is required unless a default is given."""
    value = _require(entry, key) if default is None else entry.get(key, default)
    if not isinstance(value, list):
        raise WorldFormatError(f"{key} must be an array")
    return value


def _text(entry: Any, key: str, default: str | None = None) -> str:
    """The text under the key, which is required unless a default is
    given: a string after one type test, or a number read as its text."""
    value = entry.get(key, default) if isinstance(entry, dict) else None
    if type(value) is str:
        return value
    return json_text(_require(entry, key) if default is None else value, key, WorldFormatError)


def _position(value: Any) -> tuple[float, float]:
    """[x, y] in meters: two finite numbers, integers read as floats."""
    if type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is float:
        if math.isfinite(value[0]) and math.isfinite(value[1]):
            return (value[0], value[1])
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in value)
    ):
        raise WorldFormatError("position must be [x, y] in meters")
    return (float(value[0]), float(value[1]))


def _attributes(entry: dict[str, Any]) -> tuple[dict[str, str], frozenset[str]]:
    """An object's attribute map and the names its close_only list hides."""
    attrs = entry.get("attributes", {})
    if not isinstance(attrs, dict):
        raise WorldFormatError("attributes must be an object")
    hidden = _array(entry, "close_only", [])
    for name in hidden:
        if not isinstance(name, str) or name not in attrs:
            raise WorldFormatError(f"close_only names absent attribute {name!r}")
    values = {
        str(k): v if type(v) is str else json_text(v, f"attributes.{k}", WorldFormatError) for k, v in attrs.items()
    }
    return values, frozenset(hidden)


def read_world_source(source: Any) -> tuple[dict[str, Any], Path | None]:
    """A world's JSON object and the file it was read from: a dict as
    given (no file), or the path of a JSON file read as UTF-8."""
    if isinstance(source, dict):
        return source, None
    if not isinstance(source, (str, Path)):
        raise WorldFormatError(f"unsupported world source: {type(source).__name__}")
    path = Path(source)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise WorldFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise WorldFormatError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise WorldFormatError(f"{path}: world file must be a JSON object")
    return data, path


def load_world_truth(source: Any) -> WorldTruth:
    """Load a world file in one pass.

    Each floor, room, big object and small object becomes a node as it
    is read, with its attributes and perception flags; the spatial edges
    join floors, rooms or big objects within one layer. A small object's
    id is made here, as "f0.living.table.cup.1" for the second cup on
    that table. Ids, labels and attribute values are strings or numbers.
    Raises WorldFormatError naming the first field that is wrong, after
    the file's path when the world was read from one.
    """
    data, path = read_world_source(source)
    prefix = "" if path is None else f"{path}: "
    graph = SceneGraph()
    close_only: dict[str, frozenset[str]] = {}
    occluded: set[str] = set()
    placement: dict[str, str] = {}
    seen: dict[tuple[str, str], int] = {}

    def instance_index(parent_id: str, norm: str) -> int:
        """The number of earlier siblings with this normalized label."""
        key = (parent_id, norm)
        seen[key] = index = seen.get(key, -1) + 1
        return index

    fi = ri = bi = si = ei = -1  # the entry being read, by level; see _locus
    try:
        floors = _array(data, "floors")
        if not floors:
            raise WorldFormatError("floors must be a non-empty array")
        for fi, floor in enumerate(floors):
            ri = bi = si = -1
            fid = _text(floor, "id")
            graph.add_node(SceneNode(fid, FLOOR, _text(floor, "label", "floor")))
            for ri, room in enumerate(_array(floor, "rooms")):
                bi = si = -1
                rid, label = _text(room, "id"), _text(room, "label")
                position = _position(_require(room, "position"))
                graph.add_node(SceneNode(rid, ROOM, label, instance_index(fid, normalize_label(label)), position), fid)
                for bi, big in enumerate(_array(room, "big_objects")):
                    si = -1
                    bid, label = _text(big, "id"), _text(big, "label")
                    position = _position(_require(big, "position"))
                    attrs, hidden = _attributes(big)
                    index = instance_index(rid, normalize_label(label))
                    graph.add_node(SceneNode(bid, BIG_OBJECT, label, index, position, attrs), rid)
                    if hidden:
                        close_only[bid] = hidden
                    for si, small in enumerate(_array(big, "small_objects", [])):
                        label = _text(small, "label")
                        attrs, hidden = _attributes(small)
                        norm = normalize_label(label)
                        index = instance_index(bid, norm)
                        sid = f"{bid}.{norm.replace(' ', '_')}.{index}"
                        graph.add_node(SceneNode(sid, SMALL_OBJECT, label, index, attributes=attrs), bid)
                        if hidden:
                            close_only[sid] = hidden
                        relation = small.get("relation", "on")
                        if relation != "on":
                            if relation not in _SMALL_RELATIONS:
                                raise WorldFormatError(f"unknown relation {relation!r}")
                            placement[sid] = str(relation)
                        hides = small.get("occluded_from_parent", False)
                        if not isinstance(hides, bool):
                            raise WorldFormatError(f"occluded_from_parent must be a boolean, not {hides!r}")
                        if hides:
                            occluded.add(sid)
        fi = ri = bi = si = -1  # the edges and the id are read at the world's level
        for ei, edge in enumerate(_array(data, "spatial_edges", [])):
            a, b, relation = _text(edge, "a"), _text(edge, "b"), _text(edge, "relation")
            for end in (a, b):  # a small object's id is made here, not written in the file
                if end not in graph or graph.node(end).layer is SMALL_OBJECT:
                    raise WorldFormatError(f"references unknown node {end!r}")
            graph.add_spatial_edge(a, b, relation)
        ei = -1
        world_id = _text(data, "id", "world" if path is None else path.stem)
    except (WorldFormatError, GraphValidationError) as exc:  # a duplicate id or a bad edge is a GraphValidationError
        raise WorldFormatError(f"{prefix}{_locus(fi, ri, bi, si, ei)}: {exc}") from exc
    entrance = data.get("entrance")
    try:
        return WorldTruth(
            graph,
            world_id=world_id,
            entrance=str(entrance) if entrance is not None else None,
            close_only=close_only,
            occluded=occluded,
            placement=placement,
        )
    except WorldFormatError as exc:  # the entrance names no node
        raise WorldFormatError(f"{prefix}{exc}") from exc


def load_world_prior(source: Any) -> SceneGraph:
    """Load a prior world file, what the agent knows before looking: a
    world file that passes ``check_prior``."""
    graph = load_world_truth(source).graph
    check_prior(graph, source)
    return graph


def check_prior(graph: SceneGraph, source: Any) -> None:
    """Refuse a world read from source as a prior, naming the file, when
    it was read from one, and the first node that holds a small object or
    an attribute value."""
    prefix = "" if isinstance(source, dict) else f"{Path(source)}: "
    for node in graph.nodes:
        if node.layer is SMALL_OBJECT or node.attributes:
            raise WorldFormatError(f"{prefix}{node.id}: prior files cannot carry small objects or attribute values")


class MoveError(ValueError):
    """Raised only for plans the environment cannot execute at all."""


class Environment:
    """Executes plans against one world, tracking the agent's pose.

    The world's graph is never mutated (the world memoizes views of it,
    and the graph its label resolutions); one Environment per episode
    keeps concurrent episodes independent.
    """

    def __init__(self, world: WorldTruth) -> None:
        self.world = world
        self.pose = AgentPose(world.entrance)

    def reset(self) -> tuple[AgentPose, Observation]:
        self.pose = AgentPose(self.world.entrance)
        return self.pose, self.observe()

    # -- observation ----------------------------------------------------

    def observe(self) -> Observation:
        """The pose's anchor's own view: the world's record, not a copy."""
        return self.world.view(self.pose.anchor_id)

    # -- plan execution -------------------------------------------------

    def execute(self, plan: Plan) -> Observation:
        if plan.kind is OBSERVE:
            return self.world.view(self.pose.anchor_id, plan.focus_id)
        if plan.kind is not MOVE_TO:
            raise MoveError(f"environment cannot execute a {plan.kind.value} plan")
        self.pose.steps_taken += 1
        goal = self._resolve_goal(plan)
        if goal is None:
            return self.world.view(self.pose.anchor_id)._replace(move_failed=True)
        self.pose.anchor_id = goal.id
        return self.world.view(goal.id)

    def _resolve_goal(self, plan: Plan) -> SceneNode | None:
        graph = self.world.graph
        if plan.goal_id is not None:
            return graph.get(plan.goal_id)
        return graph.resolve_from(self.pose.anchor_id, plan.goal_label, plan.goal_layer) if plan.goal_label else None
