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

An observation is a view: what one anchor shows, with relations taken
to one reference node. Each view is built once per world, and every
observation of that anchor and reference is that very record, across
episodes and threads; only a failed move's observation is a copy,
marked as failed. The anchor's own view (reference = anchor) holds the
parts every view of the anchor shares: the revealed attributes and the
fold. A fold is what the view adds to an agent's graph, as prebuilt
nodes the graph takes by reference in one ``SceneGraph.fold_in`` call
(see ``Fold`` and ``agent.ingest_observation``). A big object's fold
carries its small objects as a prebuilt ``NodeBatch``: checked once per
world and grouped for the label index, so a graph adopts them with a
check of its own ids and parent and a few map updates. Each revealed
node is paired, once per world, with the two prebuilt nodes it may
stand in for: the prior template's node, and the node the parent
anchor's view adopts or reveals for its id. A graph that still holds
either one swaps it out without comparing the two. An observation
carries no step number;
the trace event that holds it does. A world's graph must therefore not
be mutated after its first episode: views built before the change
would not see it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Mapping, NamedTuple

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
    its ``fold``. The step is the trace's: ``to_dict`` takes it."""

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
        request and shared after that. The anchor's own view is built from
        its children; a view with another reference takes that view's
        ``revealed`` and ``fold`` and works out only the relations in
        ``visible``. Two threads that race on the first request both build
        the same view and one of them is kept, which is harmless. Raises
        UnknownNodeError for an anchor not in the graph.
        """
        reference_id = focus_id if focus_id is not None and focus_id in self.graph else anchor_id
        key = (anchor_id, reference_id)
        cached = self._views.get(key)
        if cached is not None:
            return cached
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

        replaces = tuple(pair(n, template.node(n.id) if n.id in template else None) for n in with_values)
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
            template.spatial_edges = [e for e in graph.spatial_edges if e.a in template and e.b in template]
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


def _require(mapping: Any, key: str, where: str) -> Any:
    if not isinstance(mapping, dict):
        raise WorldFormatError(f"{where}: expected an object")
    if key not in mapping:
        raise WorldFormatError(f"{where}: missing field {key!r}")
    return mapping[key]


def _array(entry: dict[str, Any], key: str, where: str, default: list[Any] | None = None) -> list[Any]:
    """The array under the key, which is required unless a default is given."""
    value = _require(entry, key, where) if default is None else entry.get(key, default)
    if not isinstance(value, list):
        raise WorldFormatError(f"{where}: {key} must be an array")
    return value


def _text(entry: dict[str, Any], key: str, where: str, default: str | None = None) -> str:
    """The text under the key, which is required unless a default is
    given: a string, or a number read as its text."""
    value = _require(entry, key, where) if default is None else entry.get(key, default)
    return json_text(value, f"{where}: {key}", WorldFormatError)


def _position(value: Any, where: str) -> tuple[float, float]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        raise WorldFormatError(f"{where}: position must be [x, y] in meters")
    return (float(value[0]), float(value[1]))


def _attributes(entry: dict[str, Any], where: str) -> tuple[dict[str, str], frozenset[str]]:
    """An object's attribute map and the names its close_only list hides."""
    attrs = entry.get("attributes", {})
    if not isinstance(attrs, dict):
        raise WorldFormatError(f"{where}: attributes must be an object")
    hidden = _array(entry, "close_only", where, [])
    unknown = [h for h in hidden if not isinstance(h, str) or h not in attrs]
    if unknown:
        raise WorldFormatError(f"{where}: close_only names absent attribute {unknown[0]!r}")
    values = {str(k): json_text(v, f"{where}: attributes.{k}", WorldFormatError) for k, v in attrs.items()}
    return values, frozenset(hidden)


def _add(where: str, add: Callable[..., Any], *args: Any) -> Any:
    """Call a graph method; a GraphValidationError it raises (a duplicate
    id, a bad spatial edge) becomes a WorldFormatError naming the locus."""
    try:
        return add(*args)
    except GraphValidationError as exc:
        raise WorldFormatError(f"{where}: {exc}") from exc


def world_source_path(source: Any) -> Path | None:
    """The file a world source names; None for a dict."""
    return Path(source) if isinstance(source, (str, Path)) else None


def read_world_source(source: Any) -> dict[str, Any]:
    """Accept a dict or the path of a JSON file, read as UTF-8."""
    if isinstance(source, dict):
        return source
    path = world_source_path(source)
    if path is None:
        raise WorldFormatError(f"unsupported world source: {type(source).__name__}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise WorldFormatError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise WorldFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise WorldFormatError("world file must be a JSON object")
    return data


def load_world_truth(source: Any) -> WorldTruth:
    """Load a world file in one pass.

    Each floor, room, big object and small object becomes a node as it
    is read, with its attributes and perception flags; the spatial edges
    join floors, rooms or big objects within one layer. A small object's
    id is made here, as "f0.living.table.cup.1" for the second cup on
    that table. Ids, labels and attribute values are strings or numbers.
    Raises WorldFormatError naming the first field that is wrong.
    """
    data = read_world_source(source)
    graph = SceneGraph()
    close_only: dict[str, frozenset[str]] = {}
    occluded: set[str] = set()
    placement: dict[str, str] = {}
    seen: dict[tuple[str, str], int] = {}

    def instance_index(parent_id: str, label: str) -> int:
        """The number of earlier siblings with this normalized label."""
        key = (parent_id, normalize_label(label))
        seen[key] = index = seen.get(key, -1) + 1
        return index

    floors = _array(data, "floors", "world")
    if not floors:
        raise WorldFormatError("world: floors must be a non-empty array")
    for fi, floor in enumerate(floors):
        fwhere = f"floors[{fi}]"
        fid = _text(floor, "id", fwhere)
        _add(fwhere, graph.add_node, SceneNode(fid, FLOOR, _text(floor, "label", fwhere, "floor")))
        for ri, room in enumerate(_array(floor, "rooms", fwhere)):
            rwhere = f"{fwhere}.rooms[{ri}]"
            rid = _text(room, "id", rwhere)
            label = _text(room, "label", rwhere)
            position = _position(_require(room, "position", rwhere), rwhere)
            room_node = SceneNode(rid, ROOM, label, instance_index(fid, label), position)
            _add(rwhere, graph.add_node, room_node, fid)
            for bi, big in enumerate(_array(room, "big_objects", rwhere)):
                bwhere = f"{rwhere}.big_objects[{bi}]"
                bid = _text(big, "id", bwhere)
                label = _text(big, "label", bwhere)
                position = _position(_require(big, "position", bwhere), bwhere)
                attrs, hidden = _attributes(big, bwhere)
                big_node = SceneNode(bid, BIG_OBJECT, label, instance_index(rid, label), position, attrs)
                _add(bwhere, graph.add_node, big_node, rid)
                if hidden:
                    close_only[bid] = hidden
                for si, small in enumerate(_array(big, "small_objects", bwhere, [])):
                    swhere = f"{bwhere}.small_objects[{si}]"
                    label = _text(small, "label", swhere)
                    attrs, hidden = _attributes(small, swhere)
                    index = instance_index(bid, label)
                    sid = f"{bid}.{normalize_label(label).replace(' ', '_')}.{index}"
                    node = SceneNode(sid, SMALL_OBJECT, label, index, attributes=attrs)
                    _add(swhere, graph.add_node, node, bid)
                    if hidden:
                        close_only[node.id] = hidden
                    relation = small.get("relation", "on")
                    if relation not in _SMALL_RELATIONS:
                        raise WorldFormatError(f"{swhere}: unknown relation {relation!r}")
                    if relation != "on":
                        placement[node.id] = str(relation)
                    hides = small.get("occluded_from_parent", False)
                    if not isinstance(hides, bool):
                        raise WorldFormatError(f"{swhere}: occluded_from_parent must be a boolean, not {hides!r}")
                    if hides:
                        occluded.add(node.id)
    for ei, edge in enumerate(_array(data, "spatial_edges", "world", [])):
        ewhere = f"spatial_edges[{ei}]"
        a, b, relation = (_text(edge, key, ewhere) for key in ("a", "b", "relation"))
        for end in (a, b):  # a small object's id is made here, not written in the file
            if end not in graph or graph.node(end).layer is SMALL_OBJECT:
                raise WorldFormatError(f"{ewhere}: references unknown node {end!r}")
        _add(ewhere, graph.add_spatial_edge, a, b, relation)
    path = world_source_path(source)
    world_id = _text(data, "id", "world", path.stem if path is not None else "world")
    entrance = data.get("entrance")
    return WorldTruth(
        graph,
        world_id=world_id,
        entrance=str(entrance) if entrance is not None else None,
        close_only=close_only,
        occluded=occluded,
        placement=placement,
    )


def load_world_prior(source: Any) -> SceneGraph:
    """Load a prior world file: what the agent knows before looking.

    It is read as any world file, then refused, naming the first node,
    if it holds a small object or an attribute value.
    """
    graph = load_world_truth(source).graph
    for node in graph.nodes:
        if node.layer is SMALL_OBJECT or node.attributes:
            raise WorldFormatError(f"{node.id}: prior files cannot carry small objects or attribute values")
    return graph


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

    def observe(self, focus_id: str | None = None) -> Observation:
        """The world's view from the pose's anchor, itself, not a copy."""
        return self.world.view(self.pose.anchor_id, focus_id)

    # -- plan execution -------------------------------------------------

    def execute(self, plan: Plan) -> Observation:
        if plan.kind is OBSERVE:
            return self.observe(focus_id=plan.focus_id)
        if plan.kind is not MOVE_TO:
            raise MoveError(f"environment cannot execute a {plan.kind.value} plan")
        self.pose.steps_taken += 1
        goal = self._resolve_goal(plan)
        if goal is None:
            return self.observe()._replace(move_failed=True)
        self.pose.anchor_id = goal.id
        return self.observe()

    def _resolve_goal(self, plan: Plan) -> SceneNode | None:
        graph = self.world.graph
        if plan.goal_id is not None:
            return graph.node(plan.goal_id) if plan.goal_id in graph else None
        if not plan.goal_label:
            return None
        return graph.resolve_from(self.pose.anchor_id, plan.goal_label, plan.goal_layer)
