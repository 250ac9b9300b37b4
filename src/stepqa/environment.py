"""Simulated indoor world and what the agent gets to see in it.

The world truth is a full scene graph down to small objects, plus
per-node perception metadata. The agent starts from its prior: the
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
teleport, one step per MoveTo whether it succeeds or not. Observing is
free. A failed move is reported through the observation, not raised.

A view is what an observation shows from one anchor, with relations
taken to one reference node: the step-0 Observation of that anchor. It
is built once per world, and every observation of that anchor and
reference shares its parts read-only, across episodes and threads. The
parts that do not depend on the reference, the revealed attributes and
the view's fold, are built once per anchor. A fold is what the view
adds to an agent's graph, as prebuilt nodes the graph takes by
reference (see ``Fold`` and ``agent.ingest_observation``). A world's
graph must therefore not be mutated after its first episode: views
built before the change would not see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping, NamedTuple

from .rules import Plan, PlanKind, resolve_near_pose
from .scene_graph import (
    Layer,
    SceneGraph,
    SceneNode,
    WorldFormatError,
    _INVERSE_RELATION,
    build_prior_graph,
    normalize_label,
    read_world_source,
    world_source_path,
)

_DEFAULT_PLACEMENT = {Layer.ROOM: "in", Layer.BIG_OBJECT: "in", Layer.SMALL_OBJECT: "on"}

_SMALL_RELATIONS = ("on", "in", "above", "below", "next-to", "held")


@dataclass
class AgentPose:
    anchor_id: str
    layer: Layer
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
    """What one anchor's view adds to an agent's graph, built once per world.

    adopted holds the small objects a big-object anchor shows, as nodes
    to add under it. revealed holds a node for each node whose attributes
    the view reveals, an adopted node included. Each is a clone of the
    world's node that carries only the revealed attributes, so it differs
    from the prior template's node, or from the node its parent's view
    adopts, in nothing but those. A node's attribute map is the very dict
    the view's ``revealed`` wraps read-only, so no graph may write to it
    in place; a graph holds these nodes without owning them.
    """

    adopted: tuple[SceneNode, ...]
    revealed: tuple[SceneNode, ...]


class _AnchorParts(NamedTuple):
    children: tuple[SceneNode, ...]
    revealed: Mapping[str, Mapping[str, str]]
    fold: Fold


class Observation(NamedTuple):
    """What the agent sees at one step. ``revealed`` is read-only at both
    levels, because observations of the same view share it, as they share
    the view's ``fold``."""

    anchor_id: str
    anchor_layer: Layer
    visible: tuple[VisibleNode, ...]
    revealed: Mapping[str, Mapping[str, str]]
    fold: Fold
    step: int = 0
    move_failed: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "step": self.step,
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
            floors = graph.nodes_at(Layer.FLOOR)
            if not floors:
                raise WorldFormatError("world has no floor")
            entrance = floors[0].id
        elif entrance not in graph:
            raise WorldFormatError(f"entrance references unknown node {entrance!r}")
        self.entrance = entrance
        self._prior_template: SceneGraph | None = None
        self._views: dict[tuple[str, str], Observation] = {}
        self._anchors: dict[str, _AnchorParts] = {}

    # -- queries used by the environment and by dataset oracles ---------

    def remote_attributes(self, node_id: str) -> dict[str, str]:
        node = self.graph.node(node_id)
        hidden = self.close_only.get(node_id, frozenset())
        return {k: v for k, v in node.attributes.items() if k not in hidden}

    def placement_relation(self, node_id: str) -> str:
        node = self.graph.node(node_id)
        return self.placement.get(node_id, _DEFAULT_PLACEMENT.get(node.layer, "in"))

    def view(self, anchor_id: str, focus_id: str | None = None) -> Observation:
        """What standing at the anchor shows, relations taken to the focus,
        as the anchor's step-0 Observation.

        The reference for relations is the focus if it is in the graph,
        else the anchor. Each (anchor, reference) view is built on first
        request and shared after that; its ``revealed`` mapping is
        read-only. Two threads that race on the first request both build
        the same view and one of them is kept, which is harmless. Raises
        UnknownNodeError for an anchor not in the graph.
        """
        graph = self.graph
        reference_id = focus_id if focus_id is not None and focus_id in graph else anchor_id
        key = (anchor_id, reference_id)
        cached = self._views.get(key)
        if cached is not None:
            return cached

        anchor = graph.node(anchor_id)
        children, revealed, fold = self._anchors.get(anchor_id) or self._anchor_parts(anchor)
        ref_parent = graph.parent(reference_id)

        def relation(node: SceneNode) -> str | None:
            if node.id == reference_id:
                return "here"
            parent = graph.parent(node.id)
            if parent is not None and parent.id == reference_id:
                return self.placement_relation(node.id)
            if ref_parent is not None and ref_parent.id == node.id:
                rel = self.placement_relation(reference_id)
                return _INVERSE_RELATION.get(rel, rel)
            return graph.spatial_relation(node.id, reference_id)

        visible = tuple(VisibleNode(c.id, c.label, c.layer, relation(c)) for c in children)
        view = Observation(anchor_id, anchor.layer, visible, revealed, fold)
        return self._views.setdefault(key, view)

    def _anchor_parts(self, anchor: SceneNode) -> _AnchorParts:
        """The children the anchor shows, the attributes it reveals and its
        fold: what every view of the anchor shares, whatever its reference.
        Built on first request and kept, as views are."""
        big = anchor.layer is Layer.BIG_OBJECT
        children = tuple(self.graph.children(anchor.id))
        if big and self.occluded:
            children = tuple(c for c in children if c.id not in self.occluded)
        revealed: dict[str, Mapping[str, str]] = {}
        adopted: list[SceneNode] = []
        with_values: list[SceneNode] = []
        # A floor shows its rooms' labels only; a small object has no children.
        if anchor.layer is not Layer.FLOOR:
            if anchor.attributes:
                attributes = dict(anchor.attributes)
                revealed[anchor.id] = MappingProxyType(attributes)
                with_values.append(anchor.clone(attributes))
            for child in children:
                remote = self.remote_attributes(child.id)
                node = child.clone(remote)
                if big:
                    adopted.append(node)
                if remote:
                    revealed[child.id] = MappingProxyType(remote)
                    with_values.append(node)
        fold = Fold(tuple(adopted), tuple(with_values))
        parts = _AnchorParts(children, MappingProxyType(revealed), fold)
        return self._anchors.setdefault(anchor.id, parts)

    def _template(self) -> SceneGraph:
        template = self._prior_template
        if template is None:
            graph = self.graph
            template = SceneGraph()
            for floor in graph.nodes_at(Layer.FLOOR):
                template.add_node(floor.clone({}))
                for room in graph.children(floor.id):
                    template.add_node(room.clone({}), floor.id)
                    for big in graph.children(room.id):
                        template.add_node(big.clone({}), room.id)
            template.spatial_edges = [e for e in graph.spatial_edges if e.a in template and e.b in template]
            template.validate()
            self._prior_template = template
        return template

    def prior_graph(self) -> SceneGraph:
        """The agent's starting knowledge: layers 1 to 3 of ``graph``.

        That is a new node without attributes for each floor, room and big
        object, with its id, label, instance index and position, and the
        spatial edges between them; a room or big object without a
        position raises ``GraphValidationError``. The template is built from
        ``graph`` on the first call and kept for the life of this world.
        Each call returns an overlay on it (``SceneGraph.copy``): the node
        objects and the label index stay shared with the template, and the
        overlay keeps only what it adds or writes. Callers may grow it
        freely through ``SceneGraph`` methods, which clone a shared node
        before its first attribute write; writing to ``node.attributes``
        directly would reach the template. ``graph`` must not be mutated
        once the template exists: later calls would not see the change.
        Two threads that race on the first call both build the same
        template and index, which is harmless.
        """
        return self._template().copy()


def load_world_truth(source: Any) -> WorldTruth:
    """Load a full world file (prior schema plus small objects and attributes)."""
    data = read_world_source(source)
    graph = build_prior_graph(data, strict_prior=False)
    close_only: dict[str, frozenset[str]] = {}
    occluded: set[str] = set()
    placement: dict[str, str] = {}

    def visit_attrs(node_id: str, entry: dict[str, Any], where: str) -> None:
        attrs = entry.get("attributes", {})
        if not isinstance(attrs, dict):
            raise WorldFormatError(f"{where}: attributes must be an object")
        for name, value in attrs.items():
            graph.set_attribute(node_id, str(name), str(value))
        hidden = entry.get("close_only", [])
        if not isinstance(hidden, list):
            raise WorldFormatError(f"{where}: close_only must be an array of attribute names")
        if hidden:
            unknown = [h for h in hidden if h not in attrs]
            if unknown:
                raise WorldFormatError(f"{where}: close_only names absent attribute {unknown[0]!r}")
            close_only[node_id] = frozenset(str(h) for h in hidden)

    for fi, floor in enumerate(data.get("floors", [])):
        for ri, room in enumerate(floor.get("rooms", [])):
            for bi, big in enumerate(room.get("big_objects", [])):
                bwhere = f"floors[{fi}].rooms[{ri}].big_objects[{bi}]"
                bid = str(big["id"])
                visit_attrs(bid, big, bwhere)
                smalls = big.get("small_objects", [])
                if not isinstance(smalls, list):
                    raise WorldFormatError(f"{bwhere}: small_objects must be an array")
                counts: dict[str, int] = {}
                for si, small in enumerate(smalls):
                    swhere = f"{bwhere}.small_objects[{si}]"
                    if not isinstance(small, dict) or "label" not in small:
                        raise WorldFormatError(f"{swhere}: missing field 'label'")
                    label = str(small["label"])
                    norm = normalize_label(label)
                    index = counts.setdefault(norm, 0)
                    counts[norm] += 1
                    node = graph.add_observed_node(bid, label, instance_index=index)
                    visit_attrs(node.id, small, swhere)
                    relation = small.get("relation", "on")
                    if relation not in _SMALL_RELATIONS:
                        raise WorldFormatError(f"{swhere}: unknown relation {relation!r}")
                    if relation != "on":
                        placement[node.id] = str(relation)
                    if small.get("occluded_from_parent"):
                        occluded.add(node.id)
    graph.validate()
    path = world_source_path(source)
    world_id = str(data.get("id", path.stem if path is not None else "world"))
    entrance = data.get("entrance")
    return WorldTruth(
        graph,
        world_id=world_id,
        entrance=str(entrance) if entrance is not None else None,
        close_only=close_only,
        occluded=occluded,
        placement=placement,
    )


class MoveError(ValueError):
    """Raised only for plans the environment cannot execute at all."""


class Environment:
    """Executes plans against one world, tracking the agent's pose.

    The world's graph is never mutated (the world only memoizes views of
    it); one Environment per episode keeps concurrent episodes
    independent.
    """

    def __init__(self, world: WorldTruth) -> None:
        self.world = world
        self.pose = AgentPose(
            anchor_id=world.entrance,
            layer=world.graph.node(world.entrance).layer,
        )
        self._observations = 0

    def reset(self) -> tuple[AgentPose, Observation]:
        self.pose = AgentPose(
            anchor_id=self.world.entrance,
            layer=self.world.graph.node(self.world.entrance).layer,
        )
        self._observations = 0
        return self.pose, self.observe()

    # -- observation ----------------------------------------------------

    def observe(self, focus_id: str | None = None, move_failed: bool = False) -> Observation:
        view = self.world.view(self.pose.anchor_id, focus_id)
        obs = Observation(
            view.anchor_id,
            view.anchor_layer,
            view.visible,
            view.revealed,
            view.fold,
            self._observations,
            move_failed,
        )
        self._observations += 1
        return obs

    # -- plan execution -------------------------------------------------

    def execute(self, plan: Plan) -> Observation:
        if plan.kind is PlanKind.OBSERVE:
            return self.observe(focus_id=plan.focus_id)
        if plan.kind is not PlanKind.MOVE_TO:
            raise MoveError(f"environment cannot execute a {plan.kind.value} plan")
        self.pose.steps_taken += 1
        goal = self._resolve_goal(plan)
        if goal is None:
            return self.observe(move_failed=True)
        self.pose.anchor_id = goal.id
        self.pose.layer = goal.layer
        return self.observe()

    def _resolve_goal(self, plan: Plan) -> SceneNode | None:
        graph = self.world.graph
        if plan.goal_id is not None:
            return graph.node(plan.goal_id) if plan.goal_id in graph else None
        if not plan.goal_label:
            return None
        return resolve_near_pose(graph, self.pose, plan.goal_label, plan.goal_layer)
