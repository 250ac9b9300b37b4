"""Simulated indoor world and what the agent gets to see in it.

The world truth is a full scene graph down to small objects, plus
per-node perception metadata. What an observation reveals depends only
on where the agent stands:

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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .rules import Plan, PlanKind
from .scene_graph import (
    Layer,
    SceneGraph,
    SceneNode,
    WorldFormatError,
    _INVERSE_RELATION,
    build_prior_graph,
    normalize_label,
    read_world_source,
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


@dataclass(frozen=True)
class Observation:
    step: int
    anchor_id: str
    anchor_layer: Layer
    anchor_parent_id: str | None
    visible: tuple[VisibleNode, ...]
    revealed: dict[str, dict[str, str]]
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
    """Ground-truth world: full graph plus perception metadata."""

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

    # -- queries used by the environment and by dataset oracles ---------

    def remote_attributes(self, node_id: str) -> dict[str, str]:
        node = self.graph.node(node_id)
        hidden = self.close_only.get(node_id, frozenset())
        return {k: v for k, v in node.attributes.items() if k not in hidden}

    def placement_relation(self, node_id: str) -> str:
        node = self.graph.node(node_id)
        return self.placement.get(node_id, _DEFAULT_PLACEMENT.get(node.layer, "in"))

    def prior_graph(self) -> SceneGraph:
        """The agent's starting knowledge: layers 1 to 3, no attributes.

        The result is a private copy of a template built from ``graph`` on
        the first call and kept for the life of this world, so callers may
        mutate it freely. ``graph`` must not be mutated once the template
        exists: later calls would not see the change. Two threads that race
        on the first call both build the same template, which is harmless.
        """
        if self._prior_template is None:
            self._prior_template = self._build_prior()
        return self._prior_template.copy()

    def _build_prior(self) -> SceneGraph:
        out = SceneGraph()
        for floor in self.graph.nodes_at(Layer.FLOOR):
            out.add_node(SceneNode(id=floor.id, layer=Layer.FLOOR, label=floor.label))
            for room in self.graph.children(floor.id):
                out.add_node(
                    SceneNode(
                        id=room.id,
                        layer=room.layer,
                        label=room.label,
                        instance_index=room.instance_index,
                        position=room.position,
                    ),
                    floor.id,
                )
                for big in self.graph.children(room.id):
                    out.add_node(
                        SceneNode(
                            id=big.id,
                            layer=big.layer,
                            label=big.label,
                            instance_index=big.instance_index,
                            position=big.position,
                        ),
                        room.id,
                    )
        for edge in self.graph.spatial_edges:
            if self.graph.node(edge.a).layer is not Layer.SMALL_OBJECT:
                out.add_spatial_edge(edge.a, edge.b, edge.relation)
        return out

    @classmethod
    def load(cls, source: Any) -> WorldTruth:
        return load_world_truth(source)


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
    world_id = str(data.get("id", "world"))
    if isinstance(source, (str, Path)) and "id" not in data:
        p = Path(source)
        if p.exists():
            world_id = p.stem
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

    The world truth is never mutated; one Environment per episode keeps
    concurrent episodes independent.
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
        graph = self.world.graph
        anchor = graph.node(self.pose.anchor_id)
        parent = graph.parent(anchor.id)
        reference = anchor
        if focus_id is not None and focus_id in graph:
            reference = graph.node(focus_id)

        visible: list[VisibleNode] = []
        revealed: dict[str, dict[str, str]] = {}

        if anchor.layer in (Layer.ROOM, Layer.BIG_OBJECT, Layer.SMALL_OBJECT):
            if anchor.attributes:
                revealed[anchor.id] = dict(anchor.attributes)

        if anchor.layer is Layer.FLOOR:
            for room in graph.children(anchor.id):
                visible.append(
                    VisibleNode(room.id, room.label, room.layer, self._relation(room, reference))
                )
        elif anchor.layer is Layer.ROOM:
            for big in graph.children(anchor.id):
                visible.append(
                    VisibleNode(big.id, big.label, big.layer, self._relation(big, reference))
                )
                remote = self.world.remote_attributes(big.id)
                if remote:
                    revealed[big.id] = remote
        elif anchor.layer is Layer.BIG_OBJECT:
            for small in graph.children(anchor.id):
                if small.id in self.world.occluded:
                    continue
                visible.append(
                    VisibleNode(small.id, small.label, small.layer, self._relation(small, reference))
                )
                remote = self.world.remote_attributes(small.id)
                if remote:
                    revealed[small.id] = remote

        obs = Observation(
            step=self._observations,
            anchor_id=anchor.id,
            anchor_layer=anchor.layer,
            anchor_parent_id=parent.id if parent else None,
            visible=tuple(visible),
            revealed=revealed,
            move_failed=move_failed,
        )
        self._observations += 1
        return obs

    def _relation(self, node: SceneNode, reference: SceneNode) -> str | None:
        graph = self.world.graph
        if node.id == reference.id:
            return "here"
        parent = graph.parent(node.id)
        if parent is not None and parent.id == reference.id:
            return self.world.placement_relation(node.id)
        ref_parent = graph.parent(reference.id)
        if ref_parent is not None and ref_parent.id == node.id:
            rel = self.world.placement_relation(reference.id)
            return _INVERSE_RELATION.get(rel, rel)
        return graph.spatial_relation(node.id, reference.id)

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
        anchor = graph.node(self.pose.anchor_id)
        near = graph.position_of(anchor.id)
        scopes: list[str | None] = []
        if anchor.layer is Layer.BIG_OBJECT:
            scopes = [anchor.id, graph.room_of(anchor.id).id, None]
        elif anchor.layer is Layer.SMALL_OBJECT:
            parent = graph.parent(anchor.id)
            scopes = [parent.id if parent else None, graph.room_of(anchor.id).id, None]
        elif anchor.layer is Layer.ROOM:
            scopes = [anchor.id, None]
        else:
            scopes = [anchor.id, None]
        seen: set[str | None] = set()
        for scope in scopes:
            if scope in seen:
                continue
            seen.add(scope)
            found = graph.resolve_label(
                plan.goal_label, layer=plan.goal_layer, scope_id=scope, near=near
            )
            if found:
                return found[0]
        return None
