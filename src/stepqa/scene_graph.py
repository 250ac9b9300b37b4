"""Layered indoor scene graph.

Four layers, ordered top-down: floor (1), room (2), big object (3),
small object (4). Floors, rooms and big objects come from a world prior
file and carry 2D positions in meters. Small objects are never part of
the prior; they enter the graph only when an observation reveals them.
Containment edges connect adjacent layers, spatial edges connect nodes
within a single layer.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import Any, Iterable


class Layer(IntEnum):
    """Graph layer, ordered so that lower numbers are higher in the hierarchy."""

    FLOOR = 1
    ROOM = 2
    BIG_OBJECT = 3
    SMALL_OBJECT = 4

    @property
    def tag(self) -> str:
        return f"V{self.value}"

    @classmethod
    def from_tag(cls, tag: str) -> Layer:
        text = tag.strip().upper()
        if len(text) == 2 and text[0] == "V" and text[1] in "1234":
            return cls(int(text[1]))
        raise ValueError(f"not a layer tag: {tag!r}")


SPATIAL_RELATIONS = ("on", "above", "below", "next-to")

_INVERSE_RELATION = {
    "on": "below",
    "above": "below",
    "below": "above",
    "next-to": "next-to",
    "in": "in",
    "held": "held",
}

# Plural forms that plain trailing-s stripping would mangle.
_IRREGULAR_PLURALS = {
    "people": "person",
    "persons": "person",
    "shelves": "shelf",
    "knives": "knife",
    "leaves": "leaf",
    "dishes": "dish",
    "couches": "couch",
    "benches": "bench",
    "boxes": "box",
    "glasses": "glasses",
    "keys": "key",
    "children": "child",
}

# Common household synonyms, applied during goal resolution only.
_LABEL_ALIASES = {
    "couch": "sofa",
    "settee": "sofa",
    "tv": "television",
    "telly": "television",
    "fridge": "refrigerator",
    "cooker": "stove",
}


def singularize(word: str) -> str:
    """Naive singular form of one lowercase word."""
    if word in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[word]
    if len(word) > 3 and word.endswith("ies"):
        return word[:-3] + "y"
    for suffix in ("ches", "shes", "sses", "xes", "zes"):
        if len(word) > len(suffix) and word.endswith(suffix):
            return word[:-2]
    if len(word) > 3 and word.endswith("s") and not word.endswith("ss") and not word.endswith("us"):
        return word[:-1]
    return word


@functools.lru_cache(maxsize=8192)
def normalize_label(label: str) -> str:
    """Lowercase, collapse whitespace and singularize the head word.

    Memoized: every plan re-normalizes the same few labels many times.
    The uncached function stays reachable as ``normalize_label.__wrapped__``.
    """
    words = label.strip().lower().split()
    if not words:
        return ""
    words[-1] = singularize(words[-1])
    return " ".join(words)


def alias_label(label: str) -> str:
    norm = normalize_label(label)
    return _LABEL_ALIASES.get(norm, norm)


def labels_match(query: str, label: str) -> bool:
    """Naive label match: normalized equality or head-noun suffix.

    "table" matches "coffee table" but "couch" does not match "sofa";
    synonym handling is a resolution concession, not a perception one.
    """
    q = normalize_label(query)
    lab = normalize_label(label)
    return lab == q or lab.endswith(" " + q)


class WorldFormatError(ValueError):
    """A world file failed to parse; the message names the offending field."""


class GraphValidationError(ValueError):
    """A structural invariant does not hold; the message names the node."""


class UnknownNodeError(KeyError):
    pass


class LayerError(ValueError):
    """An operation was applied at a layer it is not defined for."""


@dataclass
class SceneNode:
    id: str
    layer: Layer
    label: str
    instance_index: int = 0
    position: tuple[float, float] | None = None
    attributes: dict[str, str] = field(default_factory=dict)

    @property
    def norm_label(self) -> str:
        return normalize_label(self.label)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "layer": self.layer.tag,
            "label": self.label,
            "instance_index": self.instance_index,
        }
        if self.position is not None:
            out["position"] = list(self.position)
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        return out


@dataclass(frozen=True)
class SpatialEdge:
    a: str
    b: str
    relation: str


class SceneGraph:
    """Mutable containment-plus-spatial graph over SceneNode objects."""

    def __init__(self) -> None:
        self._nodes: dict[str, SceneNode] = {}
        self._parent: dict[str, str] = {}
        self._children: dict[str, list[str]] = {}
        self.spatial_edges: list[SpatialEdge] = []

    # -- construction ---------------------------------------------------

    def add_node(self, node: SceneNode, parent_id: str | None = None) -> SceneNode:
        if node.id in self._nodes:
            raise GraphValidationError(f"duplicate node id: {node.id}")
        if node.layer is Layer.FLOOR:
            if parent_id is not None:
                raise GraphValidationError(f"floor node {node.id} cannot have a parent")
        else:
            if parent_id is None:
                raise GraphValidationError(f"node {node.id} at {node.layer.tag} needs a parent")
            parent = self.node(parent_id)
            if parent.layer != node.layer - 1:
                raise GraphValidationError(
                    f"node {node.id} at {node.layer.tag} cannot attach to "
                    f"{parent.id} at {parent.layer.tag}"
                )
        self._nodes[node.id] = node
        self._children.setdefault(node.id, [])
        if parent_id is not None:
            self._parent[node.id] = parent_id
            self._children.setdefault(parent_id, []).append(node.id)
        return node

    def add_spatial_edge(self, a: str, b: str, relation: str) -> SpatialEdge:
        na, nb = self.node(a), self.node(b)
        if na.layer != nb.layer:
            raise GraphValidationError(
                f"spatial edge {a} -> {b} crosses layers {na.layer.tag}/{nb.layer.tag}"
            )
        if relation not in SPATIAL_RELATIONS:
            raise GraphValidationError(f"unknown spatial relation {relation!r} on edge {a} -> {b}")
        edge = SpatialEdge(a, b, relation)
        self.spatial_edges.append(edge)
        return edge

    def add_observed_node(
        self,
        parent_id: str,
        label: str,
        attributes: dict[str, str] | None = None,
        instance_index: int | None = None,
    ) -> SceneNode:
        """Attach a small object discovered by observation.

        Re-inserting an existing (parent, label, instance) returns the node
        already in place, with any new attribute values merged in.
        """
        parent = self.node(parent_id)
        if parent.layer is not Layer.BIG_OBJECT:
            raise LayerError(f"observed objects attach to {Layer.BIG_OBJECT.tag}, got {parent.layer.tag}")
        norm = normalize_label(label)
        same = [self._nodes[c] for c in self._children[parent_id] if self._nodes[c].norm_label == norm]
        if instance_index is None:
            if same:
                node = same[0]
                node.attributes.update(attributes or {})
                return node
            instance_index = 0
        else:
            for node in same:
                if node.instance_index == instance_index:
                    node.attributes.update(attributes or {})
                    return node
        node_id = f"{parent_id}.{norm.replace(' ', '_')}.{instance_index}"
        node = SceneNode(
            id=node_id,
            layer=Layer.SMALL_OBJECT,
            label=label,
            instance_index=instance_index,
            attributes=dict(attributes or {}),
        )
        return self.add_node(node, parent_id)

    def set_attribute(self, node_id: str, name: str, value: str) -> None:
        self.node(node_id).attributes[name] = value

    # -- access ---------------------------------------------------------

    def node(self, node_id: str) -> SceneNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> list[SceneNode]:
        return list(self._nodes.values())

    def nodes_at(self, layer: Layer) -> list[SceneNode]:
        return [n for n in self._nodes.values() if n.layer is layer]

    def parent(self, node_id: str) -> SceneNode | None:
        pid = self._parent.get(self.node(node_id).id)
        return self._nodes[pid] if pid is not None else None

    def children(self, node_id: str) -> list[SceneNode]:
        self.node(node_id)
        return [self._nodes[c] for c in self._children.get(node_id, [])]

    def ancestors(self, node_id: str) -> list[SceneNode]:
        """Containment path from the node's parent up to its floor."""
        out = []
        cur = self.parent(node_id)
        while cur is not None:
            out.append(cur)
            cur = self.parent(cur.id)
        return out

    def room_of(self, node_id: str) -> SceneNode:
        node = self.node(node_id)
        if node.layer is Layer.ROOM:
            return node
        if node.layer is Layer.FLOOR:
            raise LayerError(f"room_of is undefined for {node.layer.tag} node {node_id}")
        for anc in self.ancestors(node_id):
            if anc.layer is Layer.ROOM:
                return anc
        raise GraphValidationError(f"node {node_id} has no room ancestor")

    def descendants(self, node_id: str) -> list[SceneNode]:
        """Every node below this one, in breadth-first order."""
        queue = list(self._children.get(self.node(node_id).id, []))
        for nid in queue:  # the queue grows while it is walked
            queue.extend(self._children.get(nid, []))
        return [self._nodes[nid] for nid in queue]

    def matches_under(self, scope_id: str, label: str | None, layer: Layer) -> list[SceneNode]:
        """Nodes at a layer under the scope that a label could mean, synonyms included.

        A missing label matches every node at the layer.
        """
        return [
            n
            for n in self.descendants(scope_id)
            if n.layer is layer
            and (not label or labels_match(label, n.label) or alias_label(label) == n.norm_label)
        ]

    def find_nodes(self, label: str, layer: Layer | None = None) -> list[SceneNode]:
        """All nodes with this label, case-insensitive and plural-insensitive."""
        norm = normalize_label(label)
        found = [
            n
            for n in self._nodes.values()
            if n.norm_label == norm and (layer is None or n.layer is layer)
        ]
        return sorted(found, key=lambda n: (n.layer, n.instance_index, n.id))

    def resolve_label(
        self,
        label: str,
        layer: Layer | None = None,
        scope_id: str | None = None,
        constraint: tuple[str, str] | None = None,
        near: tuple[float, float] | None = None,
    ) -> list[SceneNode]:
        """Candidate nodes for a freely phrased label, best match first.

        Tries exact normalized labels, then household aliases, then a
        head-noun suffix match ("table" finds "coffee table"). A scope
        restricts matches to that node's subtree. A constraint keeps the
        candidates whose attribute equals the wanted value; candidates with
        the attribute still unknown survive only if none match outright.
        """
        pool: Iterable[SceneNode]
        if scope_id is not None:
            pool = self.descendants(scope_id)
        else:
            pool = self._nodes.values()
        if layer is not None:
            pool = [n for n in pool if n.layer is layer]
        else:
            pool = list(pool)

        norm = normalize_label(label)
        aliased = alias_label(label)
        candidates = [n for n in pool if n.norm_label == norm]
        if not candidates and aliased != norm:
            candidates = [n for n in pool if n.norm_label == aliased]
        if not candidates:
            candidates = [n for n in pool if n.norm_label.endswith(" " + norm)]

        if constraint is not None and candidates:
            attr, value = constraint
            want = value.strip().lower()
            matching = [n for n in candidates if n.attributes.get(attr, "").strip().lower() == want]
            unknown = [n for n in candidates if attr not in n.attributes]
            candidates = matching or unknown

        def sort_key(n: SceneNode) -> tuple:
            if near is not None:
                pos = self.position_of(n.id)
                d = math.dist(near, pos) if pos is not None else float("inf")
            else:
                d = 0.0
            return (d, n.layer, n.instance_index, n.id)

        return sorted(candidates, key=sort_key)

    def position_of(self, node_id: str) -> tuple[float, float] | None:
        """Node position; small objects inherit their parent's, floors use the room centroid."""
        node = self.node(node_id)
        if node.position is not None:
            return node.position
        if node.layer is Layer.SMALL_OBJECT:
            parent = self.parent(node_id)
            return self.position_of(parent.id) if parent else None
        if node.layer is Layer.FLOOR:
            rooms = [c for c in self.children(node_id) if c.position is not None]
            if not rooms:
                return None
            xs = [c.position[0] for c in rooms]
            ys = [c.position[1] for c in rooms]
            return (sum(xs) / len(rooms), sum(ys) / len(rooms))
        return None

    def nearest_first(self, nodes: Iterable[SceneNode], origin_id: str) -> list[SceneNode]:
        """Nodes by distance from the origin node, ties broken by instance and id.

        Nodes without a position, and every node when the origin is not in
        the graph, sort after the positioned ones.
        """
        here = self.position_of(origin_id) if origin_id in self._nodes else None

        def key(node: SceneNode) -> tuple:
            pos = self.position_of(node.id) if here is not None else None
            return (math.dist(here, pos) if pos is not None else math.inf, node.instance_index, node.id)

        return sorted(nodes, key=key)

    def spatial_relation(self, a: str, b: str) -> str | None:
        """Relation of node a with respect to node b along a same-layer edge."""
        for edge in self.spatial_edges:
            if edge.a == a and edge.b == b:
                return edge.relation
            if edge.a == b and edge.b == a:
                return _INVERSE_RELATION.get(edge.relation, edge.relation)
        return None

    # -- validation and serialization ----------------------------------

    def validate(self) -> None:
        for node in self._nodes.values():
            if node.layer is Layer.FLOOR:
                if node.id in self._parent:
                    raise GraphValidationError(f"floor {node.id} has a parent")
                continue
            pid = self._parent.get(node.id)
            if pid is None:
                raise GraphValidationError(f"node {node.id} at {node.layer.tag} has no parent")
            parent = self._nodes[pid]
            if parent.layer != node.layer - 1:
                raise GraphValidationError(
                    f"node {node.id} at {node.layer.tag} sits under {pid} at {parent.layer.tag}"
                )
            if node.layer in (Layer.ROOM, Layer.BIG_OBJECT) and node.position is None:
                raise GraphValidationError(f"node {node.id} at {node.layer.tag} has no position")
        seen: set[str] = set()
        for node in self._nodes.values():
            cur: str | None = node.id
            hops = 0
            while cur is not None:
                hops += 1
                if hops > len(self._nodes):
                    raise GraphValidationError(f"containment cycle through {node.id}")
                cur = self._parent.get(cur)
            seen.add(node.id)
        for edge in self.spatial_edges:
            if edge.a not in self._nodes or edge.b not in self._nodes:
                raise GraphValidationError(f"spatial edge {edge.a} -> {edge.b} references unknown node")

    def copy(self) -> SceneGraph:
        out = SceneGraph()
        for node in self._nodes.values():
            clone = SceneNode(
                id=node.id,
                layer=node.layer,
                label=node.label,
                instance_index=node.instance_index,
                position=node.position,
                attributes=dict(node.attributes),
            )
            out._nodes[clone.id] = clone
            out._children.setdefault(clone.id, [])
        out._parent = dict(self._parent)
        for nid, kids in self._children.items():
            out._children[nid] = list(kids)
        out.spatial_edges = list(self.spatial_edges)
        return out

    def to_prior_dict(self) -> dict[str, Any]:
        """Serialize the prior-knowledge part of the graph (layers 1 to 3)."""
        floors = []
        for floor in self.nodes_at(Layer.FLOOR):
            rooms = []
            for room in self.children(floor.id):
                bigs = []
                for big in self.children(room.id):
                    if big.layer is not Layer.BIG_OBJECT:
                        continue
                    bigs.append(
                        {"id": big.id, "label": big.label, "position": list(big.position or ())}
                    )
                rooms.append(
                    {
                        "id": room.id,
                        "label": room.label,
                        "position": list(room.position or ()),
                        "big_objects": bigs,
                    }
                )
            floors.append({"id": floor.id, "rooms": rooms})
        edges = [
            {"a": e.a, "b": e.b, "relation": e.relation}
            for e in self.spatial_edges
            if self._nodes[e.a].layer is not Layer.SMALL_OBJECT
        ]
        return {"floors": floors, "spatial_edges": edges}


# -- world prior loading ----------------------------------------------------


def _require(mapping: Any, key: str, where: str) -> Any:
    if not isinstance(mapping, dict):
        raise WorldFormatError(f"{where}: expected an object")
    if key not in mapping:
        raise WorldFormatError(f"{where}: missing field {key!r}")
    return mapping[key]


def _position(value: Any, where: str) -> tuple[float, float]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) for v in value)
    ):
        raise WorldFormatError(f"{where}: position must be [x, y] in meters")
    return (float(value[0]), float(value[1]))


def world_source_path(source: Any) -> Path | None:
    """The file a world source names; None for a dict, JSON text or open file."""
    if isinstance(source, Path):
        return source
    if isinstance(source, str) and not source.lstrip().startswith("{"):
        return Path(source)
    return None


def read_world_source(source: Any) -> dict[str, Any]:
    """Accept a dict, a JSON string, a path, or an open file."""
    if isinstance(source, dict):
        return source
    path = world_source_path(source)
    if path is not None:
        text = path.read_text()
    elif isinstance(source, str):
        text = source
    elif hasattr(source, "read"):
        text = source.read()
    else:
        raise WorldFormatError(f"unsupported world source: {type(source).__name__}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WorldFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise WorldFormatError("world file must be a JSON object")
    return data


def build_prior_graph(data: dict[str, Any], strict_prior: bool = True) -> SceneGraph:
    """Build a graph from prior-file JSON; see load_world_prior."""
    graph = SceneGraph()
    floors = _require(data, "floors", "world")
    if not isinstance(floors, list) or not floors:
        raise WorldFormatError("world: floors must be a non-empty array")
    for fi, floor in enumerate(floors):
        fwhere = f"floors[{fi}]"
        fid = _require(floor, "id", fwhere)
        fnode = SceneNode(id=str(fid), layer=Layer.FLOOR, label=str(floor.get("label", "floor")))
        graph.add_node(fnode)
        rooms = _require(floor, "rooms", fwhere)
        if not isinstance(rooms, list):
            raise WorldFormatError(f"{fwhere}: rooms must be an array")
        room_counts: dict[str, int] = {}
        for ri, room in enumerate(rooms):
            rwhere = f"{fwhere}.rooms[{ri}]"
            rid = str(_require(room, "id", rwhere))
            rlabel = str(_require(room, "label", rwhere))
            rpos = _position(_require(room, "position", rwhere), rwhere)
            rnorm = normalize_label(rlabel)
            rnode = SceneNode(
                id=rid,
                layer=Layer.ROOM,
                label=rlabel,
                instance_index=room_counts.setdefault(rnorm, 0),
                position=rpos,
            )
            room_counts[rnorm] += 1
            graph.add_node(rnode, fnode.id)
            bigs = _require(room, "big_objects", rwhere)
            if not isinstance(bigs, list):
                raise WorldFormatError(f"{rwhere}: big_objects must be an array")
            big_counts: dict[str, int] = {}
            for bi, big in enumerate(bigs):
                bwhere = f"{rwhere}.big_objects[{bi}]"
                bid = str(_require(big, "id", bwhere))
                blabel = str(_require(big, "label", bwhere))
                bpos = _position(_require(big, "position", bwhere), bwhere)
                if strict_prior:
                    if "small_objects" in big:
                        raise WorldFormatError(f"{bwhere}: prior files cannot carry small_objects")
                    if big.get("attributes"):
                        raise WorldFormatError(f"{bwhere}: prior files cannot carry attributes")
                bnorm = normalize_label(blabel)
                bnode = SceneNode(
                    id=bid,
                    layer=Layer.BIG_OBJECT,
                    label=blabel,
                    instance_index=big_counts.setdefault(bnorm, 0),
                    position=bpos,
                )
                big_counts[bnorm] += 1
                graph.add_node(bnode, rid)
    edges = data.get("spatial_edges", [])
    if not isinstance(edges, list):
        raise WorldFormatError("world: spatial_edges must be an array")
    for ei, edge in enumerate(edges):
        ewhere = f"spatial_edges[{ei}]"
        a = str(_require(edge, "a", ewhere))
        b = str(_require(edge, "b", ewhere))
        relation = str(_require(edge, "relation", ewhere))
        if a not in graph or b not in graph:
            raise WorldFormatError(f"{ewhere}: references unknown node {a if a not in graph else b!r}")
        try:
            graph.add_spatial_edge(a, b, relation)
        except GraphValidationError as exc:
            raise WorldFormatError(f"{ewhere}: {exc}") from exc
    graph.validate()
    return graph


def load_world_prior(source: Any) -> SceneGraph:
    """Load a prior world file.

    The returned graph carries exactly the floor, room and big-object
    content of the file. Small objects and attribute maps are rejected;
    a prior is what the agent knows before looking at anything.
    """
    return build_prior_graph(read_world_source(source), strict_prior=True)
