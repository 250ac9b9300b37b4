"""Layered indoor scene graph.

Four layers, ordered top-down: floor (1), room (2), big object (3),
small object (4). Floors, rooms and big objects carry 2D positions in
meters and make up the agent's prior; small objects enter its graph only
when an observation reveals them. ``environment`` reads world files.
Containment edges connect adjacent layers, spatial edges connect nodes
within a single layer.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence


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


# The members as module names, which the package reads them through:
# on Python 3.11 ``Layer.ROOM`` goes through the enum metaclass's slow
# ``__getattr__`` hook, a module global does not.
FLOOR, ROOM, BIG_OBJECT, SMALL_OBJECT = Layer

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
    """One node. ``norm_label`` is ``label`` normalized once, at creation."""

    id: str
    layer: Layer
    label: str
    instance_index: int = 0
    position: tuple[float, float] | None = None
    attributes: dict[str, str] = field(default_factory=dict)
    norm_label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.norm_label = normalize_label(self.label)

    def clone(self, attributes: dict[str, str]) -> SceneNode:
        """A copy that carries ``attributes``. It skips ``__init__``, which
        would normalize the label again."""
        clone = object.__new__(SceneNode)
        clone.__dict__.update(self.__dict__, attributes=attributes)
        return clone

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


class _LabelIndex(NamedTuple):
    """Node ids by normalized label, and by each shorter word suffix of
    multiword labels: "big coffee table" under "coffee table" and "table"."""

    by_label: dict[str, tuple[str, ...]]
    by_suffix: dict[str, tuple[str, ...]]


def _grouped(nodes: Iterable[SceneNode]) -> tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]:
    """The ids of these nodes by normalized label and by each shorter word
    suffix of multiword labels, one tuple a group, in the nodes' order."""
    by_label: defaultdict[str, list[str]] = defaultdict(list)
    by_suffix: defaultdict[str, list[str]] = defaultdict(list)
    for node in nodes:
        norm = node.norm_label
        by_label[norm].append(node.id)
        words = norm.split(" ")
        for k in range(1, len(words)):
            by_suffix[" ".join(words[k:])].append(node.id)
    return {k: tuple(v) for k, v in by_label.items()}, {k: tuple(v) for k, v in by_suffix.items()}


def _check_nodes(held: Mapping[str, SceneNode], batch: Sequence[SceneNode], parent_id: str | None) -> None:
    """The checks a node passes before it enters a graph that holds
    ``held``: a new id, also within the batch, a position for a room or
    big object, and a parent in ``held`` one layer up (none for a floor).
    Raises GraphValidationError naming the first bad node, or
    UnknownNodeError for a parent ``held`` lacks."""
    if len(batch) > 1:
        ids = [new.id for new in batch]
        if len(set(ids)) < len(ids):
            twice = next(i for k, i in enumerate(ids) if i in ids[:k])
            raise GraphValidationError(f"duplicate node id: {twice}")
    parent: SceneNode | None = None
    for new in batch:
        if new.id in held:
            raise GraphValidationError(f"duplicate node id: {new.id}")
        if new.position is None and new.layer in (ROOM, BIG_OBJECT):
            raise GraphValidationError(f"node {new.id} at {new.layer.tag} has no position")
        if new.layer is FLOOR:
            if parent_id is not None:
                raise GraphValidationError(f"floor node {new.id} cannot have a parent")
        else:
            if parent_id is None:
                raise GraphValidationError(f"node {new.id} at {new.layer.tag} needs a parent")
            if parent is None:
                parent = held.get(parent_id)
                if parent is None:
                    raise UnknownNodeError(parent_id)
            if parent.layer != new.layer - 1:
                raise GraphValidationError(
                    f"node {new.id} at {new.layer.tag} cannot attach to "
                    f"{parent.id} at {parent.layer.tag}"
                )


class NodeBatch(NamedTuple):
    """Nodes prebuilt to enter graphs together under one parent: the
    nodes, their ids in order, and what they add to a graph's maps, its
    node, parent and child maps and its label index, built once.

    ``under`` checks the nodes once, as ``add_node`` checks any node,
    against the parent alone. ``add_node`` then takes the batch into any
    graph with that parent and checks only what depends on the graph: the
    parent is there, one layer up, and no id is.
    """

    nodes: tuple[SceneNode, ...]
    ids: tuple[str, ...]
    layer: Layer
    parent_id: str
    by_id: dict[str, SceneNode]
    parents: dict[str, str]
    no_children: dict[str, tuple[str, ...]]
    # ids by normalized label and by word suffix, as ``_grouped`` groups them
    labels: tuple[dict[str, tuple[str, ...]], dict[str, tuple[str, ...]]]

    @classmethod
    def under(cls, parent: SceneNode, nodes: Iterable[SceneNode]) -> NodeBatch:
        """The nodes, checked to go under the parent, with their additions."""
        batch = tuple(nodes)
        _check_nodes({parent.id: parent}, batch, parent.id)
        ids = tuple(n.id for n in batch)
        by_id, parents, no_children = dict(zip(ids, batch)), dict.fromkeys(ids, parent.id), dict.fromkeys(ids, ())
        return cls(batch, ids, Layer(parent.layer + 1), parent.id, by_id, parents, no_children, _grouped(batch))


# The layers of a prior. Like every enum member in the package, they are
# read through module names, not off the class (see the README's
# Performance section): on Python 3.11 a class read takes a slow hook.
_PRIOR_LAYERS = (FLOOR, ROOM, BIG_OBJECT)
# what the memo of resolve_from gives for a key it has not stored
_UNSEEN = object()


def _at_layer(nodes: Mapping[str, SceneNode], ids: Iterable[str], layer: Layer | None) -> list[SceneNode]:
    """The nodes with these ids, those at the layer only unless it is None."""
    if layer is None:
        return list(map(nodes.__getitem__, ids))
    return [n for n in map(nodes.__getitem__, ids) if n.layer is layer]


def has_value(node: SceneNode, attr: str, want: str) -> bool:
    """Whether the node's attribute has the wanted value, case and
    whitespace folded. A value is not singularized as a label is:
    "canvas" is not "canva"."""
    value = node.attributes.get(attr)
    return value is not None and " ".join(value.lower().split()) == " ".join(want.lower().split())


def _constrained(candidates: list[SceneNode], constraint: tuple[str, str]) -> list[SceneNode]:
    """The candidates whose attribute has the wanted value, else those that
    do not know the attribute yet."""
    attr, want = constraint
    matching = [n for n in candidates if has_value(n, attr, want)]
    return matching or [n for n in candidates if attr not in n.attributes]


def stands_in_for(node: SceneNode, known: SceneNode) -> bool:
    """Whether a node may take the place of a graph's node: it has the
    same id, label, layer, instance index and position, and every
    attribute value the known node has."""
    return (
        node.id == known.id
        and node.label == known.label
        and node.layer is known.layer
        and node.instance_index == known.instance_index
        and node.position == known.position
        and known.attributes.items() <= node.attributes.items()
    )


class SceneGraph:
    """Mutable containment-plus-spatial graph over SceneNode objects.

    Every node with a new id enters through ``add_node``, as one
    ``SceneNode`` or in one ``NodeBatch`` under one parent, and is checked
    as it enters: a new id, a parent one layer up (none for a floor) and
    a position for a room or big object. A ``NodeBatch`` was checked for
    what does not depend on the graph when it was built, once. A view's
    fold enters in one ``fold_in`` call, whose new nodes go through
    ``add_node`` as a batch. Spatial edges join two known nodes within
    one layer, one edge a pair: ``spatial_edges`` maps the pair as given
    to ``add_spatial_edge`` to its relation. No later pass checks a graph.

    A node object is never written once it is in a graph: a write puts a
    new node in its place. So graphs may share node objects freely.

    Label lookups read an index, built on the first lookup and kept
    current by ``add_node`` after that: normalized label to node ids,
    and each shorter word suffix to the ids of the multiword labels
    ending in it. A lookup reads it once, in ``_probe``.

    One memo holds what depends only on the floors, rooms and big
    objects: the nearest-first orders of ``child_ids_nearest_first``,
    the unconstrained floor, room and big-object lookups of
    ``resolve_from``, the unscoped ones of ``resolve_label``, and the
    sweep steps of ``rules._sweep_move``, which reach it through
    ``prior_memo``. A copy shares the node objects, the index and the
    memo with its source (see ``copy``). The memo's one reset rule: a
    graph that adds a floor, room or big object starts an empty memo of
    its own.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, SceneNode] = {}
        self._parent: dict[str, str] = {}
        self._children: dict[str, tuple[str, ...]] = {}
        self.spatial_edges: dict[tuple[str, str], str] = {}
        self._index: _LabelIndex | None = None
        self._index_owned = False
        # (node id, point) -> child ids nearest first; (anchor id, label, layer)
        # -> resolve_from's id or None; (None, norm, layer) -> resolve_label's
        # ids; (scope id, anchor id, explored frozenset) -> a sweep step
        self._memo: dict[tuple[Any, ...], Any] = {}

    # -- construction ---------------------------------------------------

    def add_node(self, node: SceneNode | NodeBatch, parent_id: str | None = None) -> Any:
        """Add one node, or one ``NodeBatch``, and return what was given.

        A node is checked before it is written: a new id, a position for a
        room or big object, and a parent one layer up (none for a floor).
        A bad node raises GraphValidationError naming it and leaves the
        graph unchanged. A batch passed the checks that do not depend on
        the graph as it was built, so here it is checked only for its
        parent and for ids the graph holds, refused with the same message,
        and written with one update of each map, one extension of the
        parent's child tuple and of each label's ids, and at most one copy
        of an index shared with another graph.
        """
        nodes, children = self._nodes, self._children
        if isinstance(node, NodeBatch):
            ids, layer = node.ids, node.layer
            parent = nodes.get(parent_id)
            if parent is None or parent.layer != layer - 1 or not nodes.keys().isdisjoint(ids):
                _check_nodes(nodes, node.nodes, parent_id)  # raises, naming the node as for any batch
            self._index_more(*node.labels)
            nodes.update(node.by_id)
            children.update(node.no_children)
            self._parent.update(node.parents if parent_id == node.parent_id else dict.fromkeys(ids, parent_id))
        else:
            ids, layer = (node.id,), node.layer
            _check_nodes(nodes, (node,), parent_id)
            if self._index is not None:
                self._index_more(*_grouped((node,)))
            nodes[node.id] = node
            children[node.id] = ()
            if parent_id is not None:
                self._parent[node.id] = parent_id
        if parent_id is not None:
            children[parent_id] += ids
        if layer is not SMALL_OBJECT:
            # a new floor, room or big object can change any memoized answer
            self._memo = {}
        return node

    def _index_more(self, by_label: Mapping[str, tuple[str, ...]], by_suffix: Mapping[str, tuple[str, ...]]) -> None:
        """Append ids grouped as ``_grouped`` groups them to the label
        index, once it is built: each group after the ids the index holds
        for its label or word suffix. An index shared with another graph
        is copied first."""
        index = self._index
        if index is None:
            return
        if not self._index_owned:
            self._index = index = _LabelIndex(dict(index.by_label), dict(index.by_suffix))
            self._index_owned = True
        for mine, more in zip(index, (by_label, by_suffix)):
            for key, ids in more.items():
                mine[key] = mine.get(key, ()) + ids

    def fold_in(self, anchor_id: str, fold: Any) -> bool:
        """Take a view's fold (``environment.Fold``) into the graph, its
        nodes by reference. Returns whether the fold left nothing out: the
        anchor and every node the fold adopts, shows or reveals are in the
        graph afterwards.

        A graph that holds none of the adopted ids takes the fold's
        prebuilt ``NodeBatch`` under the anchor in one ``add_node`` call,
        and the nodes it just adopted need nothing more. Otherwise the
        adopted nodes it lacks enter as a ``NodeBatch`` built under the
        anchor for them, and those it holds go by the rule below with the
        revealed nodes.

        The fold pairs each revealed node, checked once per world, with
        the template's node it may stand in for and with the node the
        parent anchor's view adopts or reveals for its id. A graph that
        holds either one takes the revealed node after an identity check.
        Any other node goes by one rule: a node that already has every
        revealed value is kept, one the revealed node may stand in for
        (``stands_in_for``) gives way to it, and any other is merged
        through ``update_attributes``.
        """
        nodes = self._nodes
        revealed: Iterable[tuple[SceneNode, Any, Any]] = zip(fold.revealed, fold.replaces, fold.also_replaces)
        batch = fold.adopted
        if batch is not None:
            if nodes.keys().isdisjoint(batch.ids):
                self.add_node(batch, anchor_id)
            else:
                missing = [n for n in batch.nodes if n.id not in nodes]
                if missing:
                    self.add_node(NodeBatch.under(self.node(anchor_id), missing), anchor_id)
                revealed = itertools.chain(revealed, ((n, None, None) for n in batch.nodes))
        complete = anchor_id in nodes and all(map(nodes.__contains__, fold.shown))
        for seen, replaces, also_replaces in revealed:
            known = nodes.get(seen.id)
            if known is seen:
                continue
            if known is None:
                complete = False
            # Kept for speed: without this pairing pinned p50 rose from 68.8
            # to 73.2 us on a 2-vCPU Xeon, slower in 6 of 6 alternating pairs.
            elif known is replaces or known is also_replaces:
                nodes[seen.id] = seen
            elif known.attributes.items() >= seen.attributes.items():
                continue
            elif stands_in_for(seen, known):
                nodes[seen.id] = seen
            else:
                self.update_attributes(seen.id, seen.attributes)
        return complete

    def add_spatial_edge(self, a: str, b: str, relation: str) -> None:
        na, nb = self.node(a), self.node(b)
        if na.layer != nb.layer:
            raise GraphValidationError(
                f"spatial edge {a} -> {b} crosses layers {na.layer.tag}/{nb.layer.tag}"
            )
        if relation not in SPATIAL_RELATIONS:
            raise GraphValidationError(f"unknown spatial relation {relation!r} on edge {a} -> {b}")
        if a == b:
            raise GraphValidationError(f"spatial edge {a} -> {b} joins a node to itself")
        if self.spatial_relation(a, b) is not None:
            raise GraphValidationError(f"second spatial edge between {a} and {b}")
        self.spatial_edges[a, b] = relation

    def update_attributes(self, node_id: str, values: Mapping[str, str]) -> SceneNode:
        """Merge attribute values into a node: a copy that carries them
        takes its place. Returns the copy."""
        node = self.node(node_id)
        self._nodes[node_id] = node = node.clone({**node.attributes, **values})
        return node

    # -- access ---------------------------------------------------------

    def node(self, node_id: str) -> SceneNode:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise UnknownNodeError(node_id) from None

    def get(self, node_id: str | None) -> SceneNode | None:
        """The node with this id, or None, in one probe."""
        return self._nodes.get(node_id)

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
        return [self._nodes[c] for c in self._children.get(node_id, ())]

    def room_of(self, node_id: str) -> SceneNode:
        """The node's room, the node itself for a room; walks parent ids."""
        node = self.node(node_id)
        if node.layer is FLOOR:
            raise LayerError(f"room_of is undefined for {node.layer.tag} node {node_id}")
        while node.layer is not ROOM:
            pid = self._parent.get(node.id)
            if pid is None:
                raise GraphValidationError(f"node {node_id} has no room ancestor")
            node = self._nodes[pid]
        return node

    def floor_of(self, node_id: str) -> SceneNode:
        """The top of the node's containment path, its floor: the node
        itself for a floor. Walks parent ids, building no path."""
        parents = self._parent
        top = self.node(node_id).id
        while (pid := parents.get(top)) is not None:
            top = pid
        return self._nodes[top]

    def descendants(self, node_id: str) -> list[SceneNode]:
        """Every node below this one, in breadth-first order."""
        queue = list(self._children.get(self.node(node_id).id, ()))
        for nid in queue:  # the queue grows while it is walked
            queue.extend(self._children.get(nid, ()))
        return [self._nodes[nid] for nid in queue]

    def matches_under(self, scope_id: str, label: str | None, layer: Layer) -> list[SceneNode]:
        """Nodes at a layer under the scope that a label could mean, synonyms
        included, in breadth-first order.

        A missing label matches every node at the layer.
        """
        if not label:
            return [n for n in self.descendants(scope_id) if n.layer is layer]
        # Kept for speed: a descendants scan in place of the index took
        # cluttered p99 from about 115 to 134 us on a 2-vCPU Xeon, 4 of 4 pairs.
        self.node(scope_id)
        ids = set(itertools.chain(*self._probe(normalize_label(label))))
        found = [n for n in map(self._nodes.__getitem__, ids) if n.layer is layer and self._under(n.id, scope_id)]
        return sorted(found, key=lambda n: self._child_path(scope_id, n.id))

    def find_nodes(self, label: str, layer: Layer | None = None) -> list[SceneNode]:
        """All nodes with this label, case-insensitive and plural-insensitive."""
        found = _at_layer(self._nodes, self._probe(normalize_label(label))[0], layer)
        return sorted(found, key=lambda n: (n.layer, n.instance_index, n.id))

    def has_label(self, norm: str, layer: Layer) -> bool:
        """Whether a node at the layer has this normalized label: whether
        ``find_nodes`` would find one, without building or sorting a list.
        It reads the index itself, not through ``_probe``: the parser asks
        once a noun phrase, and through the probe a call took 518 ns
        against 97 under ``timeit`` on a 2-vCPU Xeon."""
        nodes = self._nodes
        for i in (self._index or self._labels()).by_label.get(norm, ()):
            if nodes[i].layer is layer:
                return True
        return False

    def resolve_label(self, label: str, layer: Layer | None = None, scope_id: str | None = None) -> list[SceneNode]:
        """Candidate nodes for a freely phrased label, best match first.

        Tries exact normalized labels, then household aliases, then a
        word-suffix match ("table" finds "coffee table"). A scope
        restricts matches to that node's subtree. A floor, room or
        big-object lookup with no scope reads layers 1 to 3 only, so it is
        memoized as ``resolve_from``'s is: its ids by normalized label and
        layer.
        """
        norm = normalize_label(label)
        memoized = layer in _PRIOR_LAYERS and scope_id is None
        if memoized and (ids := self._memo.get((None, norm, layer))) is not None:
            return [self._nodes[i] for i in ids]
        if scope_id is not None and scope_id not in self._nodes:
            raise UnknownNodeError(scope_id)
        found = self._outward(self._probe(norm), layer, (scope_id,), None)
        found = self.nearest_first(found, None) if len(found) > 1 else found
        if memoized:
            self._memo[None, norm, layer] = tuple(n.id for n in found)
        return found

    def _probe(self, norm: str) -> tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
        """The ids the label index holds for a normalized label, one read a
        tier: the label itself, its household alias, and the multiword
        labels that end in its words. Each is () when there are none."""
        index = self._index or self._labels()
        alias = _LABEL_ALIASES.get(norm)
        alias_ids = index.by_label.get(alias, ()) if alias is not None else ()
        return index.by_label.get(norm, ()), alias_ids, index.by_suffix.get(norm, ())

    def _outward(
        self, probe: tuple[tuple[str, ...], ...], layer: Layer | None,
        scopes: Iterable[str | None], constraint: tuple[str, str] | None
    ) -> list[SceneNode]:
        """The tiers of ``resolve_label`` over nested scopes, innermost
        first (None is the whole graph), for the exact, alias and suffix
        ids of ``_probe``: the first scope's candidates, unordered. No
        scope is read when no node at the layer matches anywhere.
        """
        nodes = self._nodes
        exact, alias, suffix = (_at_layer(nodes, ids, layer) if ids else [] for ids in probe)
        if not (exact or alias or suffix):
            return []
        for scope_id in scopes:
            candidates = exact if scope_id is None else self._within(exact, scope_id)
            if not candidates and alias:
                candidates = self._within(alias, scope_id)
            if not candidates:
                candidates = self._within(suffix, scope_id)
            if constraint is not None and candidates:
                candidates = _constrained(candidates, constraint)
            if candidates:
                return candidates
        return []

    def resolve_from(
        self, anchor_id: str, label: str, layer: Layer | None, constraint: tuple[str, str] | None = None
    ) -> SceneNode | None:
        """Best node for a label, searching outward from an anchor.

        The scopes are the anchor's subtree, its parent's, its room's, then
        the whole graph; an anchor not in the graph searches only the
        whole graph. The first scope with a candidate answers (see
        ``_outward``), and its candidate nearest the anchor wins.
        The anchor's position is read only when there are two to order.

        The search starts with one probe of the label index (``_probe``).
        A label no node carries, as itself, its alias or a label ending in
        it, is refused there, before the anchor's parent is read or any
        scope or candidate list is built: a room query's sweep asks for its
        unseen object so on every step. A label the probe finds is
        searched with the ids it read.

        A floor, room or big-object lookup with no constraint, from a
        floor, room or big object in the graph, is memoized by anchor id,
        label as asked and layer, a miss as None. Its answer reads only
        the ids, labels, layers, instance indices, positions and
        containment of layers 1 to 3, and no episode changes those:
        ``fold_in`` adds small objects and swaps in a node only when it
        stands in for the node it replaces (``stands_in_for``: the same
        label, layer, instance index and position), and
        ``update_attributes`` writes attributes only. So the answer holds
        for every graph that shares the memo. A hit returns this graph's
        node for the id, which may carry attributes a fold revealed. Like
        the orders of ``child_ids_nearest_first``, the key is world
        structure, not a question. A small-object anchor enters with an
        episode, so a lookup from one is not memoized.
        """
        nodes = self._nodes
        anchor = nodes.get(anchor_id)
        key = None
        if constraint is None and layer in _PRIOR_LAYERS and anchor is not None and anchor.layer in _PRIOR_LAYERS:
            key = (anchor_id, label, layer)
            found = self._memo.get(key, _UNSEEN)
            if found is not _UNSEEN:
                return None if found is None else nodes[found]
        probe = self._probe(normalize_label(label))
        node = None
        if any(probe):
            found = self._outward(probe, layer, self._outward_scopes(anchor), constraint)
            if len(found) > 1:
                found = self.nearest_first(found, self.position_of(anchor_id) if anchor is not None else None)
            if found:
                node = found[0]
        if key is not None:
            self._memo[key] = node.id if node is not None else None
        return node

    def _outward_scopes(self, anchor: SceneNode | None) -> Iterator[str | None]:
        """The anchor, its parent, its room when that is not the parent, then
        None for the whole graph; each is found only when the search asks."""
        if anchor is not None:
            yield anchor.id
            parent = self.parent(anchor.id)
            if parent is not None:
                yield parent.id
                if parent.layer > ROOM:
                    yield self.room_of(parent.id).id
        yield None

    def _within(self, candidates: list[SceneNode], scope_id: str | None) -> list[SceneNode]:
        """The candidates under the scope; all of them for None."""
        if scope_id is None or not candidates:
            return candidates
        under = self._under
        return [n for n in candidates if under(n.id, scope_id)]

    def _labels(self) -> _LabelIndex:
        """The label index, built on the first call. It is published only
        once complete, so a thread racing on the first call sees either no
        index, and builds its own, or a whole one."""
        index = self._index
        if index is None:
            index = _LabelIndex(*_grouped(self._nodes.values()))
            self._index, self._index_owned = index, True
        return index

    def _under(self, node_id: str, scope_id: str) -> bool:
        """Whether the scope contains the node: at most three hops up."""
        parent = self._parent.get(node_id)
        while parent is not None:
            if parent == scope_id:
                return True
            parent = self._parent.get(parent)
        return False

    def _child_path(self, scope_id: str, node_id: str) -> list[int]:
        """Child positions from the scope down to the node. Among nodes at
        one depth under the scope, these sort in breadth-first order."""
        path = []
        while node_id != scope_id:
            parent = self._parent[node_id]
            path.append(self._children[parent].index(node_id))
            node_id = parent
        path.reverse()
        return path

    def position_of(self, node_id: str) -> tuple[float, float] | None:
        """Node position; small objects inherit their parent's, floors use the room centroid."""
        node = self.node(node_id)
        if node.position is not None:
            return node.position
        if node.layer is SMALL_OBJECT:
            parent = self.parent(node_id)
            return self.position_of(parent.id) if parent else None
        if node.layer is FLOOR:
            rooms = [c for c in self.children(node_id) if c.position is not None]
            if not rooms:
                return None
            xs = [c.position[0] for c in rooms]
            ys = [c.position[1] for c in rooms]
            return (sum(xs) / len(rooms), sum(ys) / len(rooms))
        return None

    def _distance(self, here: tuple[float, float], node: SceneNode) -> float:
        """Distance from a point to a node, infinite for a node without a
        position. A node's own position is read directly; ``position_of``
        runs only for the nodes that inherit or derive one."""
        pos = node.position if node.position is not None else self.position_of(node.id)
        return math.dist(here, pos) if pos is not None else math.inf

    def nearest_first(self, nodes: Iterable[SceneNode], near: tuple[float, float] | None) -> list[SceneNode]:
        """Nodes nearest to ``near`` first, when given, then by layer,
        instance and id.

        Nodes without a position sort after the positioned ones. A node's
        own position is read directly, so sorting rooms and big objects
        never calls ``position_of`` for them.
        """
        if near is None:
            return sorted(nodes, key=lambda n: (n.layer, n.instance_index, n.id))
        return sorted(nodes, key=lambda n: (self._distance(near, n), n.layer, n.instance_index, n.id))

    def child_ids_nearest_first(self, node_id: str, here: tuple[float, float] | None) -> tuple[str, ...]:
        """The ids of a node's children in ``nearest_first`` order from a
        point, sorted on the first call for the node and point.

        The order is memoized by node id and point: rooms and big objects
        never move, and only a new floor, room or big object can change a
        floor's or a room's children or the centroid of a floor. The memo
        is shared with the graph's copies until one of them adds such a
        node, which starts an empty memo of its own. Two threads that race
        on one key both store the same order.
        """
        key = (node_id, here)
        ids = self._memo.get(key)
        if ids is None:
            ids = self._memo[key] = tuple(n.id for n in self.nearest_first(self.children(node_id), here))
        return ids

    def prior_memo(self, anchor_id: str) -> dict[tuple[Any, ...], Any] | None:
        """The memo shared with this graph's copies, for an answer that reads
        only the floors, rooms and big objects and the anchor's position, as
        ``resolve_from``'s memoized lookups do; None, and no memo, when the
        anchor is not a floor, room or big object of this graph."""
        anchor = self._nodes.get(anchor_id)
        return self._memo if anchor is not None and anchor.layer in _PRIOR_LAYERS else None

    def spatial_relation(self, a: str, b: str) -> str | None:
        """Relation of node a with respect to node b along a same-layer edge."""
        relation = self.spatial_edges.get((a, b))
        if relation is None:
            relation = self.spatial_edges.get((b, a))  # None stays None
            return _INVERSE_RELATION.get(relation, relation)
        return relation

    # -- copying --------------------------------------------------------

    def copy(self) -> SceneGraph:
        """A copy that shares the node objects and the label index with
        this graph: children are tuples, so copying the maps is enough.

        A write to a node in either graph puts a new node in its place, so
        it never reaches the other. The first node a graph adds gives it
        its own index, and the first floor, room or big object its own
        memo.
        """
        out = SceneGraph()
        out._nodes = dict(self._nodes)
        out._parent = dict(self._parent)
        out._children = dict(self._children)
        out.spatial_edges = dict(self.spatial_edges)
        out._index = self._labels()
        out._memo = self._memo
        self._index_owned = False
        return out
