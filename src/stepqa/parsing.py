"""Question parsing: natural language in, pattern chain out.

The template backend handles the fixed question shapes this project
generates and evaluates on. It decomposes the noun phrase of a question
into nested parts ("the book open on the table in the living room"
becomes book, table, living room), assigns each part a layer through a
built-in vocabulary and an optional scene graph, and assembles the
chain. It is deterministic: the same text always parses the same way.

A gold backend replays the chain stored with a dataset record, and a
chat backend delegates extraction to a language model and validates
whatever comes back. Backends are tried in order; the first one that
produces a chain wins.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import partialmethod
from typing import Any

from .llm_client import ChatClient, SchemaError, ask, strip_fences
from .patterns import (
    PatternChain,
    PatternStructureError,
    SubGoal,
    TargetKind,
    make_chain,
    parse_pattern_string,
)
from .scene_graph import Layer, SceneGraph, alias_label, normalize_label, singularize

ROOM_LABELS = {
    "living room", "family room", "kitchen", "bedroom", "bathroom", "study",
    "office", "dining room", "hallway", "garage", "balcony", "laundry room",
    "guest room", "nursery", "pantry", "attic", "basement",
}

BIG_OBJECT_LABELS = {
    "sofa", "couch", "table", "coffee table", "dining table", "side table",
    "desk", "bed", "chair", "armchair", "bench", "stool", "bookshelf",
    "shelf", "wardrobe", "closet", "cabinet", "dresser", "nightstand",
    "counter", "refrigerator", "fridge", "oven", "stove", "microwave",
    "sink", "dishwasher", "washing machine", "toilet", "bathtub", "shower",
    "television", "tv stand", "piano", "mirror", "rug", "sofa bed", "crib",
}

SMALL_OBJECT_LABELS = {
    "book", "phone", "cell phone", "laptop", "tablet", "cup", "mug", "glass",
    "bottle", "plate", "bowl", "bag", "backpack", "purse", "wallet", "key",
    "pen", "pencil", "notebook", "remote", "pillow", "cushion", "blanket",
    "towel", "toy", "doll", "ball", "clock", "vase", "lamp", "plant",
    "potted plant", "candle", "box", "person", "cat", "dog", "magazine",
    "newspaper", "letter", "photo", "picture frame", "charger", "headphones",
    "glasses", "apple", "banana", "teapot", "kettle",
}

STATE_VALUES = {
    "open", "closed", "folded", "unfolded", "empty", "full", "asleep",
    "awake", "lit", "unlit", "clean", "dirty", "tidy", "messy", "charging",
    "broken", "wet", "dry", "running", "stopped",
}

COLOR_VALUES = {
    "red", "blue", "green", "black", "white", "brown", "gray", "grey",
    "yellow", "purple", "orange", "pink", "beige", "silver", "gold",
    "turquoise", "navy", "cream",
}

VALUE_ATTRIBUTE = {v: "state" for v in STATE_VALUES}
VALUE_ATTRIBUTE.update({v: "color" for v in COLOR_VALUES})

GARMENTS = {
    "shirt", "t-shirt", "jacket", "dress", "sweater", "coat", "hat",
    "hoodie", "uniform", "suit", "top",
}

_ARTICLES = {"the", "a", "an"}

# Ordered longest first so multiword connectors win over their prefixes.
_CONNECTORS: tuple[tuple[str, ...], ...] = (
    ("on", "top", "of"),
    ("in", "front", "of"),
    ("held", "by"),
    ("carried", "by"),
    ("sitting", "on"),
    ("sitting", "in"),
    ("lying", "on"),
    ("lying", "in"),
    ("sleeping", "on"),
    ("sleeping", "in"),
    ("standing", "on"),
    ("standing", "in"),
    ("next", "to"),
    ("on",),
    ("in",),
    ("under",),
    ("beneath",),
    ("above",),
    ("below",),
    ("beside",),
    ("wearing",),
)

# The connectors by first word, longest first within each word.
_CONNECTORS_BY_FIRST = {c[0]: tuple(d for d in _CONNECTORS if d[0] == c[0]) for c in _CONNECTORS}

_RELATION_CANON = {
    "on": "on",
    "on top of": "on",
    "above": "above",
    "below": "below",
    "under": "below",
    "beneath": "below",
    "next to": "next-to",
    "beside": "next-to",
    "in": "in",
}


class EmptyQuestionError(ValueError):
    pass


class UnparsedQuestionError(ValueError):
    def __init__(self, question: str) -> None:
        super().__init__(f"no backend could parse {question!r}")
        self.question = question


class ParseSource(Enum):
    TEMPLATE = "template"
    LLM = "llm"
    GOLD = "gold"


@dataclass
class ParsedQuestion:
    chain: PatternChain
    slots: dict[str, str]
    source: ParseSource


@dataclass
class _Part:
    """One noun-phrase segment, inner to outer order in the parts list."""

    label: str
    constraints: list[tuple[str, str]] = field(default_factory=list)
    connector: str | None = None
    layer: Layer | None = None
    ambiguous: bool = False


def _connector_at(tokens: list[str], i: int) -> tuple[str, ...] | None:
    """The longest connector that starts at token i, if any."""
    for conn in _CONNECTORS_BY_FIRST.get(tokens[i], ()):
        if tuple(tokens[i : i + len(conn)]) == conn:
            return conn
    return None


def _split_parts(np_text: str) -> list[_Part]:
    tokens = np_text.split()
    parts: list[_Part] = []
    current: list[str] = []
    pending: list[tuple[str, str]] = []
    i = 0
    while i < len(tokens):
        matched = _connector_at(tokens, i)
        if matched is None:
            current.append(tokens[i])
            i += 1
            continue
        conn_text = " ".join(matched)
        j = i + len(matched)
        # "in a black shirt" constrains the current part instead of nesting
        if conn_text in ("in", "wearing") and j < len(tokens):
            k = j
            if tokens[k] in ("a", "an"):
                k += 1
            adjs: list[str] = []
            while k < len(tokens) and tokens[k] not in GARMENTS:
                if tokens[k] in _ARTICLES or _connector_at(tokens, k) is not None:
                    break
                adjs.append(tokens[k])
                k += 1
            if k < len(tokens) and tokens[k] in GARMENTS and adjs:
                pending.append((tokens[k], " ".join(adjs)))
                i = k + 1
                continue
        if current:
            part = _finish_part(current, pending)
            part.connector = conn_text
            parts.append(part)
            current, pending = [], []
        i = j
    if current:
        parts.append(_finish_part(current, pending))
    return [p for p in parts if p.label]


def _finish_part(words: list[str], constraints: list[tuple[str, str]]) -> _Part:
    words = [w for w in words if w not in _ARTICLES]
    extra: list[tuple[str, str]] = []
    while len(words) >= 2 and " ".join(words) not in _ALL_KNOWN:
        if words[0] in VALUE_ATTRIBUTE:
            extra.append((VALUE_ATTRIBUTE[words[0]], words[0]))
            words = words[1:]
        elif words[-1] in VALUE_ATTRIBUTE:
            extra.append((VALUE_ATTRIBUTE[words[-1]], words[-1]))
            words = words[:-1]
        else:
            break
    return _Part(label=" ".join(words), constraints=list(constraints) + extra)


_ROOMS = frozenset(normalize_label(x) for x in ROOM_LABELS)
_BIG_OBJECTS = frozenset(normalize_label(x) for x in BIG_OBJECT_LABELS)
_SMALL_OBJECTS = frozenset(normalize_label(x) for x in SMALL_OBJECT_LABELS)
_ALL_KNOWN = _ROOMS | _BIG_OBJECTS | _SMALL_OBJECTS


def _assign_layer(part: _Part, graph: SceneGraph | None) -> None:
    norm = alias_label(part.label)
    if norm in _ROOMS:
        part.layer = Layer.ROOM
        return
    if graph is not None and graph.find_nodes(norm, Layer.ROOM):
        part.layer = Layer.ROOM
        return
    if norm in _BIG_OBJECTS:
        part.layer = Layer.BIG_OBJECT
        return
    if norm in _SMALL_OBJECTS:
        part.layer = Layer.SMALL_OBJECT
        return
    if graph is not None:
        if graph.resolve_label(norm, layer=Layer.BIG_OBJECT):
            part.layer = Layer.BIG_OBJECT
            return
        if graph.resolve_label(norm, layer=Layer.SMALL_OBJECT):
            part.layer = Layer.SMALL_OBJECT
            return
    # a label the prior graph does not know cannot be furniture
    part.layer = Layer.SMALL_OBJECT
    part.ambiguous = True


def _part_step(part: _Part, marked: bool = False) -> SubGoal:
    constraint = part.constraints[0] if part.constraints else None
    return SubGoal(
        layer=part.layer or Layer.SMALL_OBJECT,
        label=part.label,
        attribute_constraint=constraint,
        attribute_marked=marked,
    )


def _scope_steps(scope: list[_Part]) -> list[SubGoal]:
    """One step per scope part, outermost first."""
    return [_part_step(p) for p in reversed(scope)]


def _scope_slots(parts: list[_Part]) -> dict[str, str]:
    slots: dict[str, str] = {}
    for part in parts:
        if part.layer is Layer.ROOM and "room" not in slots:
            slots["room"] = part.label
        elif part.layer is Layer.BIG_OBJECT and "support" not in slots:
            slots["support"] = part.label
    return slots


def _parsed(
    steps: list[SubGoal], kind: TargetKind, scope: list[_Part], **slots: str
) -> ParsedQuestion | None:
    """The steps as a chain, with the room and support the scope names
    filled in over ``slots``; None when the steps cannot form a chain."""
    try:
        chain = make_chain(steps, kind)
    except PatternStructureError:
        return None
    return ParsedQuestion(chain, {**slots, **_scope_slots(scope)}, ParseSource.TEMPLATE)


class TemplateBackend:
    """Deterministic parser over the supported question templates."""

    name = "template"

    def __init__(self, graph: SceneGraph | None = None) -> None:
        self.graph = graph

    def parse(self, question: str) -> ParsedQuestion | None:
        text = question.strip().lower().rstrip("?.! ").strip()
        for pattern, builder in _SKELETONS:
            m = pattern.match(text)
            if m is None:
                continue
            built = builder(self, m)
            if built is not None:
                return built
        return None

    # -- builders, one per skeleton -------------------------------------

    def _parts(self, np_text: str) -> list[_Part]:
        parts = _split_parts(np_text)
        for part in parts:
            _assign_layer(part, self.graph)
        return parts

    def _head(self, m: re.Match) -> tuple[_Part, list[_Part]] | None:
        """The noun phrase's innermost part and the parts that scope it,
        or None when there is no part or the innermost one is a room."""
        parts = self._parts(m.group("np"))
        if not parts or parts[0].layer is Layer.ROOM:
            return None
        return parts[0], parts[1:]

    def _room_query(self, m: re.Match) -> ParsedQuestion | None:
        head = self._head(m)
        if head is None:
            return None
        subject, scope = head
        steps = [_part_step(subject), SubGoal(layer=Layer.ROOM)]
        return _parsed(steps, TargetKind.ROOM, scope, object=subject.label)

    def _relational(self, m: re.Match) -> ParsedQuestion | None:
        relation = _RELATION_CANON.get(m.group("rel"), m.group("rel"))
        head = self._head(m)
        if head is None:
            return None
        ref, scope = head
        if ref.layer is Layer.BIG_OBJECT and relation == "next-to":
            target_layer = Layer.BIG_OBJECT
        else:
            target_layer = Layer.SMALL_OBJECT
        steps = [*_scope_steps(scope), _part_step(ref), SubGoal(layer=target_layer)]
        slots = dict(relation=relation, support=ref.label)
        return _parsed(steps, TargetKind.OBJECT, [ref, *scope], **slots)

    def _attribute(self, m: re.Match, attribute: str | None = None) -> ParsedQuestion | None:
        """An attribute question. An unknown target label also gets a
        big-object reading as the chain's alternative, if that builds."""
        attribute = attribute or m.group("attr")
        head = self._head(m)
        if head is None:
            return None
        target, scope = head

        def reading(part: _Part) -> list[SubGoal]:
            return [
                *_scope_steps(scope),
                _part_step(part, marked=True),
                SubGoal(layer=part.layer, queried_attribute=attribute),
            ]

        slots = dict(object=target.label, attribute=attribute)
        parsed = _parsed(reading(target), TargetKind.ATTRIBUTE, scope, **slots)
        if parsed is not None and target.ambiguous:
            flipped = _Part(target.label, target.constraints, layer=Layer.BIG_OBJECT)
            alt = _parsed(reading(flipped), TargetKind.ATTRIBUTE, scope)
            if alt is not None:
                parsed.chain = replace(parsed.chain, alternatives=(alt.chain,))
        return parsed

    _activity = partialmethod(_attribute, attribute="activity")

    def _tally(self, m: re.Match, kind: TargetKind) -> ParsedQuestion | None:
        """A count or existence question. Only a count singularizes the
        object word: existence keeps it, as singularize("lens") is "len"."""
        label = m.group("obj")
        if kind is TargetKind.COUNT:
            words = label.split()
            label = " ".join([*words[:-1], singularize(words[-1])])
        scope = self._parts(m.group("np"))
        target = _finish_part(label.split(), [])
        _assign_layer(target, self.graph)
        steps = [*_scope_steps(scope), _part_step(target)]
        relation = _RELATION_CANON.get(m.group("rel"), m.group("rel"))
        return _parsed(steps, kind, scope, object=target.label, relation=relation)

    _count = partialmethod(_tally, kind=TargetKind.COUNT)
    _existence = partialmethod(_tally, kind=TargetKind.EXISTENCE)

    def _yes_no_attribute(self, m: re.Match) -> ParsedQuestion | None:
        value = m.group("value")
        attribute = VALUE_ATTRIBUTE.get(value)
        head = self._head(m) if attribute is not None else None
        if head is None:
            return None
        target, scope = head
        target.constraints.insert(0, (attribute, value))
        steps = [*_scope_steps(scope), _part_step(target)]
        slots = dict(object=target.label, attribute=attribute, value=value)
        return _parsed(steps, TargetKind.EXISTENCE, scope, **slots)


_SKELETONS: list[tuple[re.Pattern[str], Any]] = [
    (re.compile(r"^(?:what|which) room is (?P<np>.+?)(?: located)? in$"), TemplateBackend._room_query),
    (re.compile(r"^where is (?P<np>.+?)(?: located)?$"), TemplateBackend._room_query),
    (re.compile(r"^what is (?P<rel>on top of|next to|on|above|below|under|beneath|beside) (?P<np>.+)$"), TemplateBackend._relational),
    (re.compile(r"^what is the (?P<attr>[\w-]+) of (?P<np>.+)$"), TemplateBackend._attribute),
    (re.compile(r"^what is (?P<np>.+?) doing$"), TemplateBackend._activity),
    (re.compile(r"^what (?P<attr>[\w-]+) is (?P<np>.+)$"), TemplateBackend._attribute),
    (re.compile(r"^how many (?P<obj>[\w -]+?) are(?: there)? (?P<rel>in|on) (?P<np>.+)$"), TemplateBackend._count),
    (re.compile(r"^is there (?:a|an) (?P<obj>[\w -]+?) (?P<rel>on|in|under|next to) (?P<np>.+)$"), TemplateBackend._existence),
    (re.compile(r"^is (?P<np>.+?) (?P<value>[\w-]+)$"), TemplateBackend._yes_no_attribute),
]


class GoldBackend:
    """Replays the chain a dataset record was generated with."""

    name = "gold"

    def __init__(self, gold_pattern: str, slots: dict[str, str] | None = None) -> None:
        self.gold_pattern = gold_pattern
        self.slots = dict(slots or {})

    def parse(self, question: str) -> ParsedQuestion | None:
        chain = parse_pattern_string(self.gold_pattern)
        return ParsedQuestion(chain, dict(self.slots), ParseSource.GOLD)


class LlmBackend:
    """Asks a chat model for the chain and validates the reply."""

    name = "llm"

    def __init__(self, client: ChatClient) -> None:
        self.client = client

    def parse(self, question: str) -> ParsedQuestion | None:
        """The model's chain, or None when no reply validated, so the next backend gets a turn."""
        try:
            return ask(self.client, "extract_pattern", question, self._validated)
        except SchemaError:
            return None

    def _validated(self, reply: str) -> ParsedQuestion:
        data = json.loads(strip_fences(reply))
        if not isinstance(data, dict) or "pattern" not in data:
            raise ValueError("reply must be an object with a 'pattern' field")
        chain = parse_pattern_string(str(data["pattern"]))
        slots_raw = data.get("slots", {})
        if not isinstance(slots_raw, dict):
            raise ValueError("'slots' must be an object")
        slots = {str(k): json_text(v, f"slot {k!r}") for k, v in slots_raw.items()}
        return ParsedQuestion(chain, slots, ParseSource.LLM)


def json_text(value: Any, name: str, error: type[ValueError] = ValueError) -> str:
    """A JSON value as text: a string, or a number read as its text.

    Null, a boolean, an array or an object raises ``error`` naming the value.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return str(value)
    kind = "null" if value is None else type(value).__name__
    raise error(f"{name} must be a string or a number, not {kind}")


def parse_question(question: str, backends: list[Any]) -> ParsedQuestion:
    """Run the question through the backends in order; first chain wins."""
    if not isinstance(question, str) or not question.strip():
        raise EmptyQuestionError("question text is empty")
    for backend in backends:
        parsed = backend.parse(question)
        if parsed is not None:
            return parsed
    raise UnparsedQuestionError(question)
