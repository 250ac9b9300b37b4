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
from dataclasses import dataclass
from functools import partialmethod
from typing import Any

from .llm_client import ChatClient, SchemaError, ask, strip_fences
from .patterns import (
    ATTRIBUTE_TARGET,
    COUNT_TARGET,
    EXISTENCE_TARGET,
    OBJECT_TARGET,
    ROOM_TARGET,
    PatternChain,
    PatternStructureError,
    SubGoal,
    TargetKind,
    make_chain,
    parse_pattern_string,
)
from .scene_graph import (
    BIG_OBJECT,
    ROOM,
    SMALL_OBJECT,
    Layer,
    SceneGraph,
    alias_label,
    normalize_label,
    singularize,
)

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
# Connectors that a garment phrase may follow ("in a black shirt").
_WORN = {("in",), ("wearing",)}

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


class UnparsedQuestionError(ValueError):
    def __init__(self, question: str) -> None:
        super().__init__(f"no backend could parse {question!r}")
        self.question = question


@dataclass
class ParsedQuestion:
    chain: PatternChain
    slots: dict[str, str]
    source: str  # the name of the backend that parsed the question


def _connector_at(tokens: list[str], i: int) -> tuple[str, ...] | None:
    """The longest connector that starts at token i, if any."""
    for conn in _CONNECTORS_BY_FIRST.get(tokens[i], ()):
        if tuple(tokens[i : i + len(conn)]) == conn:
            return conn
    return None


# A noun-phrase part: (label, its first attribute constraint or None,
# layer). A plain tuple, as a question makes several.
_Part = tuple[str, tuple[str, str] | None, Layer]


def _parts(np_text: str, graph: SceneGraph | None) -> list[_Part]:
    """The noun phrase's parts, innermost first, in one pass over its words.

    A connector ("on", "next to", ...) ends a part, and a part without a
    word other than an article is dropped. "in" or "wearing" followed by
    adjectives and a garment ("wearing a black shirt") constrains the
    current part instead of starting the next one.
    """
    tokens = np_text.split()
    n = len(tokens)
    parts: list[_Part] = []
    words: list[str] = []
    started = False  # the current part has a token, if only an article
    garment: tuple[str, str] | None = None  # the current part's first one
    i = 0
    while i < n:
        token = tokens[i]
        conn = _connector_at(tokens, i) if token in _CONNECTORS_BY_FIRST else None
        if conn is None:
            if token not in _ARTICLES:
                words.append(token)
            started = True
            i += 1
            continue
        j = i + len(conn)
        if conn in _WORN and j < n:
            k = j + 1 if tokens[j] in ("a", "an") else j
            first = k
            while k < n and tokens[k] not in GARMENTS:
                if tokens[k] in _ARTICLES or _connector_at(tokens, k) is not None:
                    break
                k += 1
            if first < k < n and tokens[k] in GARMENTS:
                garment = garment or (tokens[k], " ".join(tokens[first:k]))
                i = k + 1
                continue
        if started:
            if words:
                parts.append(_part(words, garment, graph))
            words, started, garment = [], False, None
        i = j
    if words:
        parts.append(_part(words, garment, graph))
    return parts


def _part(words: list[str], constraint: tuple[str, str] | None, graph: SceneGraph | None) -> _Part:
    """A part from its words (articles dropped) and the constraint it wears.

    Value words at either end of a label the vocabulary does not know
    become constraints ("red cup" is a cup whose color is red). The layer
    is the vocabulary's, unless the graph has a room of that label; a
    label the vocabulary lacks is a big object when the graph resolves it
    to one, as itself or a label ending in it, and a small object otherwise.
    """
    label = " ".join(words)
    while len(words) >= 2 and label not in _ALL_KNOWN:
        if words[0] in VALUE_ATTRIBUTE:
            value = words.pop(0)
        elif words[-1] in VALUE_ATTRIBUTE:
            value = words.pop()
        else:
            break
        constraint = constraint or (VALUE_ATTRIBUTE[value], value)
        label = " ".join(words)
    norm = alias_label(label)
    layer = _VOCAB_LAYERS.get(norm)
    if layer is ROOM or graph is not None and graph.has_label(norm, ROOM):
        return label, constraint, ROOM
    if layer is not None:
        return label, constraint, layer
    if graph is not None and graph.resolve_label(norm, BIG_OBJECT):
        return label, constraint, BIG_OBJECT
    # a label the prior graph does not know as furniture is a small object
    return label, constraint, SMALL_OBJECT


_ROOMS = frozenset(normalize_label(x) for x in ROOM_LABELS)
_BIG_OBJECTS = frozenset(normalize_label(x) for x in BIG_OBJECT_LABELS)
_SMALL_OBJECTS = frozenset(normalize_label(x) for x in SMALL_OBJECT_LABELS)
_ALL_KNOWN = _ROOMS | _BIG_OBJECTS | _SMALL_OBJECTS
# The vocabulary's layer of each label: a room label over a big-object
# one, a big-object label over a small-object one.
_VOCAB_LAYERS = {
    **dict.fromkeys(_SMALL_OBJECTS, SMALL_OBJECT),
    **dict.fromkeys(_BIG_OBJECTS, BIG_OBJECT),
    **dict.fromkeys(_ROOMS, ROOM),
}


def _steps(parts: list[_Part]) -> list[SubGoal]:
    """One step per part, outermost first."""
    return [SubGoal(layer, label, constraint) for label, constraint, layer in reversed(parts)]


def _scope_slots(parts: list[_Part]) -> dict[str, str]:
    slots: dict[str, str] = {}
    for label, _, layer in parts:
        if layer is ROOM:
            slots.setdefault("room", label)
        elif layer is BIG_OBJECT:
            slots.setdefault("support", label)
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
    slots.update(_scope_slots(scope))
    return ParsedQuestion(chain, slots, TemplateBackend.name)


class TemplateBackend:
    """Deterministic parser over the supported question templates."""

    name = "template"

    def __init__(self, graph: SceneGraph | None = None) -> None:
        self.graph = graph

    def parse(self, question: str) -> ParsedQuestion | None:
        """The first skeleton that matches the question and builds a chain.
        Only the skeletons for the question's first word are tried."""
        text = question.strip().lower().rstrip("?.! ").strip()
        for pattern, builder in _SKELETONS.get(text.partition(" ")[0], ()):
            m = pattern.match(text)
            if m is not None:
                built = builder(self, m)
                if built is not None:
                    return built
        return None

    # -- builders, one per skeleton -------------------------------------

    def _head(self, m: re.Match) -> tuple[_Part, list[_Part]] | None:
        """The noun phrase's innermost part and the parts that scope it,
        or None when there is no part or the innermost one is a room."""
        parts = _parts(m.group("np"), self.graph)
        if not parts or parts[0][2] is ROOM:
            return None
        return parts[0], parts[1:]

    def _room_query(self, m: re.Match) -> ParsedQuestion | None:
        head = self._head(m)
        if head is None:
            return None
        (label, constraint, layer), scope = head
        steps = [SubGoal(layer, label, constraint), SubGoal(ROOM)]
        return _parsed(steps, ROOM_TARGET, scope, object=label)

    def _relational(self, m: re.Match) -> ParsedQuestion | None:
        relation = _RELATION_CANON.get(m.group("rel"), m.group("rel"))
        head = self._head(m)
        if head is None:
            return None
        ref, scope = head
        label, _, layer = ref
        if layer is BIG_OBJECT and relation == "next-to":
            target_layer = BIG_OBJECT
        else:
            target_layer = SMALL_OBJECT
        parts = [ref, *scope]
        steps = [*_steps(parts), SubGoal(target_layer)]
        return _parsed(steps, OBJECT_TARGET, parts, relation=relation, support=label)

    def _attribute(self, m: re.Match, attribute: str | None = None) -> ParsedQuestion | None:
        attribute = attribute or m.group("attr")
        head = self._head(m)
        if head is None:
            return None
        (label, constraint, layer), scope = head
        steps = [
            *_steps(scope),
            SubGoal(layer, label, constraint, attribute_marked=True),
            SubGoal(layer, queried_attribute=attribute),
        ]
        return _parsed(steps, ATTRIBUTE_TARGET, scope, object=label, attribute=attribute)

    _activity = partialmethod(_attribute, attribute="activity")

    def _tally(self, m: re.Match, kind: TargetKind) -> ParsedQuestion | None:
        """A count or existence question. Only a count singularizes the
        object word: existence keeps it, as singularize("lens") is "len".
        A blank object word ("how many   are ...") parses to nothing."""
        words = m.group("obj").split()
        if not words:
            return None
        if kind is COUNT_TARGET:
            words[-1] = singularize(words[-1])
        scope = _parts(m.group("np"), self.graph)
        target = _part([w for w in words if w not in _ARTICLES], None, self.graph)
        steps = _steps([target, *scope])
        relation = _RELATION_CANON.get(m.group("rel"), m.group("rel"))
        return _parsed(steps, kind, scope, object=target[0], relation=relation)

    _count = partialmethod(_tally, kind=COUNT_TARGET)
    _existence = partialmethod(_tally, kind=EXISTENCE_TARGET)

    def _yes_no_attribute(self, m: re.Match) -> ParsedQuestion | None:
        value = m.group("value")
        attribute = VALUE_ATTRIBUTE.get(value)
        head = self._head(m) if attribute is not None else None
        if head is None:
            return None
        (label, _, layer), scope = head
        # the asked value comes before any constraint the phrase carries
        steps = _steps([(label, (attribute, value), layer), *scope])
        slots = dict(object=label, attribute=attribute, value=value)
        return _parsed(steps, EXISTENCE_TARGET, scope, **slots)


# The skeletons in the order they are tried, each with the first words of
# the questions it can match.
_SKELETON_ORDER: list[tuple[tuple[str, ...], re.Pattern[str], Any]] = [
    (("what", "which"), re.compile(r"^(?:what|which) room is (?P<np>.+?)(?: located)? in$"), TemplateBackend._room_query),
    (("where",), re.compile(r"^where is (?P<np>.+?)(?: located)?$"), TemplateBackend._room_query),
    (("what",), re.compile(r"^what is (?P<rel>on top of|next to|on|above|below|under|beneath|beside) (?P<np>.+)$"), TemplateBackend._relational),
    (("what",), re.compile(r"^what is the (?P<attr>[\w-]+) of (?P<np>.+)$"), TemplateBackend._attribute),
    (("what",), re.compile(r"^what is (?P<np>.+?) doing$"), TemplateBackend._activity),
    (("what",), re.compile(r"^what (?P<attr>[\w-]+) is (?P<np>.+)$"), TemplateBackend._attribute),
    (("how",), re.compile(r"^how many (?P<obj>[\w -]+?) are(?: there)? (?P<rel>in|on) (?P<np>.+)$"), TemplateBackend._count),
    (("is",), re.compile(r"^is there (?:a|an) (?P<obj>[\w -]+?) (?P<rel>on|in|under|next to) (?P<np>.+)$"), TemplateBackend._existence),
    (("is",), re.compile(r"^is (?P<np>.+?) (?P<value>[\w-]+)$"), TemplateBackend._yes_no_attribute),
]
_SKELETONS: dict[str, list[tuple[re.Pattern[str], Any]]] = {
    word: [(pattern, builder) for words, pattern, builder in _SKELETON_ORDER if word in words]
    for word in {word for words, _, _ in _SKELETON_ORDER for word in words}
}


class GoldBackend:
    """Replays the chain a dataset record was generated with."""

    name = "gold"

    def __init__(self, gold_pattern: str, slots: dict[str, str] | None = None) -> None:
        self.gold_pattern = gold_pattern
        self.slots = dict(slots or {})

    def parse(self, question: str) -> ParsedQuestion | None:
        chain = parse_pattern_string(self.gold_pattern)
        return ParsedQuestion(chain, dict(self.slots), self.name)


class LlmBackend:
    """Asks a chat model for the chain and validates the reply."""

    name = "llm"

    def __init__(self, client: ChatClient) -> None:
        self.client = client

    def parse(self, question: str) -> ParsedQuestion:
        """The model's chain; raises SchemaError when no reply validated."""
        return ask(self.client, "extract_pattern", question, self._validated)

    def _validated(self, reply: str) -> ParsedQuestion:
        data = json.loads(strip_fences(reply))
        if not isinstance(data, dict) or "pattern" not in data:
            raise ValueError("reply must be an object with a 'pattern' field")
        chain = parse_pattern_string(str(data["pattern"]))
        slots_raw = data.get("slots", {})
        if not isinstance(slots_raw, dict):
            raise ValueError("'slots' must be an object")
        slots = {str(k): json_text(v, f"slot {k!r}") for k, v in slots_raw.items()}
        return ParsedQuestion(chain, slots, self.name)


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
    """Run the question through the backends in order; first chain wins.

    A backend that raises SchemaError gives way to the next one. When no
    backend parses, UnparsedQuestionError is raised from the last such error;
    blank text reaches no backend and raises it at once.
    """
    if not isinstance(question, str) or not question.strip():
        raise UnparsedQuestionError(question)
    last_error: SchemaError | None = None
    for backend in backends:
        try:
            parsed = backend.parse(question)
        except SchemaError as exc:
            last_error = exc
            continue
        if parsed is not None:
            return parsed
    raise UnparsedQuestionError(question) from last_error
