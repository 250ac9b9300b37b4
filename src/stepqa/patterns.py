"""Question pattern chains.

A parsed question becomes a chain of subgoals, one per step the agent
has to work through. Chains have a textual form used in traces, gold
dataset records and tests:

    step ("->" step)*
    step = ("V1".."V4" | "V3(A)" | "V4(A)" | "A") ["[" label "]"] ["{" attr "=" value "}"]

"V2[living room] -> V3[table] -> V4(A)[book]{state=open} -> A[title]"
reads: enter the living room, reach the table, pick out the book that is
open, report its title. Count and existence questions reuse object-shaped
chains and mark themselves with a "count:" or "exists:" prefix instead of
a step symbol of their own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .scene_graph import Layer


class TargetKind(Enum):
    OBJECT = "object"
    ATTRIBUTE = "attribute"
    ROOM = "room"
    COUNT = "count"
    EXISTENCE = "existence"


_KIND_PREFIXES = {"count": TargetKind.COUNT, "exists": TargetKind.EXISTENCE}


class PatternSyntaxError(ValueError):
    """Bad chain text; carries the character position of the offense."""

    def __init__(self, message: str, position: int = 0) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PatternStructureError(ValueError):
    pass


@dataclass(frozen=True, init=False)
class SubGoal:
    """One step of a chain.

    For object steps the layer is the layer of the thing to reach. The
    final step of an attribute chain instead names what to read off the
    object reached just before it; its layer repeats the object's layer.
    A constraint marks the step, and a queried attribute makes it an
    attribute step.
    """

    layer: Layer
    label: str | None = None
    attribute_constraint: tuple[str, str] | None = None
    queried_attribute: str | None = None
    attribute_marked: bool = False
    attribute_step: bool = False

    def __init__(
        self,
        layer: Layer,
        label: str | None = None,
        attribute_constraint: tuple[str, str] | None = None,
        queried_attribute: str | None = None,
        attribute_marked: bool = False,
        attribute_step: bool = False,
    ) -> None:
        # One dict update: the frozen dataclass's generated __init__ would
        # set each field through object.__setattr__, at about twice the cost.
        self.__dict__.update(
            layer=layer,
            label=label,
            attribute_constraint=attribute_constraint,
            queried_attribute=queried_attribute,
            attribute_marked=attribute_marked or attribute_constraint is not None,
            attribute_step=attribute_step or queried_attribute is not None,
        )

    def token(self, with_slots: bool = True) -> str:
        if self.attribute_step:
            text = "A"
            if with_slots and self.queried_attribute:
                text += f"[{self.queried_attribute}]"
            return text
        text = self.layer.tag
        if self.attribute_marked:
            text += "(A)"
        if with_slots:
            if self.label:
                text += f"[{self.label}]"
            if self.attribute_constraint:
                attr, value = self.attribute_constraint
                text += f"{{{attr}={value}}}"
        return text


@dataclass(frozen=True, init=False)
class PatternChain:
    steps: tuple[SubGoal, ...]
    target_kind: TargetKind

    def __init__(self, steps: tuple[SubGoal, ...], target_kind: TargetKind) -> None:
        self.__dict__.update(steps=steps, target_kind=target_kind)

    def __len__(self) -> int:
        return len(self.steps)


_STEP_RE = re.compile(
    r"^(?P<sym>V[1-4]|A)"
    r"(?P<marked>\(A\))?"
    r"(?:\[(?P<label>[^\[\]{}]+)\])?"
    r"(?:\{(?P<cattr>[^{}=]+)=(?P<cval>[^{}=]+)\})?$"
)


_OBJECT_LAYERS = (Layer.BIG_OBJECT, Layer.SMALL_OBJECT)


def _validate(steps: tuple[SubGoal, ...], kind: TargetKind) -> None:
    """Raise PatternStructureError for the first rule the steps break, in
    this order: no steps; an attribute step before the last step; an
    attribute constraint above the object layers; an attribute step first;
    then the kind's rule, a room chain's ends or a descending chain's
    layers. One pass finds all of them."""
    if not steps:
        raise PatternStructureError("empty chain")
    last = len(steps) - 1
    constrained: SubGoal | None = None  # the first constraint above the object layers
    upward: tuple[Layer, Layer] | None = None  # the first step up, between object steps
    above: Layer | None = None
    for i, step in enumerate(steps):
        if step.attribute_step:
            if i < last:
                raise PatternStructureError(f"attribute step only allowed in final position, found at step {i}")
        else:
            if upward is None and above is not None and step.layer < above:
                upward = (above, step.layer)
            above = step.layer
        if constrained is None and step.attribute_constraint is not None and step.layer not in _OBJECT_LAYERS:
            constrained = step
    if constrained is not None:
        raise PatternStructureError(f"attribute constraint not allowed on a {constrained.layer.tag} step")
    if steps[0].attribute_step:
        raise PatternStructureError("chain cannot open with an attribute step")
    if kind is TargetKind.ROOM:
        if len(steps) < 2 or steps[-1].layer is not Layer.ROOM:
            raise PatternStructureError("room chain must end on a V2 step")
        if steps[0].layer <= Layer.ROOM:
            raise PatternStructureError("room chain must start below V2")
    elif upward is not None:
        a, b = upward
        raise PatternStructureError(f"descending chain cannot step upward from {a.tag} to {b.tag}")


def _infer_kind(steps: tuple[SubGoal, ...]) -> TargetKind:
    if steps[-1].attribute_step:
        return TargetKind.ATTRIBUTE
    if len(steps) >= 2 and steps[-1].layer is Layer.ROOM and steps[0].layer > Layer.ROOM:
        return TargetKind.ROOM
    return TargetKind.OBJECT


def parse_pattern_string(text: str) -> PatternChain:
    """Parse chain text into a PatternChain.

    Raises PatternSyntaxError for token-level problems (with a position)
    and PatternStructureError when the steps cannot form a valid chain.
    """
    if not isinstance(text, str) or not text.strip():
        raise PatternSyntaxError("empty pattern text")
    body = text.strip()
    explicit_kind: TargetKind | None = None
    offset = 0
    if ":" in body.split("->", 1)[0]:
        prefix, rest = body.split(":", 1)
        key = prefix.strip().lower()
        if key not in _KIND_PREFIXES:
            raise PatternSyntaxError(f"unknown chain kind {prefix.strip()!r}", 0)
        explicit_kind = _KIND_PREFIXES[key]
        offset = len(body) - len(rest)
        body = rest.strip()
    if not body:
        raise PatternSyntaxError("no steps after kind prefix", offset)

    steps: list[SubGoal] = []
    pos = offset
    prev_layer: Layer | None = None
    for raw in body.split("->"):
        token = raw.strip()
        if not token:
            raise PatternSyntaxError("empty step", pos)
        m = _STEP_RE.match(token)
        if m is None:
            raise PatternSyntaxError(f"bad step {token!r}", pos)
        sym = m.group("sym")
        label = m.group("label").strip() if m.group("label") else None
        constraint = None
        if m.group("cattr"):
            constraint = (m.group("cattr").strip(), m.group("cval").strip())
        if sym == "A":
            if prev_layer is None:
                raise PatternStructureError("chain cannot open with an attribute step")
            if m.group("marked") or constraint is not None:
                raise PatternSyntaxError("attribute step takes no (A) marker or constraint", pos)
            steps.append(SubGoal(layer=prev_layer, queried_attribute=label, attribute_step=True))
        else:
            layer = Layer.from_tag(sym)
            steps.append(
                SubGoal(
                    layer=layer,
                    label=label,
                    attribute_constraint=constraint,
                    attribute_marked=bool(m.group("marked")),
                )
            )
            prev_layer = layer
        pos += len(raw) + 2

    return make_chain(steps, explicit_kind)


def render(chain: PatternChain) -> str:
    """Chain back to text; ``shape`` gives the bare step shape."""
    body = " -> ".join(step.token() for step in chain.steps)
    if chain.target_kind is TargetKind.COUNT:
        return f"count: {body}"
    if chain.target_kind is TargetKind.EXISTENCE:
        return f"exists: {body}"
    return body


def shape(chain: PatternChain) -> str:
    """Bare step shape, e.g. "V2 -> V3 -> V4(A) -> A"."""
    return " -> ".join(step.token(with_slots=False) for step in chain.steps)


def make_chain(steps: Sequence[SubGoal], kind: TargetKind | None = None) -> PatternChain:
    """Build and validate a chain from step objects."""
    steps = tuple(steps)
    resolved = kind or _infer_kind(steps)
    _validate(steps, resolved)
    return PatternChain(steps, resolved)
