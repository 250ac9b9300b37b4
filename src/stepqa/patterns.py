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
from dataclasses import dataclass, field
from enum import Enum

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


@dataclass(frozen=True)
class SubGoal:
    """One step of a chain.

    For object steps the layer is the layer of the thing to reach. The
    final step of an attribute chain instead names what to read off the
    object reached just before it; its layer repeats the object's layer.
    """

    layer: Layer
    label: str | None = None
    attribute_constraint: tuple[str, str] | None = None
    queried_attribute: str | None = None
    attribute_marked: bool = False
    attribute_step: bool = False

    def __post_init__(self) -> None:
        if self.attribute_constraint is not None:
            object.__setattr__(self, "attribute_marked", True)
        if self.queried_attribute is not None:
            object.__setattr__(self, "attribute_step", True)

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

    @property
    def is_attribute_step(self) -> bool:
        return self.attribute_step


@dataclass(frozen=True)
class PatternChain:
    steps: tuple[SubGoal, ...]
    target_kind: TargetKind
    alternatives: tuple["PatternChain", ...] = field(default=(), compare=False)

    def __len__(self) -> int:
        return len(self.steps)


_STEP_RE = re.compile(
    r"^(?P<sym>V[1-4]|A)"
    r"(?P<marked>\(A\))?"
    r"(?:\[(?P<label>[^\[\]{}]+)\])?"
    r"(?:\{(?P<cattr>[^{}=]+)=(?P<cval>[^{}=]+)\})?$"
)


def _validate(steps: list[SubGoal], kind: TargetKind) -> None:
    if not steps:
        raise PatternStructureError("empty chain")
    for i, step in enumerate(steps[:-1]):
        if step.is_attribute_step:
            raise PatternStructureError(f"attribute step only allowed in final position, found at step {i}")
    for step in steps:
        if step.attribute_constraint is not None and step.layer not in (
            Layer.BIG_OBJECT,
            Layer.SMALL_OBJECT,
        ):
            raise PatternStructureError(
                f"attribute constraint not allowed on a {step.layer.tag} step"
            )
    if steps[0].is_attribute_step:
        raise PatternStructureError("chain cannot open with an attribute step")
    if kind is TargetKind.ROOM:
        if len(steps) < 2 or steps[-1].layer is not Layer.ROOM:
            raise PatternStructureError("room chain must end on a V2 step")
        if steps[0].layer <= Layer.ROOM:
            raise PatternStructureError("room chain must start below V2")
    else:
        layers = [s.layer for s in steps if not s.is_attribute_step]
        for a, b in zip(layers, layers[1:]):
            if b < a:
                raise PatternStructureError(
                    f"descending chain cannot step upward from {a.tag} to {b.tag}"
                )


def _infer_kind(steps: list[SubGoal]) -> TargetKind:
    if steps[-1].is_attribute_step:
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

    kind = explicit_kind or _infer_kind(steps)
    _validate(steps, kind)
    return PatternChain(steps=tuple(steps), target_kind=kind)


def render(chain: PatternChain, with_slots: bool = True) -> str:
    """Chain back to text. With with_slots=False only the step shape remains."""
    body = " -> ".join(step.token(with_slots=with_slots) for step in chain.steps)
    if chain.target_kind is TargetKind.COUNT:
        return f"count: {body}"
    if chain.target_kind is TargetKind.EXISTENCE:
        return f"exists: {body}"
    return body


def shape(chain: PatternChain) -> str:
    """Bare step shape, e.g. "V2 -> V3 -> V4(A) -> A"."""
    return " -> ".join(step.token(with_slots=False) for step in chain.steps)


def make_chain(
    steps: list[SubGoal],
    kind: TargetKind | None = None,
    alternatives: tuple[PatternChain, ...] = (),
) -> PatternChain:
    """Build and validate a chain from step objects."""
    resolved = kind or _infer_kind(steps)
    _validate(list(steps), resolved)
    return PatternChain(steps=tuple(steps), target_kind=resolved, alternatives=alternatives)
