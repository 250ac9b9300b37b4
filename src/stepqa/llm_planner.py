"""Judgment calls the rule table cannot make on its own.

Three helpers sit here: deciding whether an attribute reads from afar or
needs a close look, rewriting the original question into the short form
an observation should answer, and producing a fallback plan when rule
planning dead-ends. Each has a deterministic lookup backend used in
tests and offline runs, and a chat-model backend for live use. Both
backends are pure: same inputs, same output, no graph mutation.
"""

from __future__ import annotations

import json
from typing import Any

from .llm_client import ChatClient, SchemaError, ask, strip_fences
from .patterns import (
    ATTRIBUTE_TARGET,
    COUNT_TARGET,
    EXISTENCE_TARGET,
    OBJECT_TARGET,
    PatternChain,
    render,
)
from .rules import ANSWER, CLOSE_RANGE, MOVE_TO, OBSERVE, REMOTE, PerceptionRange, Plan, move_plan
from .scene_graph import BIG_OBJECT, SceneGraph, SceneNode

# Attribute families that resolve from one layer above the object.
REMOTE_ATTRIBUTES = frozenset({"color", "quantity", "existence", "location"})
# Families that require standing at the object. Unknown names land here:
# moving closer costs steps but never loses information.
CLOSE_RANGE_ATTRIBUTES = frozenset({"material", "state", "title", "brand", "text", "activity"})


class LookupPlanner:
    """Deterministic table-driven backend."""

    def classify_attribute(self, attribute: str, object_label: str) -> PerceptionRange:
        return REMOTE if attribute.strip().lower() in REMOTE_ATTRIBUTES else CLOSE_RANGE

    def simplify_question(self, question: str, chain: PatternChain, k: int, slots: dict[str, str]) -> str:
        obj = slots.get("object") or next((s.label for s in reversed(chain.steps) if s.label), "object")
        if chain.target_kind is ATTRIBUTE_TARGET:
            attr = slots.get("attribute") or chain.steps[-1].queried_attribute or "value"
            return f"What is the {attr} of the {obj}?"
        if chain.target_kind is EXISTENCE_TARGET:
            return f"Is there a {obj}?"
        if chain.target_kind is COUNT_TARGET:
            return f"How many of the {obj} are there?"
        if chain.target_kind is OBJECT_TARGET:
            rel = slots.get("relation") or "near"
            ref = slots.get("support") or slots.get("object") or "object"
            return f"What is {rel} the {ref}?"
        return f"Which room contains the {obj}?"

    def fallback_plan(self, graph: SceneGraph, pose: Any, explored: frozenset[str], question: str = "") -> Plan:
        sibling = _nearest_unexplored_sibling(graph, pose, explored)
        if sibling is not None:
            return move_plan(sibling, tool="fallback")
        return Plan(kind=ANSWER, value="not found", tool="fallback")


def _nearest_unexplored_sibling(
    graph: SceneGraph, pose: Any, explored: frozenset[str]
) -> SceneNode | None:
    """Unexplored sibling of the anchor, then of its parent, nearest first.

    A floor's or a room's child ids are read in their memoized order
    (``SceneGraph.child_ids_nearest_first``), a node only for the sibling
    returned. A big object's are sorted on each call: they grow as an
    episode adopts small objects.
    """
    anchor_id = pose.anchor_id
    if anchor_id not in graph or (parent := graph.parent(anchor_id)) is None:
        return None
    here, probe = graph.position_of(anchor_id), anchor_id
    while parent is not None:
        if parent.layer is BIG_OBJECT:
            siblings = [n.id for n in graph.nearest_first(graph.children(parent.id), here)]
        else:
            siblings = graph.child_ids_nearest_first(parent.id, here)
        for sid in siblings:
            if sid != probe and sid not in explored:
                return graph.node(sid)
        probe = parent.id
        parent = graph.parent(probe)
    return None


class ChatPlanner:
    """Chat-model backend; each reply is validated and asked again when bad."""

    def __init__(self, client: ChatClient) -> None:
        self.client = client

    def classify_attribute(self, attribute: str, object_label: str) -> PerceptionRange:
        user = f"attribute: {attribute}\nobject: {object_label}"
        return ask(self.client, "classify_attribute", user, _perception_range)

    def simplify_question(self, question: str, chain: PatternChain, k: int, slots: dict[str, str]) -> str:
        user = f"question: {question}\nchain: {render(chain)}\nstep: {k}"
        return ask(self.client, "simplify_question", user, _simplified)

    def fallback_plan(self, graph: SceneGraph, pose: Any, explored: frozenset[str], question: str = "") -> Plan:
        anchor = graph.get(pose.anchor_id)
        siblings = []
        if anchor is not None:
            parent = graph.parent(anchor.id)
            if parent is not None:
                siblings = [
                    {"id": s.id, "label": s.label, "explored": s.id in explored}
                    for s in graph.children(parent.id)
                    if s.id != anchor.id
                ]
        user = json.dumps(
            {"question": question, "anchor": anchor.label if anchor else None, "siblings": siblings}, sort_keys=True
        )
        return ask(self.client, "fallback_plan", user, lambda text: self._parse_plan(text, graph))

    def _parse_plan(self, text: str, graph: SceneGraph) -> Plan:
        data = json.loads(strip_fences(text))
        if not isinstance(data, dict):
            raise SchemaError(f"plan must be a JSON object, not {type(data).__name__}")
        kind = data.get("kind")
        if kind == "MoveTo":
            goal = data.get("goal")
            if not isinstance(goal, str) or not goal:
                raise SchemaError("MoveTo plan needs a goal string")
            if goal in graph:
                return move_plan(graph.node(goal), tool="fallback")
            return Plan(kind=MOVE_TO, goal_label=goal, tool="fallback")
        if kind == "Observe":
            content = data.get("content")
            if not isinstance(content, str) or not content:
                raise SchemaError("Observe plan needs content")
            return Plan(kind=OBSERVE, content=content, tool="fallback")
        if kind == "Answer":
            value = data.get("value")
            if not isinstance(value, str) or not value:
                raise SchemaError("Answer plan needs a value")
            return Plan(kind=ANSWER, value=value, tool="fallback")
        raise SchemaError(f"unknown plan kind {kind!r}")


def _perception_range(text: str) -> PerceptionRange:
    verdict = text.strip().lower()
    if "remote" in verdict and "close" not in verdict:
        return REMOTE
    if "close" in verdict:
        return CLOSE_RANGE
    raise SchemaError(f"unusable perception verdict: {text!r}")


def _simplified(text: str) -> str:
    text = text.strip()
    if not text:
        raise SchemaError("empty simplified question")
    return text
