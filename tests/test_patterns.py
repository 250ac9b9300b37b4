"""Chain grammar: parse, render, validation, and kind inference."""

from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from stepqa.patterns import (
    PatternChain,
    PatternStructureError,
    PatternSyntaxError,
    SubGoal,
    TargetKind,
    make_chain,
    parse_pattern_string,
    render,
    shape,
)
from stepqa.scene_graph import Layer


GOOD = [
    ("V2[living room] -> V3[table] -> V4(A)[book] -> A[title]", TargetKind.ATTRIBUTE),
    ("V2[living room] -> V3[sofa] -> A[color]", TargetKind.ATTRIBUTE),
    ("V2[kitchen] -> V3[dining table] -> V4[cup]", TargetKind.OBJECT),
    ("V2[bedroom] -> V3[bed]", TargetKind.OBJECT),
    ("V3[bed] -> V2[?]", TargetKind.ROOM),
    ("V4[bag] -> V3[bed] -> V2[?]", TargetKind.ROOM),
    ("count: V2[kitchen] -> V3[dining table] -> V4[cup]", TargetKind.COUNT),
    ("exists: V2[bedroom] -> V3[bed] -> V4[bag]", TargetKind.EXISTENCE),
    ("V2[living room] -> V3[sofa] -> V4(A)[cushion]{color=white} -> A[state]", TargetKind.ATTRIBUTE),
]


@pytest.mark.parametrize("text,kind", GOOD)
def test_parse_and_kind(text, kind):
    chain = parse_pattern_string(text)
    assert chain.target_kind is kind


@pytest.mark.parametrize("text,kind", GOOD)
def test_render_round_trips(text, kind):
    chain = parse_pattern_string(text)
    assert parse_pattern_string(render(chain)) == chain


def test_render_without_slots_gives_bare_shape():
    chain = parse_pattern_string(GOOD[0][0])
    assert shape(chain) == "V2 -> V3 -> V4(A) -> A"


def test_constraint_survives_round_trip():
    chain = parse_pattern_string("V2[a] -> V3[sofa] -> V4(A)[cushion]{color=white} -> A[state]")
    step = chain.steps[2]
    assert step.attribute_constraint == ("color", "white")
    assert step.attribute_marked
    assert "{color=white}" in render(chain)


def test_a_step_derives_its_marks_and_stays_a_frozen_value():
    marked = SubGoal(Layer.SMALL_OBJECT, "cup", ("color", "red"))
    assert marked.attribute_marked and not marked.attribute_step
    assert SubGoal(Layer.SMALL_OBJECT, queried_attribute="color").attribute_step
    spelled = SubGoal(
        layer=Layer.SMALL_OBJECT, label="cup", attribute_constraint=("color", "red"), attribute_marked=True
    )
    assert marked == spelled and hash(marked) == hash(spelled)
    assert replace(marked, label="mug") == SubGoal(Layer.SMALL_OBJECT, "mug", ("color", "red"))
    with pytest.raises(FrozenInstanceError):
        marked.label = "mug"
    chain = make_chain([SubGoal(Layer.ROOM, "kitchen"), marked])
    assert chain == PatternChain(chain.steps, TargetKind.OBJECT)


def test_target_is_last_step():
    chain = parse_pattern_string("V3[bed] -> V2[?]")
    assert chain.steps[-1].layer is Layer.ROOM


def test_whitespace_is_forgiven():
    a = parse_pattern_string("V2[kitchen]->V3[dining table]->V4[cup]")
    b = parse_pattern_string("  V2[kitchen]  ->  V3[dining table] ->V4[cup] ")
    assert a == b


def test_attribute_step_inherits_preceding_layer():
    chain = parse_pattern_string("V2[x] -> V3[sofa] -> A[color]")
    assert chain.steps[-1].layer is Layer.BIG_OBJECT
    assert chain.steps[-1].queried_attribute == "color"
    deep = parse_pattern_string("V2[x] -> V3[t] -> V4(A)[book] -> A[title]")
    assert deep.steps[-1].layer is Layer.SMALL_OBJECT


class TestSyntaxErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "V5[x]",
            "B3[x]",
            "V2[a] -> ",
            "V2[a] ->  -> V3[b]",
            "V2[a] -> V3[b] -> A(A)[color]",
            "V2[a] -> V3[b]{color}",
            "weird: V2[a]",
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(PatternSyntaxError):
            parse_pattern_string(text)

    def test_position_points_at_the_bad_segment(self):
        # offsets mark the start of the raw segment following the arrow
        with pytest.raises(PatternSyntaxError) as err:
            parse_pattern_string("V2[a] -> V9[b]")
        assert err.value.position == 8
        assert "V9[b]" in str(err.value)


class TestStructureErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "A[title]",
            "V2[a] -> A[color] -> V3[b]",
            "V2[a] -> V3[t] -> V2[b] -> V3[u]",  # wanders back up mid-chain
            "V1[f]{color=red} -> V2[a]",  # constraints only sit on objects
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(PatternStructureError):
            parse_pattern_string(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("V3[a] -> V2[b] -> V1[c]", "descending chain cannot step upward from V3 to V2"),
            ("V1[f]{color=red} -> V2[a]{color=blue}", "attribute constraint not allowed on a V1 step"),
            ("V3[t]{c=d} -> V2[a]{c=d}", "attribute constraint not allowed on a V2 step"),
            ("V2[a] -> A[color] -> V1[f]{c=d}", "attribute step only allowed in final position, found at step 1"),
        ],
    )
    def test_the_first_broken_rule_is_named(self, text, message):
        with pytest.raises(PatternStructureError) as err:
            parse_pattern_string(text)
        assert str(err.value) == message

    def test_room_kind_needs_an_upward_chain(self):
        with pytest.raises(PatternStructureError):
            make_chain([SubGoal(layer=Layer.BIG_OBJECT, label="bed")], TargetKind.ROOM)
        with pytest.raises(PatternStructureError):
            make_chain(
                [SubGoal(layer=Layer.ROOM, label="a"), SubGoal(layer=Layer.ROOM)],
                TargetKind.ROOM,
            )

    def test_layer_skips_downward_are_legal(self):
        # a missing support layer means "sweep": the planner fills the gap
        chain = parse_pattern_string("count: V2[kitchen] -> V4[cup]")
        assert [s.layer for s in chain.steps] == [Layer.ROOM, Layer.SMALL_OBJECT]

    def test_same_layer_neighbors_are_legal(self):
        # relational targets sit beside their reference on the same layer
        chain = parse_pattern_string("V2[a] -> V3[sofa] -> V3[?]")
        assert chain.target_kind is TargetKind.OBJECT

    def test_make_chain_validates_too(self):
        with pytest.raises(PatternStructureError):
            make_chain([SubGoal(layer=Layer.ROOM, queried_attribute="x", attribute_step=True)])


_LABELS = st.sampled_from(
    ["book", "coffee table", "sofa", "red mug", "floor lamp", "tv stand", "mug 2"]
)
_ATTRS = st.sampled_from(["color", "state", "title", "brand", "material", "activity"])


@st.composite
def chains(draw) -> PatternChain:
    """Random well-formed chains: a descent, then maybe an attribute read."""
    start = draw(st.sampled_from([Layer.ROOM, Layer.BIG_OBJECT]))
    depth = draw(st.integers(min_value=0, max_value=Layer.SMALL_OBJECT - start))
    steps = []
    for i in range(depth + 1):
        layer = Layer(start + i)
        constraint = None
        if layer is Layer.SMALL_OBJECT and draw(st.booleans()):
            constraint = (draw(_ATTRS), draw(st.sampled_from(["red", "open", "full"])))
        steps.append(SubGoal(layer=layer, label=draw(_LABELS), attribute_constraint=constraint))
    kind = TargetKind.OBJECT
    if draw(st.booleans()):
        last = steps[-1].layer
        if last in (Layer.BIG_OBJECT, Layer.SMALL_OBJECT):
            steps[-1] = SubGoal(
                layer=last,
                label=steps[-1].label,
                attribute_constraint=steps[-1].attribute_constraint,
                attribute_marked=True,
            )
            steps.append(SubGoal(layer=last, queried_attribute=draw(_ATTRS), attribute_step=True))
            kind = TargetKind.ATTRIBUTE
    elif steps[-1].layer is Layer.SMALL_OBJECT:
        kind = draw(st.sampled_from([TargetKind.OBJECT, TargetKind.COUNT, TargetKind.EXISTENCE]))
    return make_chain(steps, kind)


@given(chains())
def test_grammar_round_trip_property(chain):
    assert parse_pattern_string(render(chain)) == chain
