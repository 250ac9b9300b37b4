"""Question parsing: templates, gold patterns, and the chat fallback."""

import json
import pathlib

import pytest

from stepqa import parsing, prompts
from stepqa.dataset import generate_dataset
from stepqa.environment import load_world_truth
from stepqa.llm_client import ChatClient, ChatMessage, ChatRequest, ReplayTransport, SchemaError
from stepqa.parsing import (
    GoldBackend,
    LlmBackend,
    ParseSource,
    TemplateBackend,
    UnparsedQuestionError,
    parse_question,
)
from stepqa.patterns import TargetKind, render
from stepqa.scene_graph import Layer, normalize_label
from stepqa.worldgen import random_world

from conftest import WORLDS


@pytest.fixture()
def backend(demo_truth):
    return TemplateBackend(demo_truth.prior_graph())


def rendered(backend, question):
    pq = backend.parse(question)
    assert pq is not None, question
    return render(pq.chain)


class TestTemplateSkeletons:
    @pytest.mark.parametrize(
        "question,pattern",
        [
            (
                "What is the title of the book on the coffee table in the living room?",
                "V2[living room] -> V3[coffee table] -> V4(A)[book] -> A[title]",
            ),
            (
                "What color is the sofa in the living room?",
                "V2[living room] -> V3(A)[sofa] -> A[color]",
            ),
            ("Which room is the phone in?", "V4[phone] -> V2"),
            ("Where is the bag?", "V4[bag] -> V2"),
            ("What room is the sofa located in?", "V3[sofa] -> V2"),
            (
                "What is the person on the sofa doing?",
                "V3[sofa] -> V4(A)[person] -> A[activity]",
            ),
            (
                "Is the person on the sofa asleep?",
                "exists: V3[sofa] -> V4(A)[person]{state=asleep}",
            ),
            ("Is there a bottle in the refrigerator?", "exists: V3[refrigerator] -> V4[bottle]"),
            (
                "How many cups are on the dining table in the kitchen?",
                "count: V2[kitchen] -> V3[dining table] -> V4[cup]",
            ),
            (
                "What is on top of the coffee table in the living room?",
                "V2[living room] -> V3[coffee table] -> V4",
            ),
            (
                "What is next to the bed in the bedroom?",
                "V2[bedroom] -> V3[bed] -> V3",
            ),
        ],
    )
    def test_question_to_pattern(self, backend, question, pattern):
        assert rendered(backend, question) == pattern

    def test_slots_carry_the_surface_fillers(self, backend):
        pq = backend.parse(
            "What is the title of the book on the coffee table in the living room?"
        )
        assert pq.slots == {
            "support": "coffee table",
            "room": "living room",
            "object": "book",
            "attribute": "title",
        }
        assert pq.source is ParseSource.TEMPLATE

    def test_count_questions_singularize_the_counted_noun(self, backend):
        pq = backend.parse("How many cushions are on the sofa in the living room?")
        assert pq.chain.steps[-1].label == "cushion"
        assert pq.chain.target_kind is TargetKind.COUNT

    def test_garment_phrase_becomes_a_constraint(self, backend):
        pq = backend.parse(
            "What is the brand of the phone held by the person wearing a black shirt?"
        )
        person = pq.chain.steps[0]
        assert person.label == "person"
        assert person.attribute_constraint == ("shirt", "black")
        assert pq.chain.steps[1].label == "phone"

    def test_the_first_garment_is_the_constraint(self, backend):
        pq = backend.parse("Where is the person in a red hat wearing a black shirt?")
        assert pq.chain.steps[0].attribute_constraint == ("hat", "red")

    def test_leading_adjective_becomes_a_constraint(self, backend):
        pq = backend.parse("Where is the red book?")
        assert pq.chain.steps[0].attribute_constraint == ("color", "red")
        assert pq.chain.steps[0].label == "book"

    def test_yes_no_value_question(self, backend):
        pq = backend.parse("Is the bottle in the refrigerator full?")
        assert pq.chain.target_kind is TargetKind.EXISTENCE
        target = pq.chain.steps[-1]
        assert target.attribute_constraint == ("state", "full")
        assert pq.slots["value"] == "full"


class TestLayerAssignment:
    def test_known_vocab_wins(self, backend):
        pq = backend.parse("Where is the cup?")
        assert pq.chain.steps[0].layer is Layer.SMALL_OBJECT

    def test_graph_labels_fill_vocab_gaps(self, demo_truth):
        # wardrobe is in the demo furniture, not in the core vocab lists
        pq = TemplateBackend(demo_truth.prior_graph()).parse("Where is the wardrobe?")
        assert pq.chain.steps[0].layer is Layer.BIG_OBJECT

    def test_a_room_in_the_graph_wins_over_the_vocabulary(self, demo_path):
        data = json.loads(demo_path.read_text())
        data["floors"][0]["rooms"][0]["label"] = "closet"
        pq = TemplateBackend(load_world_truth(data).prior_graph()).parse("What color is the book in the closet?")
        assert render(pq.chain) == "V2[closet] -> V4(A)[book] -> A[color]"
        assert pq.slots["room"] == "closet"
        assert rendered(TemplateBackend(None), "What color is the book in the closet?") == (
            "V3[closet] -> V4(A)[book] -> A[color]"
        )

    def test_unknown_label_guesses_small_with_a_big_alternative(self, backend):
        pq = backend.parse("What color is the doohickey in the kitchen?")
        assert render(pq.chain) == "V2[kitchen] -> V4(A)[doohickey] -> A[color]"
        assert [render(a) for a in pq.chain.alternatives] == [
            "V2[kitchen] -> V3(A)[doohickey] -> A[color]"
        ]

    def test_attribute_mark_lands_on_the_alternative_too(self, backend):
        pq = backend.parse("What color is the doohickey in the kitchen?")
        alt = pq.chain.alternatives[0]
        assert alt.steps[-2].attribute_marked
        assert alt.steps[-1].queried_attribute == "color"


    def test_precomputed_vocabularies_track_the_label_lists(self):
        for vocab, labels in (
            (parsing._ROOMS, parsing.ROOM_LABELS),
            (parsing._BIG_OBJECTS, parsing.BIG_OBJECT_LABELS),
            (parsing._SMALL_OBJECTS, parsing.SMALL_OBJECT_LABELS),
        ):
            assert isinstance(vocab, frozenset)
            assert vocab == {normalize_label(x) for x in labels}
        assert parsing._ALL_KNOWN == parsing._ROOMS | parsing._BIG_OBJECTS | parsing._SMALL_OBJECTS


class TestBackendOrchestration:
    def test_first_hit_wins(self, backend):
        gold = GoldBackend("V2[study] -> V3[bookshelf]")
        pq = parse_question("Where is the bag?", [backend, gold])
        assert pq.source is ParseSource.TEMPLATE

    def test_falls_through_to_the_next_backend(self, backend):
        gold = GoldBackend("V2[study] -> V3[bookshelf]")
        pq = parse_question("Ponder the meaning of furniture.", [backend, gold])
        assert pq.source is ParseSource.GOLD
        assert render(pq.chain) == "V2[study] -> V3[bookshelf]"

    def test_a_blank_question_is_unparsed(self, backend):
        with pytest.raises(UnparsedQuestionError) as err:
            parse_question("   ", [backend])
        assert err.value.question == "   "

    @pytest.mark.parametrize("question", ["How many    are in the kitchen?", "Is there a    on the table?"])
    def test_a_blank_counted_noun_is_unparsed(self, backend, question):
        assert backend.parse(question) is None
        with pytest.raises(UnparsedQuestionError):
            parse_question(question, [backend])

    def test_no_backend_hit_raises_with_the_question(self, backend):
        with pytest.raises(UnparsedQuestionError) as err:
            parse_question("Ponder the meaning of furniture.", [backend])
        assert err.value.question == "Ponder the meaning of furniture."


class TestGoldBackend:
    def test_replays_the_recorded_pattern(self):
        gb = GoldBackend("count: V2[kitchen] -> V3[dining table] -> V4[cup]", {"room": "kitchen"})
        pq = gb.parse("whatever was asked")
        assert pq.source is ParseSource.GOLD
        assert pq.chain.target_kind is TargetKind.COUNT
        assert pq.slots == {"room": "kitchen"}


def llm_backend_answering(question, *replies):
    system = prompts.load("extract_pattern")
    transport = ReplayTransport()
    transport.add(
        ChatRequest(
            model="test",
            messages=(ChatMessage("system", system), ChatMessage("user", question)),
        ),
        replies[0],
    )
    client = ChatClient(transport, model="test")
    if len(replies) > 1:
        # rotate through scripted replies instead of a digest lookup
        seq = iter(replies)

        class Scripted:
            model = "test"

            def complete_text(self, system, user):
                return next(seq)

        client = Scripted()
    return LlmBackend(client)


class TestLlmBackend:
    QUESTION = "Could you tell me where the reading material on the low table is?"

    def test_valid_reply_parses(self):
        reply = json.dumps(
            {
                "pattern": "V2[living room] -> V3[coffee table] -> V4[book]",
                "slots": {"object": "book"},
            }
        )
        pq = llm_backend_answering(self.QUESTION, reply).parse(self.QUESTION)
        assert pq.source is ParseSource.LLM
        assert render(pq.chain) == "V2[living room] -> V3[coffee table] -> V4[book]"
        assert pq.slots == {"object": "book"}

    def test_fenced_reply_parses(self):
        reply = '```json\n{"pattern": "V3[bed] -> V2"}\n```'
        pq = llm_backend_answering(self.QUESTION, reply).parse(self.QUESTION)
        assert pq.chain.target_kind is TargetKind.ROOM

    def test_bad_replies_retry_then_give_way(self):
        backend = llm_backend_answering(
            self.QUESTION,
            "not json",
            json.dumps({"no_pattern": True}),
            json.dumps({"pattern": "V9[nope]"}),
        )
        with pytest.raises(SchemaError):
            backend.parse(self.QUESTION)

    def test_a_model_that_never_validates_falls_through_to_the_next_backend(self):
        question = "What color is the sofa in the living room?"
        junk = llm_backend_answering(question, "not json")
        pq = parse_question(question, [junk, TemplateBackend(None)])
        assert pq.source is ParseSource.TEMPLATE
        assert render(pq.chain) == rendered(TemplateBackend(None), question)
        with pytest.raises(UnparsedQuestionError):
            parse_question(question, [junk])

    def test_an_unparsed_question_keeps_the_backends_error(self):
        question = "What color is the sofa in the living room?"
        junk = llm_backend_answering(question, "not json")
        with pytest.raises(UnparsedQuestionError) as err:
            parse_question(question, [junk])
        assert isinstance(err.value.__cause__, SchemaError)
        assert "extract pattern" in str(err.value.__cause__)
        pq = parse_question(question, [junk, TemplateBackend(None)])
        assert pq.source is ParseSource.TEMPLATE

    def test_recovers_on_a_later_try(self):
        backend = llm_backend_answering(
            self.QUESTION,
            "garbage",
            json.dumps({"pattern": "V4[book] -> V2"}),
        )
        pq = backend.parse(self.QUESTION)
        assert pq.chain.target_kind is TargetKind.ROOM

    @pytest.mark.parametrize(
        "slots,message",
        [
            ({"object": None, "room": False}, "slot 'object' must be a string or a number, not null"),
            ({"object": "book", "room": False}, "slot 'room' must be a string or a number, not bool"),
            ({"object": ["book"]}, "slot 'object' must be a string or a number, not list"),
            ({"object": {"label": "book"}}, "slot 'object' must be a string or a number, not dict"),
        ],
    )
    def test_a_slot_that_is_not_text_is_rejected_by_name_and_asked_again(self, slots, message):
        bad = json.dumps({"pattern": "V4[book] -> V2", "slots": slots})
        with pytest.raises(ValueError) as err:
            llm_backend_answering(self.QUESTION, bad)._validated(bad)
        assert str(err.value) == message
        with pytest.raises(SchemaError):
            llm_backend_answering(self.QUESTION, bad, bad, bad).parse(self.QUESTION)
        good = json.dumps({"pattern": "V4[book] -> V2", "slots": {"object": "book"}})
        pq = llm_backend_answering(self.QUESTION, bad, good).parse(self.QUESTION)
        assert pq.slots == {"object": "book"}

    def test_slot_numbers_are_read_as_text(self):
        reply = json.dumps({"pattern": "V4[book] -> V2", "slots": {"count": 3, "ratio": 0.5}})
        pq = llm_backend_answering(self.QUESTION, reply).parse(self.QUESTION)
        assert pq.slots == {"count": "3", "ratio": "0.5"}


# -- golden parses ------------------------------------------------------------

GOLDEN_PARSES = pathlib.Path(__file__).resolve().parent / "golden" / "parse_template.jsonl"

# At least one question per template skeleton, in skeleton order, plus heads
# that name a room (these must not parse), unknown target labels (attribute
# chains get a big-object alternative), irregular plurals, scopes that cannot
# form a descending chain, and a few misses.
HAND_QUESTIONS = (
    "Which room is the phone in?",
    "What room is the sofa located in?",
    "Which room is the book on the desk in the study in?",
    "Which room is the kitchen in?",
    "Where is the bag?",
    "Where is the red book located?",
    "Where is the person wearing a black shirt?",
    "Where is the wardrobe?",
    "Where is the doohickey?",
    "Where is the living room?",
    "What is on the coffee table in the living room?",
    "What is on top of the coffee table in the living room?",
    "What is next to the bed in the bedroom?",
    "What is next to the teapot?",
    "What is under the bed?",
    "What is beside the sofa?",
    "What is above the doohickey?",
    "What is on the kitchen?",
    "What is the title of the book on the coffee table in the living room?",
    "What is the brand of the phone held by the person wearing a black shirt?",
    "What is the color of the doohickey in the kitchen?",
    "What is the material of the gizmo on the sofa?",
    "What is the color of the bedroom?",
    "What is the person on the sofa doing?",
    "What is the cat doing?",
    "What is the kitchen doing?",
    "What color is the sofa in the living room?",
    "What color is the doohickey in the kitchen?",
    "What state is the lamp on the desk?",
    "What color is the study?",
    "How many cups are on the dining table in the kitchen?",
    "How many people are in the living room?",
    "How many knives are on the counter?",
    "How many glasses are there on the table?",
    "How many red cushions are on the sofa?",
    "How many chairs are in the dining room?",
    "How many widgets are in the kitchen?",
    "Is there a bottle in the refrigerator?",
    "Is there a lens on the desk?",
    "Is there an apple next to the teapot?",
    "Is there a cup under the bed in the bedroom?",
    "Is there a doohickey in the garage?",
    "Is the person on the sofa asleep?",
    "Is the bottle in the refrigerator full?",
    "Is the doohickey open?",
    "Is the kitchen clean?",
    "Is the book shiny?",
    "What is on the sofa in the cup?",
    "What color is the doohickey on the cup?",
    "How many sofas are in the cup?",
    "Is the sofa on the cup red?",
    "What is in the kitchen?",
    "Ponder the meaning of furniture.",
)


def _parse_record(backend, graph_name, question):
    pq = backend.parse(question)
    parsed = None
    if pq is not None:
        parsed = {
            "kind": pq.chain.target_kind.value,
            "pattern": render(pq.chain),
            "alternatives": [render(a) for a in pq.chain.alternatives],
            "slots": sorted(pq.slots.items()),
        }
    return json.dumps({"graph": graph_name, "question": question, "parsed": parsed}, sort_keys=True)


def golden_parse_lines():
    """Every golden line: the hand questions against no graph and the demo
    prior, then the pinned dataset's questions for world seeds 1 to 5
    against no graph and their own world's prior."""
    demo = load_world_truth(WORLDS / "demo_house.json")
    lines = []
    for name, graph in (("none", None), ("demo_house", demo.prior_graph())):
        backend = TemplateBackend(graph)
        lines.extend(_parse_record(backend, name, q) for q in HAND_QUESTIONS)
    worlds = {w.world_id: w for w in (random_world(seed) for seed in range(1, 6))}
    for record in generate_dataset(worlds.values(), per_world=40, seed=3):
        world = worlds[record.world_id]
        lines.append(_parse_record(TemplateBackend(None), "none", record.question))
        lines.append(
            _parse_record(TemplateBackend(world.prior_graph()), world.world_id, record.question)
        )
    return lines


class TestGoldenParses:
    def test_template_parses_match_the_golden_file(self):
        expected = GOLDEN_PARSES.read_text(encoding="utf-8").splitlines()
        assert golden_parse_lines() == expected

    def test_golden_file_covers_the_cases_it_pins(self):
        lines = GOLDEN_PARSES.read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        parsed = [r["parsed"] for r in records if r["parsed"] is not None]
        assert {p["kind"] for p in parsed} == {k.value for k in TargetKind}
        assert any(p["alternatives"] for p in parsed)
        by_question = {(r["graph"], r["question"]): r["parsed"] for r in records}
        for graph in ("none", "demo_house"):
            assert by_question[(graph, "Where is the living room?")] is None
            assert by_question[(graph, "How many knives are on the counter?")]["pattern"].endswith(
                "V4[knife]"
            )
            assert by_question[(graph, "Is there a lens on the desk?")]["pattern"].endswith(
                "V4[lens]"
            )
        assert len({r["graph"] for r in records}) == 7
