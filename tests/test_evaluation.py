"""Grading and benchmark aggregation."""

import itertools
import json
import random

import pytest

from stepqa import prompts, rules
from stepqa.agent import AgentConfig
from stepqa.dataset import QARecord, generate_dataset
from stepqa.environment import load_world_truth
from stepqa.evaluation import (
    ChatJudge,
    MockJudge,
    format_report,
    judge_normalize,
    llm_match,
    run_benchmark,
    save_report,
)
from stepqa.llm_client import ChatClient, ChatMessage, ChatRequest, ReplayTransport, SchemaError
from stepqa.scene_graph import Layer
from stepqa.worldgen import random_world

from conftest import multi_floor_data


class TestJudgeNormalize:
    def test_folds_case_and_spacing_only(self):
        assert judge_normalize("  War  And Peace ") == "war and peace"
        # articles are part of the answer as far as the judge is concerned
        assert judge_normalize("the red book") == "the red book"


class TestMockJudge:
    @pytest.fixture()
    def judge(self):
        return MockJudge()

    @pytest.mark.parametrize(
        "gold,answer,rung",
        [
            ("war and peace", "war and peace", 5),
            ("war and peace", "War And  Peace", 5),
            ("red book", "the red book", 3),  # candidate adds tokens
            ("book, potted plant", "potted plant", 3),  # clean tokens subset the gold
            ("book, potted plant", "potted plant, book", 1),  # "plant," is not "plant"
            ("open door", "door open", 3),  # rung 5 is exact text, not set equality
            ("red", "blue", 1),
            ("something", "", 1),
            ("", "something", 1),
        ],
    )
    def test_ladder(self, judge, gold, answer, rung):
        assert judge.score("q", gold, answer) == rung

    def test_subset_works_in_both_directions(self, judge):
        assert judge.score("q", "large red book", "red book") == 3
        assert judge.score("q", "red book", "large red book") == 3


class TestLlmMatch:
    def test_the_three_rungs(self):
        assert llm_match([5]) == 100.0
        assert llm_match([3]) == 50.0
        assert llm_match([1]) == 0.0

    def test_mixed_vector_is_exact(self):
        assert llm_match([1, 3, 5]) == 50.0
        assert llm_match([5, 5, 1, 1]) == 50.0
        assert llm_match([5, 3, 3, 5]) == 75.0

    def test_order_never_matters(self):
        rng = random.Random(13)
        for _ in range(1000):
            scores = [rng.choice((1, 3, 5)) for _ in range(rng.randint(1, 12))]
            shuffled = scores[:]
            rng.shuffle(shuffled)
            assert llm_match(scores) == llm_match(shuffled)

    def test_all_permutations_of_a_small_vector(self):
        for perm in itertools.permutations([1, 1, 3, 5, 5]):
            assert llm_match(perm) == llm_match([1, 1, 3, 5, 5])

    def test_invalid_rungs_rejected(self):
        with pytest.raises(ValueError):
            llm_match([2])
        with pytest.raises(ValueError, match="zero scores"):
            llm_match([])


class TestChatJudge:
    def canned(self, user_text, reply):
        system = prompts.load("judge")
        transport = ReplayTransport()
        transport.add(
            ChatRequest(
                model="test",
                messages=(ChatMessage("system", system), ChatMessage("user", user_text)),
            ),
            reply,
        )
        return ChatJudge(ChatClient(transport, model="test"))

    def test_reads_the_rung_digit(self):
        user = "Question: q\nReference answer: blue\nCandidate answer: blue"
        judge = self.canned(user, "5")
        assert judge.score("q", "blue", "blue") == 5

    def test_digit_embedded_in_prose_is_found(self):
        user = "Question: q\nReference answer: blue\nCandidate answer: navy"
        judge = self.canned(user, "I would say 3 here.")
        assert judge.score("q", "blue", "navy") == 3

    def test_junk_replies_exhaust_retries(self):
        class Chatterbox:
            model = "test"
            calls = 0

            def complete_text(self, system, user):
                Chatterbox.calls += 1
                return "a seven, maybe an eight"

        judge = ChatJudge(Chatterbox())
        with pytest.raises(SchemaError):
            judge.score("q", "blue", "red")
        assert Chatterbox.calls == 3


@pytest.fixture(scope="module")
def bench_setup():
    worlds = {f"gen-{i}": random_world(i) for i in range(2)}
    records = generate_dataset(list(worlds.values()), per_world=10, seed=3)
    return worlds, records


class TestRunBenchmark:
    def test_report_structure(self, bench_setup):
        worlds, records = bench_setup
        report = run_benchmark(records, worlds, config=AgentConfig())
        overall = report["overall"]
        assert overall["n"] == len(records)
        assert set(overall) == {"n", "score", "mean_steps", "answered", "not_found", "failed"}
        assert set(report["categories"]) == {r.category for r in records}
        assert sum(b["n"] for b in report["categories"].values()) == overall["n"]

    def test_rows_sorted_by_record_id(self, bench_setup):
        worlds, records = bench_setup
        report = run_benchmark(records, worlds)
        ids = [r["id"] for r in report["rows"]]
        assert ids == sorted(ids)

    def test_missing_world_is_flagged_not_dropped(self, bench_setup):
        worlds, records = bench_setup
        orphan = QARecord(
            id="zz-orphan",
            world_id="gone",
            category="template",
            question="What color is the sofa in the living room?",
            gold_answer="blue",
            gold_pattern="V2[living room] -> V3(A)[sofa] -> A[color]",
            slots={},
        )
        report = run_benchmark(list(records) + [orphan], worlds)
        row = next(r for r in report["rows"] if r["id"] == "zz-orphan")
        assert row["status"] == "missing_world"
        assert row["score"] == 1
        assert report["overall"]["n"] == len(records) + 1
        assert report["overall"]["failed"] >= 1

    def test_a_blank_question_is_one_failed_row(self, bench_setup):
        worlds, records = bench_setup
        blank = QARecord(
            id="zz-blank",
            world_id=records[0].world_id,
            category="template",
            question="  ",
            gold_answer="blue",
            gold_pattern="V2[living room] -> V3(A)[sofa] -> A[color]",
            slots={},
        )
        report = run_benchmark(list(records) + [blank], worlds)
        rows = {r["id"]: r for r in report["rows"]}
        assert rows.pop("zz-blank")["status"] == "failed"
        assert list(rows.values()) == run_benchmark(records, worlds)["rows"]

    def test_parallel_report_is_identical(self, bench_setup):
        worlds, records = bench_setup
        serial = run_benchmark(records, worlds, parallel=1)
        threaded = run_benchmark(records, worlds, parallel=4)
        assert json.dumps(serial, sort_keys=True) == json.dumps(threaded, sort_keys=True)

    def test_format_report_mentions_the_blocks(self, bench_setup):
        worlds, records = bench_setup
        report = run_benchmark(records, worlds)
        text = format_report(report)
        assert text.startswith("overall")
        for category in report["categories"]:
            assert category in text

    def test_save_report_writes_sorted_json(self, bench_setup, tmp_path):
        worlds, records = bench_setup
        report = run_benchmark(records, worlds)
        p = tmp_path / "report.json"
        save_report(report, p)
        assert json.loads(p.read_text()) == json.loads(json.dumps(report))
        save_report(json.loads(p.read_text()), p)
        again = p.read_bytes()
        save_report(report, p)
        assert p.read_bytes() == again


def multi_floor_worlds():
    """Four generated worlds of two or three floors, freshly loaded, by id."""
    worlds = (load_world_truth(multi_floor_data(seed, floors)) for seed, floors in ((1, 2), (2, 3), (3, 3), (4, 2)))
    return {w.world_id: w for w in worlds}


class TestSweepHeavyReport:
    def test_record_order_and_workers_leave_the_report_unchanged(self, monkeypatch):
        worlds = multi_floor_worlds()
        records = generate_dataset(worlds.values(), per_world=40, seed=5)
        assert any(r.gold_pattern.startswith("V4") and r.gold_pattern.endswith("-> V2") for r in records)
        other_floors = []
        walk = rules._sweep_walk

        def recording_walk(scope, graph, pose, explored):
            plan = walk(scope, graph, pose, explored)
            if plan is not None and scope.layer is Layer.FLOOR and graph.floor_of(plan.goal_id).id != scope.id:
                other_floors.append(plan.goal_id)
            return plan

        monkeypatch.setattr(rules, "_sweep_walk", recording_walk)
        want = json.dumps(run_benchmark(records, worlds), sort_keys=True)
        assert other_floors  # a room query's sweep went on to another floor
        rng = random.Random(34)
        # warm memos and cold ones, serial and on four threads
        for registry, parallel in ((worlds, 1), (multi_floor_worlds(), 1), (worlds, 4), (multi_floor_worlds(), 4)):
            shuffled = rng.sample(records, len(records))
            assert json.dumps(run_benchmark(shuffled, registry, parallel=parallel), sort_keys=True) == want
