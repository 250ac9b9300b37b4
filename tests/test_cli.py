"""Command line entry points and their exit codes."""

import json

import pytest

from stepqa.cli import EX_ERROR, EX_NOT_FOUND, EX_OK, EX_USAGE, main

from conftest import WORLDS, prior_data

DEMO = str(WORLDS / "demo_house.json")


class TestAsk:
    def test_answered_question_exits_zero(self, capsys):
        code = main(
            ["ask", "What color is the sofa in the living room?", "--world", DEMO]
        )
        out = capsys.readouterr().out
        assert code == EX_OK
        assert "answer: blue" in out
        assert "status: answered" in out

    def test_timeline_shows_plans_and_tools(self, capsys):
        main(
            [
                "ask",
                "What is the title of the book on the coffee table in the living room?",
                "--world",
                DEMO,
            ]
        )
        out = capsys.readouterr().out
        assert "pattern: V2[living room] -> V3[coffee table] -> V4(A)[book] -> A[title]" in out
        assert "MoveTo living room" in out
        assert "[rules]" in out
        assert "answer: war and peace" in out

    def test_unanswerable_question_exits_two(self, capsys):
        code = main(["ask", "Where is the trombone?", "--world", DEMO])
        assert code == EX_NOT_FOUND
        assert "status: not_found" in capsys.readouterr().out

    def test_an_unknown_label_exits_two(self, capsys):
        code = main(["ask", "What is the color of the doohickey in the kitchen?", "--world", DEMO])
        assert code == EX_NOT_FOUND
        assert "status: not_found  steps: 6  plans: 7" in capsys.readouterr().out

    def test_unparseable_question_exits_one(self, capsys):
        code = main(["ask", "Ponder the meaning of furniture.", "--world", DEMO])
        assert code == EX_ERROR

    def test_a_blank_question_fails_its_episode(self, capsys):
        code = main(["ask", "  ", "--world", DEMO])
        assert code == EX_ERROR
        assert "status: failed" in capsys.readouterr().out

    def test_a_blank_counted_noun_fails_its_episode(self, capsys):
        code = main(["ask", "How many    are in the kitchen?", "--world", DEMO])
        assert code == EX_ERROR
        assert "status: failed" in capsys.readouterr().out

    def test_missing_world_file_exits_one(self, capsys):
        code = main(["ask", "Where is the bag?", "--world", "/nonexistent.json"])
        assert code == EX_ERROR
        assert "error:" in capsys.readouterr().err

    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["ask", "Which room is the bed in?", "--world", DEMO, "--trace", str(trace)]
        )
        assert code == EX_OK
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines[0]["kind"] == "header"
        assert lines[-1]["status"] == "answered"

    def test_room_level_only_flag(self, capsys):
        code = main(
            [
                "ask",
                "What is the title of the book on the coffee table in the living room?",
                "--world",
                DEMO,
                "--room-level-only",
            ]
        )
        assert code == EX_NOT_FOUND


class TestValidateWorld:
    def test_truth_file_passes(self, capsys):
        code = main(["validate-world", DEMO])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert "ok:" in out
        assert "4 rooms" in out

    def test_strict_prior_rejects_truth_files(self, capsys):
        code = main(["validate-world", DEMO, "--strict-prior"])
        assert code == EX_ERROR
        assert "invalid:" in capsys.readouterr().err

    def test_strict_prior_accepts_prior_files(self, tmp_path, capsys):
        p = tmp_path / "prior.json"
        p.write_text(json.dumps(prior_data(DEMO)))
        assert main(["validate-world", str(p), "--strict-prior"]) == EX_OK

    @pytest.mark.parametrize("flags", [[], ["--strict-prior"]])
    def test_the_world_is_named_by_its_id_not_its_file(self, tmp_path, capsys, flags):
        data = prior_data(DEMO)
        data["id"] = "house_prior"
        p = tmp_path / "some_other_name.json"
        p.write_text(json.dumps(data))
        assert main(["validate-world", str(p), *flags]) == EX_OK
        assert capsys.readouterr().out.startswith("ok: house_prior with 1 floors, 4 rooms")

    def test_a_duplicate_node_id_exits_one_without_a_traceback(self, tmp_path, capsys):
        data = json.loads((WORLDS / "demo_house.json").read_text())
        data["floors"][0]["rooms"][1]["big_objects"][0]["id"] = "f0.living.table"
        p = tmp_path / "duplicate.json"
        p.write_text(json.dumps(data))
        assert main(["validate-world", str(p)]) == EX_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"invalid: {p}: floors[0].rooms[1].big_objects[0]: duplicate node id: f0.living.table")
        assert "Traceback" not in err

    def test_a_string_occlusion_flag_exits_one_without_a_traceback(self, tmp_path, capsys):
        data = json.loads((WORLDS / "demo_house.json").read_text())
        data["floors"][0]["rooms"][0]["big_objects"][0]["small_objects"][0]["occluded_from_parent"] = "false"
        p = tmp_path / "occluded.json"
        p.write_text(json.dumps(data))
        assert main(["validate-world", str(p)]) == EX_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"invalid: {p}: floors[0].rooms[0].big_objects[0].small_objects[0]: occluded_from_parent")
        assert "Traceback" not in err

    def test_broken_json_exits_one(self, tmp_path, capsys):
        # both commands name the file once, for text that is not JSON, for JSON that is not an
        # object and for a field error
        for content, message in (
            ("{not json", "invalid JSON at line 1, column 2: Expecting property name enclosed in double quotes"),
            ("[1, 2]", "world file must be a JSON object"),
            ('{"id": "w"}', "world: missing field 'floors'"),
        ):
            p = tmp_path / "broken.json"
            p.write_text(content)
            assert main(["validate-world", str(p)]) == EX_ERROR
            assert capsys.readouterr().err == f"invalid: {p}: {message}\n"
            assert main(["ask", "Where is the phone?", "--world", str(p)]) == EX_ERROR
            assert capsys.readouterr().err == f"error: {p}: {message}\n"

    def test_an_undecodable_world_file_exits_one_without_a_traceback(self, tmp_path, capsys):
        p = tmp_path / "utf16.json"
        p.write_bytes(b"\xff\xfe" + (WORLDS / "demo_house.json").read_bytes())
        assert main(["validate-world", str(p)]) == EX_ERROR
        assert capsys.readouterr().err == f"invalid: {p}: not UTF-8 text at byte 0\n"
        assert main(["ask", "Where is the phone?", "--world", str(p)]) == EX_ERROR
        assert capsys.readouterr().err == f"error: {p}: not UTF-8 text at byte 0\n"


class TestUsageErrors:
    """Bad invocations exit through argparse with the usage code."""

    def usage_code(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        return err.value.code

    def test_unknown_subcommand(self, capsys):
        assert self.usage_code(["frobnicate"]) == EX_USAGE

    def test_missing_required_flag(self, capsys):
        assert self.usage_code(["ask", "Where is the bag?"]) == EX_USAGE

    def test_no_arguments_at_all(self, capsys):
        assert self.usage_code([]) == EX_USAGE

    def test_the_plan_budget_is_not_a_flag(self, capsys):
        assert self.usage_code(["ask", "Where is the bag?", "--world", DEMO, "--max-plans", "3"]) == EX_USAGE

    @pytest.mark.parametrize("value", ["0", "-1", "²"])
    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--worlds", ["gen-dataset", "--per-world", "5", "--out"]),
            ("--per-world", ["gen-dataset", "--worlds", "1", "--out"]),
            ("--parallel", ["bench", "--dataset", "qa.jsonl", "--worlds", DEMO, "--report"]),
        ],
    )
    def test_a_count_flag_must_be_positive(self, flag, argv, value, tmp_path, capsys):
        out = tmp_path / "qa.jsonl"
        assert self.usage_code([*argv, str(out), flag, value]) == EX_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a positive integer, not '{value}'" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestGenerateAndBench:
    def test_full_loop(self, tmp_path, capsys):
        dataset = tmp_path / "data.jsonl"
        worlds_dir = tmp_path / "worlds"
        report = tmp_path / "report.json"

        code = main(
            [
                "gen-dataset",
                "--out",
                str(dataset),
                "--worlds-dir",
                str(worlds_dir),
                "--worlds",
                "2",
                "--per-world",
                "10",
                "--seed",
                "3",
            ]
        )
        assert code == EX_OK
        assert "20 records" in capsys.readouterr().out
        assert len(list(worlds_dir.glob("*.json"))) == 2

        code = main(
            [
                "bench",
                "--dataset",
                str(dataset),
                "--worlds",
                str(worlds_dir),
                "--parallel",
                "2",
                "--report",
                str(report),
            ]
        )
        out = capsys.readouterr().out
        assert code == EX_OK
        assert out.startswith("overall")
        data = json.loads(report.read_text())
        assert data["overall"]["n"] == 20

    def test_bench_accepts_a_single_world_file(self, tmp_path, capsys):
        dataset = tmp_path / "data.jsonl"
        record = {
            "id": "demo_house-q000",
            "world_id": "demo_house",
            "category": "template",
            "question": "What color is the sofa in the living room?",
            "gold_answer": "blue",
            "gold_pattern": "V2[living room] -> V3(A)[sofa] -> A[color]",
            "slots": {},
        }
        dataset.write_text(json.dumps(record, sort_keys=True) + "\n")
        code = main(["bench", "--dataset", str(dataset), "--worlds", DEMO])
        out = capsys.readouterr().out
        assert code == EX_OK
        assert "score=100.0" in out

    def test_two_world_files_with_one_id_exit_one(self, tmp_path, capsys):
        worlds_dir = tmp_path / "worlds"
        worlds_dir.mkdir()
        text = (WORLDS / "demo_house.json").read_text()
        for name in ("a.json", "b.json"):
            (worlds_dir / name).write_text(text)
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("")
        code = main(["bench", "--dataset", str(dataset), "--worlds", str(worlds_dir)])
        assert code == EX_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: world id 'demo_house'")
        assert str(worlds_dir / "a.json") in err and str(worlds_dir / "b.json") in err

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"{bad", "invalid JSON at line 1, column 2: "),
            (b'{"id": "w", "entrance": "f0", "floors": []}', "world: floors must be a non-empty array"),
            (b"\xff\xfe{}", "not UTF-8 text at byte 0"),
        ],
    )
    def test_a_broken_world_file_in_a_directory_is_named_once(self, tmp_path, capsys, content, message):
        worlds_dir = tmp_path / "worlds"
        worlds_dir.mkdir()
        (worlds_dir / "demo_house.json").write_text((WORLDS / "demo_house.json").read_text())
        broken = worlds_dir / "zz.json"
        broken.write_bytes(content)
        dataset = tmp_path / "data.jsonl"
        dataset.write_text("")
        code = main(["bench", "--dataset", str(dataset), "--worlds", str(worlds_dir)])
        assert code == EX_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {broken}: {message}")
        assert err.count(str(broken)) == 1 and "Traceback" not in err

    def test_an_undecodable_dataset_line_exits_one(self, tmp_path, capsys):
        dataset = tmp_path / "data.jsonl"
        dataset.write_bytes(b"\n\xff\xfe\n")
        code = main(["bench", "--dataset", str(dataset), "--worlds", DEMO])
        assert code == EX_ERROR
        assert capsys.readouterr().err == f"error: {dataset}: line 2: not UTF-8 text\n"

    @pytest.mark.parametrize("line", ["[1, 2]", '{"id": "q", "slots": "none"}'])
    def test_a_malformed_dataset_line_exits_one(self, tmp_path, capsys, line):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text(line + "\n")
        code = main(["bench", "--dataset", str(dataset), "--worlds", DEMO])
        assert code == EX_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {dataset}: line 1:")


class TestUnwritableOutput:
    """An output path that cannot be written prints ``error: <path>:
    <reason>`` and exits one, without a traceback."""

    def expect_write_error(self, capsys, argv, path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EX_ERROR
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_ask_trace(self, tmp_path, capsys):
        trace = tmp_path / "missing" / "t.jsonl"
        argv = ["ask", "Which room is the bed in?", "--world", DEMO, "--trace", str(trace)]
        self.expect_write_error(capsys, argv, trace)

    def test_gen_dataset_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "qa.jsonl"
        argv = ["gen-dataset", "--out", str(out), "--worlds", "1", "--per-world", "2"]
        self.expect_write_error(capsys, argv, out)

    def test_gen_dataset_worlds_dir(self, tmp_path, capsys):
        a_file = tmp_path / "a_file"
        a_file.write_text("")
        worlds_dir = a_file / "worlds"
        argv = ["gen-dataset", "--out", str(tmp_path / "qa.jsonl"), "--worlds-dir", str(worlds_dir), "--worlds", "1"]
        self.expect_write_error(capsys, argv, worlds_dir)
        assert not (tmp_path / "qa.jsonl").exists()

    def test_bench_report(self, tmp_path, capsys):
        dataset = tmp_path / "data.jsonl"
        record = {
            "id": "demo_house-q000",
            "world_id": "demo_house",
            "category": "template",
            "question": "What color is the sofa in the living room?",
            "gold_answer": "blue",
            "gold_pattern": "V2[living room] -> V3(A)[sofa] -> A[color]",
            "slots": {},
        }
        dataset.write_text(json.dumps(record, sort_keys=True) + "\n")
        report = tmp_path / "missing" / "report.json"
        argv = ["bench", "--dataset", str(dataset), "--worlds", DEMO, "--report", str(report)]
        self.expect_write_error(capsys, argv, report)
