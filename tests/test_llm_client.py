"""Chat transport behavior: digests, retries, replay, logging."""

import json
import re

import pytest

from stepqa import prompts
from stepqa.environment import AgentPose
from stepqa.evaluation import ChatJudge
from stepqa.llm_client import (
    TRIES,
    ChatClient,
    ChatMessage,
    ChatRequest,
    ChatResponse,
    HttpTransport,
    ReplayMissError,
    ReplayTransport,
    RetryExhaustedError,
    SchemaError,
    SessionLog,
    TransportError,
    client_from_env,
    request_digest,
)
from stepqa.llm_planner import ChatPlanner
from stepqa.parsing import LlmBackend
from stepqa.patterns import parse_pattern_string


def make_request(user="hello", model="m") -> ChatRequest:
    return ChatRequest(
        model=model,
        messages=(ChatMessage("system", "sys"), ChatMessage("user", user)),
    )


class FakeResponse:
    def __init__(self, status_code, body=None):
        self.status_code = status_code
        self._body = body or {}

    def json(self):
        return self._body


def ok_body(content="fine"):
    return {"choices": [{"message": {"content": content}, "finish_reason": "stop"}]}


class TestDigest:
    def test_stable_across_processes(self):
        # frozen value: replay fixtures recorded elsewhere must keep working
        assert (
            request_digest(make_request())
            == "1f3189411b439e0b0075b86f38ac730efd38a130c9ed76d14622d2005e6e5920"
        )

    def test_sensitive_to_content_and_knobs(self):
        base = request_digest(make_request())
        assert request_digest(make_request(user="other")) != base
        assert request_digest(make_request(model="m2")) != base
        bumped = ChatRequest(
            model="m",
            messages=(ChatMessage("system", "sys"), ChatMessage("user", "hello")),
            temperature=0.7,
        )
        assert request_digest(bumped) != base

    def test_insensitive_to_construction_order(self):
        a = ChatRequest(model="m", messages=(ChatMessage("user", "x"),), max_tokens=99)
        b = ChatRequest(messages=(ChatMessage("user", "x"),), model="m", max_tokens=99)
        assert request_digest(a) == request_digest(b)


class TestHttpTransport:
    def test_success_first_try(self):
        calls = []

        def post(url, json=None, headers=None, timeout=None):
            calls.append((url, headers))
            return FakeResponse(200, ok_body("hi"))

        t = HttpTransport("http://api/chat", api_key="k", post=post, sleep=lambda s: None)
        resp = t.complete(make_request())
        assert resp.content == "hi"
        assert calls[0][1]["Authorization"] == "Bearer k"
        assert len(t.log.entries) == 1

    def test_retries_on_5xx_and_429_with_doubling_backoff(self):
        statuses = iter([500, 429, 200])
        sleeps = []

        def post(url, json=None, headers=None, timeout=None):
            return FakeResponse(next(statuses), ok_body())

        t = HttpTransport(
            "http://api/chat", post=post, sleep=sleeps.append, backoff=0.5, attempts=3
        )
        assert t.complete(make_request()).content == "fine"
        assert sleeps == [0.5, 1.0]

    def test_gives_up_after_attempts(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeResponse(503)

        t = HttpTransport("http://api/chat", post=post, sleep=lambda s: None, attempts=3)
        with pytest.raises(RetryExhaustedError) as err:
            t.complete(make_request())
        assert err.value.attempts == 3

    def test_client_errors_do_not_retry(self):
        count = [0]

        def post(url, json=None, headers=None, timeout=None):
            count[0] += 1
            return FakeResponse(401)

        t = HttpTransport("http://api/chat", post=post, sleep=lambda s: None)
        with pytest.raises(TransportError):
            t.complete(make_request())
        assert count[0] == 1

    def test_network_exceptions_count_as_attempts(self):
        def post(url, json=None, headers=None, timeout=None):
            raise OSError("connection refused")

        t = HttpTransport("http://api/chat", post=post, sleep=lambda s: None, attempts=2)
        with pytest.raises(RetryExhaustedError) as err:
            t.complete(make_request())
        assert "connection refused" in str(err.value)

    def test_malformed_payload_is_an_error(self):
        def post(url, json=None, headers=None, timeout=None):
            return FakeResponse(200, {"unexpected": True})

        t = HttpTransport("http://api/chat", post=post, sleep=lambda s: None)
        with pytest.raises(TransportError):
            t.complete(make_request())


class TestReplayTransport:
    def test_hit_returns_recorded_content(self):
        t = ReplayTransport()
        t.add(make_request(), "recorded")
        assert t.complete(make_request()).content == "recorded"

    def test_miss_raises_with_digest(self):
        t = ReplayTransport()
        with pytest.raises(ReplayMissError) as err:
            t.complete(make_request())
        assert err.value.digest == request_digest(make_request())

    def test_loads_fixture_minted_by_session_log(self, tmp_path):
        log = SessionLog()
        req = make_request()
        log.record(req, ChatResponse(content="live answer"))
        fixture = log.to_replay_fixture()

        t = ReplayTransport(fixture)
        assert t.complete(req).content == "live answer"

        # and the identical fixture survives a file round trip
        p = tmp_path / "fixture.json"
        p.write_text(json.dumps(fixture))
        t2 = ReplayTransport(json.loads(p.read_text()))
        assert t2.complete(req).content == "live answer"

    def test_a_fixture_file_that_is_not_utf8_is_refused_by_name(self, tmp_path):
        p = tmp_path / "fixtures.jsonl"
        p.write_bytes(b"\xff\xfe{}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: not UTF-8 text at byte 0$"):
            ReplayTransport(p)

    @pytest.mark.parametrize(
        "second,message",
        [
            ("not json", "not JSON: Expecting value"),
            ('{"response": "late"}', 'an entry needs "digest" and "response"'),
            ('{"digest": "d2"}', 'an entry needs "digest" and "response"'),
            ("[1, 2]", 'an entry needs "digest" and "response"'),
        ],
    )
    def test_a_malformed_fixture_line_is_refused_by_file_and_line(self, tmp_path, second, message):
        p = tmp_path / "fixtures.jsonl"
        p.write_text('{"digest": "d1", "response": "first"}\n' + second + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: line 2: {re.escape(message)}"):
            ReplayTransport(p)

    def test_a_fixture_entry_without_a_digest_is_refused_by_place(self):
        with pytest.raises(ValueError, match='^entry 2: an entry needs "digest" and "response"$'):
            ReplayTransport([{"digest": "d1", "response": "first"}, {"response": "second"}])


class TestChatClient:
    def test_complete_text_wraps_messages(self):
        t = ReplayTransport()
        t.add(make_request(), "out")
        client = ChatClient(t, model="m")
        assert client.complete_text("sys", "hello") == "out"

    def test_swapping_transports_preserves_requests(self):
        live = None

        def post(url, json=None, headers=None, timeout=None):
            nonlocal live
            live = json
            return FakeResponse(200, ok_body("from http"))

        http = ChatClient(HttpTransport("http://api/chat", post=post), model="m")
        assert http.complete_text("sys", "hello") == "from http"

        replay = ChatClient(ReplayTransport(http.transport.log.to_replay_fixture()), model="m")
        assert replay.complete_text("sys", "hello") == "from http"
        assert live["messages"][1]["content"] == "hello"


class TestClientFromEnv:
    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv("LLM_ENDPOINT", "http://api/chat")
        monkeypatch.setenv("LLM_API_KEY", "secret")
        monkeypatch.setenv("LLM_MODEL", "house-model")
        client = client_from_env()
        assert client.model == "house-model"
        assert client.transport.endpoint == "http://api/chat"
        assert client.transport.api_key == "secret"

    def test_missing_endpoint_is_fatal(self, monkeypatch):
        monkeypatch.delenv("LLM_ENDPOINT", raising=False)
        with pytest.raises(TransportError):
            client_from_env()

    def test_flags_beat_environment(self, monkeypatch):
        monkeypatch.setenv("LLM_ENDPOINT", "http://wrong")
        client = client_from_env(endpoint="http://right", model="m")
        assert client.transport.endpoint == "http://right"


# A reply each chat call accepts, by prompt name; an empty reply suits none.
VALID_REPLIES = {
    "extract_pattern": '{"pattern": "V3[bed] -> V2"}',
    "classify_attribute": "REMOTE",
    "simplify_question": "Is there a cup?",
    "fallback_plan": '{"kind": "Answer", "value": "not found"}',
    "judge": "5",
}


def chat_call(name, client, world):
    """Make the chat call that uses the named prompt, through its backend."""
    if name == "extract_pattern":
        return LlmBackend(client).parse("Which room is the bed in?")
    if name == "judge":
        return ChatJudge(client).score("q", "blue", "blue")
    planner = ChatPlanner(client)
    if name == "classify_attribute":
        return planner.classify_attribute("glow", "lamp")
    if name == "simplify_question":
        chain = parse_pattern_string("exists: V2[kitchen] -> V3[table] -> V4[cup]")
        return planner.simplify_question("Is there a cup on the table?", chain, 2, {})
    pose = AgentPose("f0.living", 1)
    return planner.fallback_plan(world.prior_graph(), pose, frozenset(), "q")


class Scripted:
    """A duck-typed client that replies from a script, or fails with ``error``."""

    model = "test"

    def __init__(self, *replies, error=None):
        self.replies = list(replies)
        self.error = error
        self.systems = []

    def complete_text(self, system, user):
        self.systems.append(system)
        if self.error is not None:
            raise self.error
        return self.replies.pop(0)


@pytest.mark.parametrize("name", sorted(VALID_REPLIES))
class TestAsk:
    def test_bad_replies_give_up_after_three_requests(self, name, demo_truth):
        client = Scripted(*[""] * (TRIES + 1))
        prefix = f"^{name.replace('_', ' ')} never validated after 3 tries: "
        with pytest.raises(SchemaError, match=prefix):
            chat_call(name, client, demo_truth)
        assert client.systems == [prompts.load(name)] * 3

    def test_a_valid_second_reply_is_returned(self, name, demo_truth):
        client = Scripted("", VALID_REPLIES[name], "")
        got = chat_call(name, client, demo_truth)
        assert got is not None
        assert got == chat_call(name, Scripted(VALID_REPLIES[name]), demo_truth)
        assert len(client.systems) == 2

    def test_a_transport_error_propagates_without_a_retry(self, name, demo_truth):
        client = Scripted(error=ReplayMissError("0" * 64))
        with pytest.raises(ReplayMissError):
            chat_call(name, client, demo_truth)
        assert len(client.systems) == 1
