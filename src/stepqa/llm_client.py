"""Chat-completion client with swappable transports.

The HTTP transport speaks the common chat-completions wire shape with
bearer auth. The replay transport serves canned responses keyed by a
stable digest of the request, which is how every offline test runs the
chat-backed code paths. Each transport keeps a session log of exchanges
so that new replay fixtures can be minted from a live run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, TypeVar

from . import prompts

DEFAULT_TIMEOUT_S = 30.0
DEFAULT_ATTEMPTS = 3
DEFAULT_BACKOFF_S = 0.5
# Replies read per chat call before its reply is given up as invalid.
TRIES = 3

ENDPOINT_VAR = "LLM_ENDPOINT"
API_KEY_VAR = "LLM_API_KEY"
MODEL_VAR = "LLM_MODEL"


class TransportError(RuntimeError):
    pass


class SchemaError(ValueError):
    """A chat reply that does not fit the contract of the call that asked for it."""


class RetryExhaustedError(TransportError):
    def __init__(self, attempts: int, last_error: str) -> None:
        super().__init__(f"gave up after {attempts} attempts: {last_error}")
        self.attempts = attempts


class ReplayMissError(TransportError):
    def __init__(self, digest: str) -> None:
        super().__init__(f"no replay fixture for request digest {digest}")
        self.digest = digest


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: tuple[ChatMessage, ...]
    temperature: float = 0.0
    max_tokens: int = 512

    def to_wire(self) -> dict[str, Any]:
        return {
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content} for m in self.messages],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }


@dataclass(frozen=True)
class ChatResponse:
    content: str
    finish_reason: str = "stop"


def strip_fences(text: str) -> str:
    """Reply text without a surrounding Markdown code fence, if it has one."""
    text = text.strip()
    match = re.match(r"^```(?:json)?\s*(.*?)\s*```$", text, flags=re.DOTALL)
    return match.group(1) if match else text


def request_digest(request: ChatRequest) -> str:
    """Stable content hash of a request, independent of timing or identity."""
    canonical = json.dumps(request.to_wire(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SessionLog:
    """Exchanges seen by a transport, in order."""

    def __init__(self) -> None:
        self.entries: list[dict[str, Any]] = []

    def record(self, request: ChatRequest, response: ChatResponse) -> None:
        self.entries.append(
            {
                "digest": request_digest(request),
                "request": request.to_wire(),
                "response": {"content": response.content, "finish_reason": response.finish_reason},
            }
        )

    def to_replay_fixture(self) -> list[dict[str, Any]]:
        return [{"digest": e["digest"], "response": e["response"]} for e in self.entries]


class HttpTransport:
    """POSTs chat requests to an endpoint, retrying on transient failure."""

    def __init__(
        self,
        endpoint: str,
        api_key: str = "",
        timeout: float = DEFAULT_TIMEOUT_S,
        attempts: int = DEFAULT_ATTEMPTS,
        backoff: float = DEFAULT_BACKOFF_S,
        post: Callable[..., Any] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if post is None:
            import requests

            post = requests.post
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self.attempts = attempts
        self.backoff = backoff
        self._post = post
        self._sleep = sleep
        self.log = SessionLog()

    def complete(self, request: ChatRequest) -> ChatResponse:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        last = "no attempt made"
        for attempt in range(self.attempts):
            if attempt:
                self._sleep(self.backoff * (2 ** (attempt - 1)))
            try:
                resp = self._post(
                    self.endpoint,
                    json=request.to_wire(),
                    headers=headers,
                    timeout=self.timeout,
                )
            except Exception as exc:
                last = f"{type(exc).__name__}: {exc}"
                continue
            status = getattr(resp, "status_code", 200)
            if status >= 500 or status == 429:
                last = f"HTTP {status}"
                continue
            if status >= 400:
                raise TransportError(f"HTTP {status} from {self.endpoint}")
            try:
                body = resp.json()
                content = body["choices"][0]["message"]["content"]
                finish = body["choices"][0].get("finish_reason", "stop")
            except Exception as exc:
                raise TransportError(f"malformed completion payload: {exc}") from exc
            response = ChatResponse(content=content, finish_reason=finish)
            self.log.record(request, response)
            return response
        raise RetryExhaustedError(self.attempts, last)


class ReplayTransport:
    """Serves responses recorded earlier, matched by request digest."""

    def __init__(self, fixtures: Any = None) -> None:
        self._by_digest: dict[str, ChatResponse] = {}
        self.log = SessionLog()
        if fixtures is not None:
            self.load(fixtures)

    def load(self, fixtures: Any) -> None:
        """Add fixtures: a list of entries, or the path of a JSONL file of
        them, read as UTF-8. A file line that is not JSON, an entry
        without "digest" or "response", a response that is neither a
        string nor an object with a string "content", or a finish_reason
        that is not a string, is a ValueError naming the file and its line
        (or the entry's place in the list), and a refused load adds nothing."""
        if isinstance(fixtures, (str, Path)):
            try:
                lines = Path(fixtures).read_text(encoding="utf-8").split("\n")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{fixtures}: not UTF-8 text at byte {exc.start}") from exc
            entries = []
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                where = f"{fixtures}: line {number}"
                try:
                    entries.append((where, json.loads(line)))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}: not JSON: {exc.msg}") from exc
        else:
            entries = [(f"entry {number}", entry) for number, entry in enumerate(fixtures, start=1)]
        loaded: dict[str, ChatResponse] = {}
        for where, entry in entries:
            if not (isinstance(entry, dict) and "digest" in entry and "response" in entry):
                raise ValueError(f'{where}: an entry needs "digest" and "response"')
            resp = entry["response"]
            if isinstance(resp, str):
                resp = {"content": resp}
            if not (isinstance(resp, dict) and isinstance(resp.get("content"), str)):
                raise ValueError(f'{where}: "response" must be a string or an object with a string "content"')
            finish = resp.get("finish_reason", "stop")
            if not isinstance(finish, str):
                raise ValueError(f'{where}: "finish_reason" must be a string')
            loaded[entry["digest"]] = ChatResponse(content=resp["content"], finish_reason=finish)
        self._by_digest.update(loaded)

    def add(self, request: ChatRequest, content: str) -> None:
        self._by_digest[request_digest(request)] = ChatResponse(content=content)

    def complete(self, request: ChatRequest) -> ChatResponse:
        digest = request_digest(request)
        if digest not in self._by_digest:
            raise ReplayMissError(digest)
        response = self._by_digest[digest]
        self.log.record(request, response)
        return response


class ChatClient:
    """A model name bound to a transport, with message-list convenience."""

    def __init__(self, transport: Any, model: str) -> None:
        self.transport = transport
        self.model = model

    def complete_text(self, system: str, user: str) -> str:
        request = ChatRequest(
            model=self.model,
            messages=(ChatMessage("system", system), ChatMessage("user", user)),
        )
        return self.transport.complete(request).content


T = TypeVar("T")


def ask(client: Any, prompt: str, user: str, parse: Callable[[str], T]) -> T:
    """``parse`` of the first reply to the named prompt that it does not reject.

    ``parse`` rejects a reply by raising ValueError; after TRIES rejected
    replies SchemaError names the prompt and the last rejection. A
    TransportError propagates at once. ``client`` needs only ``complete_text``.
    """
    system = prompts.load(prompt)
    error = ""
    for _ in range(TRIES):
        reply = client.complete_text(system, user)
        try:
            return parse(reply)
        except ValueError as exc:
            error = str(exc)
    raise SchemaError(f"{prompt.replace('_', ' ')} never validated after {TRIES} tries: {error}")


def client_from_env(
    endpoint: str | None = None,
    api_key: str | None = None,
    model: str | None = None,
    **kwargs: Any,
) -> ChatClient:
    """Build an HTTP-backed client from flags, falling back to environment."""
    endpoint = endpoint or os.environ.get(ENDPOINT_VAR, "")
    if not endpoint:
        raise TransportError(f"no endpoint given and {ENDPOINT_VAR} is unset")
    api_key = api_key if api_key is not None else os.environ.get(API_KEY_VAR, "")
    model = model or os.environ.get(MODEL_VAR, "default")
    transport = HttpTransport(endpoint, api_key=api_key, **kwargs)
    return ChatClient(transport, model=model)
