from __future__ import annotations

import logging

import pytest
import requests

from text2sql.backend import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    REQUEST_TIMEOUT_S,
    BackendUnavailable,
    ChatRequest,
    HttpBackend,
    ScriptedBackend,
    ScriptMiss,
)
from text2sql.schema import estimate_tokens


def make_request(text="hello"):
    return ChatRequest(user_text=text)


class TestScriptedBackend:
    def test_substring_match(self):
        backend = ScriptedBackend([("youngest client", "stored answer")])
        response = backend.complete(make_request("what about the youngest client here"))
        assert response.text == "stored answer"
        assert response.latency == 0.0

    def test_empty_user_text_rejected(self):
        backend = ScriptedBackend([("x", "y")])
        with pytest.raises(ValueError):
            backend.complete(ChatRequest(user_text=""))

    def test_replay_deterministic(self):
        backend = ScriptedBackend([("q", "a")])
        first = backend.complete(make_request("q1"))
        second = backend.complete(make_request("q1"))
        assert first.text == second.text
        assert first.prompt_tokens == second.prompt_tokens

    def test_no_match_raises(self):
        backend = ScriptedBackend([("needle", "x")])
        with pytest.raises(ScriptMiss):
            backend.complete(make_request("haystack"))

    def test_strict_requires_unique_match(self):
        backend = ScriptedBackend([("a", "1"), ("b", "2")], strict=True)
        assert backend.complete(make_request("only a")).text == "1"
        with pytest.raises(ScriptMiss):
            backend.complete(make_request("both a and b"))

    def test_first_match_wins_when_lax(self):
        backend = ScriptedBackend([("a", "1"), ("b", "2")])
        assert backend.complete(make_request("both a and b")).text == "1"

        class CountingText(str):
            tests = 0

            def __contains__(self, needle):
                CountingText.tests += 1
                return super().__contains__(needle)
        entries = [("only a", "1"), ("a", "2"), ("b", "3")]
        assert ScriptedBackend(entries).complete(
            make_request(CountingText("only a"))).text == "1"
        assert CountingText.tests == 1
        CountingText.tests = 0
        assert ScriptedBackend(entries, strict=True).complete(
            make_request(CountingText("b"))).text == "3"
        assert CountingText.tests == len(entries)

    def test_from_file(self, tmp_path):
        script = tmp_path / "script.txt"
        script.write_text(
            "### MATCH: alpha\nresponse one\nline two\n"
            "### MATCH: beta\nresponse two\n",
            encoding="utf-8",
        )
        backend = ScriptedBackend.from_file(str(script))
        assert backend.complete(make_request("has alpha")).text == "response one\nline two"
        assert backend.complete(make_request("has beta")).text == "response two"

    def test_banking_fixture_file(self, scripted_banking_path):
        backend = ScriptedBackend.from_file(str(scripted_banking_path), strict=True)
        response = backend.complete(make_request(
            "Discard any table schema that is not related"))
        assert '"loan": "drop_all"' in response.text

    def test_single_matcher_returns_stored_worked_answer(self, scripted_banking_path):
        stored = scripted_banking_path.read_text(encoding="utf-8").split(
            "### MATCH: decompose the question into subquestions\n")[1].rstrip("\n")
        backend = ScriptedBackend([("youngest client", stored)])
        response = backend.complete(make_request(
            "What is the gender of the youngest client who opened account?"))
        assert response.text == stored
        assert "Sub question 3" in response.text


class _FakeResponse:
    def __init__(self, status_code, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no json")
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers,
                           "timeout": timeout})
        action = self.responses.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def ok_payload(text="fine"):
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 7, "completion_tokens": 3},
    }


class TestHttpBackend:
    def make_backend(self, session, **kwargs):
        kwargs.setdefault("sleep", lambda s: None)
        return HttpBackend("http://llm.test/v1/chat", session=session, **kwargs)

    def test_success_parses_usage(self):
        session = _FakeSession([_FakeResponse(200, ok_payload("sql here"))])
        backend = self.make_backend(session)
        response = backend.complete(make_request())
        assert response.text == "sql here"
        assert response.prompt_tokens == 7
        assert response.completion_tokens == 3

        # a usage that is not an object, or a count that is not an int, is estimated
        for usage in (None, 5, [7, 3], {"prompt_tokens": None, "completion_tokens": "3"},
                      {"prompt_tokens": 7.0, "completion_tokens": True}):
            payload = dict(ok_payload("sql here"), usage=usage)
            backend = self.make_backend(_FakeSession([_FakeResponse(200, payload)]))
            response = backend.complete(make_request("hello"))
            assert (response.prompt_tokens, response.completion_tokens) == (
                estimate_tokens("hello"), estimate_tokens("sql here")), usage

    def test_messages_and_bearer_header(self, monkeypatch):
        monkeypatch.setenv("LLM_API_KEY", "sekrit")
        session = _FakeSession([_FakeResponse(200, ok_payload())])
        backend = self.make_backend(session)
        backend.complete(ChatRequest(user_text="u", system_text="s"))
        call = session.calls[0]
        assert call["json"]["messages"] == [
            {"role": "system", "content": "s"},
            {"role": "user", "content": "u"},
        ]
        assert call["headers"]["Authorization"] == "Bearer sekrit"

    def test_wire_format(self):
        session = _FakeSession([_FakeResponse(200, ok_payload())] * 2)
        backend = self.make_backend(session, model="m", max_output_tokens=77)
        backend.complete(ChatRequest(user_text="u", system_text="s"))
        backend.complete(ChatRequest(user_text="u"))
        body = session.calls[0]["json"]
        assert list(body) == ["model", "messages", "temperature", "max_tokens"]
        assert body == {
            "model": "m",
            "messages": [{"role": "system", "content": "s"},
                         {"role": "user", "content": "u"}],
            "temperature": 0.0,
            "max_tokens": 77,
        }
        assert session.calls[1]["json"]["messages"] == [{"role": "user", "content": "u"}]

    def test_default_token_budget(self):
        session = _FakeSession([_FakeResponse(200, ok_payload())])
        self.make_backend(session).complete(make_request())
        assert session.calls[0]["json"]["max_tokens"] == DEFAULT_MAX_OUTPUT_TOKENS == 1024

    def test_retries_on_429_then_succeeds(self):
        session = _FakeSession([
            _FakeResponse(429),
            _FakeResponse(500),
            _FakeResponse(200, ok_payload()),
        ])
        backend = self.make_backend(session)
        assert backend.complete(make_request()).text == "fine"
        assert [c["timeout"] for c in session.calls] == [REQUEST_TIMEOUT_S] * 3 == [120.0] * 3

    def test_gives_up_after_cap(self, caplog):
        session = _FakeSession([_FakeResponse(503)] * 5)
        backend = self.make_backend(session)
        with caplog.at_level(logging.WARNING):
            with pytest.raises(BackendUnavailable):
                backend.complete(make_request())
        assert len(session.calls) == 3
        assert any("3 attempt" in m for m in caplog.messages)

    def test_retries_on_connection_error(self):
        session = _FakeSession([
            requests.ConnectionError("refused"),
            _FakeResponse(200, ok_payload()),
        ])
        backend = self.make_backend(session)
        assert backend.complete(make_request()).text == "fine"

    def test_client_error_fails_fast(self):
        session = _FakeSession([_FakeResponse(401, text="bad key")])
        backend = self.make_backend(session)
        with pytest.raises(BackendUnavailable):
            backend.complete(make_request())
        assert len(session.calls) == 1

    def test_backoff_is_exponential(self):
        delays = []
        session = _FakeSession([_FakeResponse(500)] * 3)
        backend = HttpBackend("http://llm.test", session=session, sleep=delays.append)
        with pytest.raises(BackendUnavailable):
            backend.complete(make_request())
        assert delays == [1.0, 2.0]

    def test_malformed_body_raises(self):
        for body in ({"nope": True}, [], ok_payload(None), ok_payload(5),
                     ok_payload(["a"]), {"choices": [{"message": {}}]}):
            session = _FakeSession([_FakeResponse(200, body)])
            backend = self.make_backend(session)
            with pytest.raises(BackendUnavailable, match="malformed completion response"):
                backend.complete(make_request())

    def test_empty_user_text_rejected_before_dispatch(self):
        session = _FakeSession([])
        backend = self.make_backend(session)
        with pytest.raises(ValueError):
            backend.complete(ChatRequest(user_text=""))
        assert session.calls == []


class TestConcurrency:
    def test_scripted_concurrent_calls(self):
        from concurrent.futures import ThreadPoolExecutor
        backend = ScriptedBackend([("q", "a")])
        with ThreadPoolExecutor(8) as pool:
            texts = list(pool.map(
                lambda _: backend.complete(make_request("q")).text, range(64)))
        assert texts == ["a"] * 64


class TestLimits:
    def test_requires_positive_window(self):
        for window in (0, -1):
            with pytest.raises(ValueError, match="context_window"):
                ScriptedBackend([], context_window=window)
            with pytest.raises(ValueError, match="context_window"):
                HttpBackend("http://llm.test", session=_FakeSession([]),
                            context_window=window)

    @pytest.mark.parametrize("endpoint", [
        "llm.example.com/v1/chat", "ftp://llm.test/v1", "http:///v1/chat", "https://"])
    def test_requires_http_url_with_host(self, endpoint):
        with pytest.raises(ValueError, match="endpoint"):
            HttpBackend(endpoint, session=_FakeSession([]))

    def test_requires_positive_token_budget(self):
        with pytest.raises(ValueError, match="max_output_tokens"):
            HttpBackend("http://llm.test", session=_FakeSession([]), max_output_tokens=0)
