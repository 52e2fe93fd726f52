"""Chat-completion backends: an HTTP client with retry/backoff and a scripted mock."""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Sequence
from urllib.parse import urlsplit

import requests

from .schema import estimate_tokens

logger = logging.getLogger(__name__)

DEFAULT_MODEL = "gpt-4"
DEFAULT_API_KEY_ENV = "LLM_API_KEY"
DEFAULT_CONTEXT_WINDOW = 32768
DEFAULT_MAX_OUTPUT_TOKENS = 1024
# The HTTP retry policy: attempts in all, the first backoff, the per-request timeout,
# and the longest wait a Retry-After header may set.
MAX_ATTEMPTS = 3
BASE_DELAY_S = 1.0
REQUEST_TIMEOUT_S = 120.0
MAX_RETRY_AFTER_S = 60.0
SCRIPT_ENTRY_PREFIX = "### MATCH:"


class BackendUnavailable(Exception):
    """The HTTP backend failed permanently (retries exhausted or fatal status)."""


class ScriptMiss(BackendUnavailable):
    """A scripted backend had no (or no unique) entry for the request."""


@dataclass
class ChatRequest:
    """The prompt alone; model, temperature and token budget belong to the backend."""

    user_text: str
    system_text: str = ""


@dataclass
class ChatResponse:
    text: str
    prompt_tokens: int = 0
    completion_tokens: int = 0
    latency: float = 0.0


def _require_user_text(request: ChatRequest) -> None:
    if not request.user_text:
        raise ValueError("ChatRequest.user_text must be nonempty")


def _require_positive(name: str, value: int) -> int:
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def _require_http_url(endpoint: str) -> str:
    parts = urlsplit(endpoint)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"endpoint must be an http or https URL with a host, got {endpoint!r}")
    return endpoint


class ScriptedBackend:
    """Deterministic backend replaying canned responses by substring match.

    Entries are (needle, response) pairs matched against the request's user
    text. In strict mode exactly one entry must match; otherwise the first
    matching entry wins and no later needle is tested. Replies are pure:
    identical requests always produce identical responses.
    """

    def __init__(self, entries: Sequence[tuple[str, str]], strict: bool = False,
                 context_window: int = DEFAULT_CONTEXT_WINDOW):
        self.entries = list(entries)
        self.strict = strict
        self.context_window = _require_positive("context_window", context_window)

    @classmethod
    def from_file(cls, path: str, strict: bool = False,
                  context_window: int = DEFAULT_CONTEXT_WINDOW) -> "ScriptedBackend":
        """Load matcher/response pairs from a plain-text fixture file.

        Each entry starts with a line ``### MATCH: <needle>``; the response is
        everything up to the next entry, with one trailing newline stripped.
        """
        entries: list[tuple[str, str]] = []
        needle = None
        lines: list[str] = []
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except (OSError, ValueError) as exc:  # a UTF-8 decode error is a ValueError
            raise ValueError(f"cannot read script file {path}: {exc}") from None
        for raw in text.splitlines(keepends=True):
            if raw.startswith(SCRIPT_ENTRY_PREFIX):
                if needle is not None:
                    entries.append((needle, "".join(lines).rstrip("\n")))
                needle = raw[len(SCRIPT_ENTRY_PREFIX):].strip()
                lines = []
            elif needle is not None:
                lines.append(raw)
        if needle is not None:
            entries.append((needle, "".join(lines).rstrip("\n")))
        return cls(entries, strict=strict, context_window=context_window)

    def complete(self, request: ChatRequest) -> ChatResponse:
        _require_user_text(request)
        matches = (resp for needle, resp in self.entries if needle in request.user_text)
        hits = list(matches if self.strict else islice(matches, 1))
        if self.strict and len(hits) != 1:
            raise ScriptMiss(f"strict script expected exactly one match, got {len(hits)}")
        if not hits:
            raise ScriptMiss("no script entry matches the request")
        text = hits[0]
        return ChatResponse(
            text=text,
            prompt_tokens=estimate_tokens(request.system_text + request.user_text),
            completion_tokens=estimate_tokens(text),
            latency=0.0,
        )


class HttpBackend:
    """Client for any endpoint speaking the common chat-completion protocol.

    Transient failures (any ``requests`` error from the post: a timeout, a
    refused connection, a body cut off mid-transfer; 429, 5xx) are retried
    with exponential backoff up to ``MAX_ATTEMPTS`` total attempts; a 429 or
    5xx whose ``Retry-After`` gives seconds waits that long instead, at most
    ``MAX_RETRY_AFTER_S``. Anything else raises BackendUnavailable immediately.
    The bearer token is read from the environment at request time so
    credentials never live in config files.
    """

    def __init__(self, endpoint: str, model: str = DEFAULT_MODEL,
                 api_key_env: str = DEFAULT_API_KEY_ENV,
                 context_window: int = DEFAULT_CONTEXT_WINDOW,
                 max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS,
                 session=None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic):
        self.endpoint = _require_http_url(endpoint)
        self.model = model
        self.api_key_env = api_key_env
        self.context_window = _require_positive("context_window", context_window)
        self.max_output_tokens = _require_positive("max_output_tokens", max_output_tokens)
        self._session = session or requests.Session()
        self._sleep = sleep
        self._clock = clock

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _payload(self, request: ChatRequest) -> dict:
        messages = []
        if request.system_text:
            messages.append({"role": "system", "content": request.system_text})
        messages.append({"role": "user", "content": request.user_text})
        return {
            "model": self.model,
            "messages": messages,
            "temperature": 0.0,
            "max_tokens": self.max_output_tokens,
        }

    def complete(self, request: ChatRequest) -> ChatResponse:
        _require_user_text(request)
        start = self._clock()
        payload = self._payload(request)
        last_error = ""
        for attempt in range(1, MAX_ATTEMPTS + 1):
            delay = BASE_DELAY_S * 2 ** (attempt - 1)
            try:
                resp = self._session.post(self.endpoint, json=payload,
                                          headers=self._headers(),
                                          timeout=REQUEST_TIMEOUT_S)
            except requests.RequestException as exc:
                last_error = f"{type(exc).__name__}: {exc}"
            else:
                if resp.status_code == 200:
                    logger.info("chat completion ok after %d attempt(s)", attempt)
                    return self._parse(request, resp, self._clock() - start)
                if resp.status_code == 429 or resp.status_code >= 500:
                    last_error = f"HTTP {resp.status_code}"
                    after = resp.headers.get("Retry-After", "").strip()
                    if after.isascii() and after.isdigit():  # seconds, not an HTTP date
                        delay = min(float(after), MAX_RETRY_AFTER_S)
                else:
                    raise BackendUnavailable(
                        f"HTTP {resp.status_code}: {resp.text[:500]}")
            if attempt < MAX_ATTEMPTS:
                self._sleep(delay)
        logger.warning("chat completion failed after %d attempt(s): %s",
                       MAX_ATTEMPTS, last_error)
        raise BackendUnavailable(
            f"giving up after {MAX_ATTEMPTS} attempts: {last_error}")

    def _parse(self, request: ChatRequest, resp, latency: float) -> ChatResponse:
        try:
            data = resp.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendUnavailable(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise BackendUnavailable(f"malformed completion response: content is {text!r}")
        usage = data.get("usage")
        if not isinstance(usage, dict):
            usage = {}
        return ChatResponse(
            text=text,
            prompt_tokens=_token_count(usage, "prompt_tokens",
                                       request.system_text + request.user_text),
            completion_tokens=_token_count(usage, "completion_tokens", text),
            latency=latency,
        )


def _token_count(usage: dict, key: str, text: str) -> int:
    """The endpoint's count if it is an int (not a bool or a float), else ``text``'s estimate."""
    count = usage.get(key)
    return count if type(count) is int else estimate_tokens(text)
