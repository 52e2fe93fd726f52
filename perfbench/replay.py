"""Replay backend: scripted replies found by agent and question in a dict.

It stands in for the model at ``text2sql.cli.build_backend``. The lookup is
O(1) per call; tokens are counted with ``schema.estimate_tokens`` the same way
``ScriptedBackend`` counts them, so token figures match a scripted run.
"""

from __future__ import annotations

import json
from collections import Counter

from text2sql.backend import ChatRequest, ChatResponse, ScriptMiss
from text2sql.prompts import REFINER_TEMPLATE, SELECTOR_TEMPLATE
from text2sql.schema import estimate_tokens

SELECTOR, DECOMPOSER, REFINER = "selector", "decomposer", "refiner"

_SELECTOR_HEAD = SELECTOR_TEMPLATE[:60]
_REFINER_HEAD = REFINER_TEMPLATE[:40]


def _between(text: str, start: str, end: str, last: bool = False) -> str:
    i = text.rfind(start) if last else text.find(start)
    if i < 0:
        raise ScriptMiss(f"prompt has no {start!r} section")
    i += len(start)
    j = text.find(end, i)
    if j < 0:
        raise ScriptMiss(f"prompt section {start!r} is not closed by {end!r}")
    return text[i:j]


def request_key(user_text: str) -> tuple:
    """(agent, question[, failed SQL]) of one prompt built by the pipeline."""
    if user_text.startswith(_REFINER_HEAD):
        return (REFINER, _between(user_text, "[Query]\n", "\n[Evidence]\n"),
                _between(user_text, "[old SQL]\n```sql\n", "\n```\n[SQLite error]"))
    agent = SELECTOR if user_text.startswith(_SELECTOR_HEAD) else DECOMPOSER
    # The few-shot examples carry their own [Question]; the new one is last.
    return (agent, _between(user_text, "\n[Question]\n", "\n[Evidence]\n", last=True))


def load_replies(path) -> dict:
    """The generator's reply list as a dict keyed like ``request_key``."""
    with open(path, encoding="utf-8") as handle:
        entries = json.load(handle)
    replies = {}
    for entry in entries:
        key = (entry["agent"], entry["question"])
        if entry["agent"] == REFINER:
            key += (entry["old_sql"],)
        replies[key] = entry["reply"]
    return replies


class ReplayBackend:
    def __init__(self, replies: dict, context_window: int):
        self.replies = replies
        self.context_window = context_window
        self.calls = Counter()
        self.prompt_tokens = Counter()

    def complete(self, request: ChatRequest) -> ChatResponse:
        key = request_key(request.user_text)
        try:
            text = self.replies[key]
        except KeyError:
            raise ScriptMiss(f"no scripted {key[0]} reply for {key[1]!r}") from None
        prompt_tokens = estimate_tokens(request.system_text + request.user_text)
        self.calls[key[0]] += 1
        self.prompt_tokens[key[0]] += prompt_tokens
        return ChatResponse(text=text, prompt_tokens=prompt_tokens,
                            completion_tokens=estimate_tokens(text), latency=0.0)
