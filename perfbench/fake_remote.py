"""A fake chat-completions endpoint that answers RemoteBackend from a behaviour script.

It is passed to RemoteBackend as its transport, so every request goes through
the real client: request building, JSON encoding, response parsing and the
retry loop. Each request sleeps a fixed delay, then maps the prompt template
back to its script key and answers with the scripted value.
"""

from __future__ import annotations

import ast
import json
import re
import time

from mesa.errors import MissingSignalError

_TASK = r"\ATask: (?P<prompt>.*)\n"
_CONFIDENCE_LINE = r"\nReply with one line: confidence: <number between 0 and 1>\Z"
_QUOTED = r"(?P<arg>'[^\n]*'|\"[^\n]*\")"
_TEMPLATES = (
    (
        "self",
        re.compile(
            _TASK + r"Rate your certainty \((?P<stage>after consulting the external source"
            r"|before using any external source)\) that your own knowledge suffices\."
            + _CONFIDENCE_LINE,
            re.DOTALL,
        ),
    ),
    (
        "source",
        re.compile(
            _TASK + r"Rate how likely the external source " + _QUOTED
            + r" is to produce a correct result for this task\." + _CONFIDENCE_LINE,
            re.DOTALL,
        ),
    ),
    (
        "probe",
        re.compile(
            _TASK + r"Without loading the skill " + _QUOTED + r", rate your certainty that "
            r"you could complete the task from your own knowledge\." + _CONFIDENCE_LINE,
            re.DOTALL,
        ),
    ),
    (
        "answer",
        re.compile(
            _TASK + r"Respond in mode " + _QUOTED
            + r"\.\nReply with one line: answer: <your answer>\Z",
            re.DOTALL,
        ),
    ),
    (
        "tags",
        re.compile(
            _TASK + r"List applicable tags from: trivial, trap\.\n"
            r"Reply with one line: tags: <comma-separated list, or none>\Z",
            re.DOTALL,
        ),
    ),
)


def _covered_s(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class FakeEndpointError(Exception):
    """A request the fake endpoint cannot answer.

    Deliberately not an OSError, so RemoteBackend does not retry it: the
    benchmark counts it as a failed operation instead.
    """


def _script_key(kind: str, match: re.Match) -> str:
    if kind == "self":
        return "p_self_post" if match["stage"].startswith("after") else "p_self"
    if kind == "tags":
        return "tags"
    arg = ast.literal_eval(match["arg"])
    return {"source": "source:", "probe": "probe:", "answer": "answer:"}[kind] + arg


class FakeChatEndpoint:
    """Transport callable: (url, headers, body, timeout_s) -> response text."""

    def __init__(self, script, suite, condition: str, delay_s: float) -> None:
        self._script = script
        self._condition = condition
        self._delay_s = delay_s
        self._item_by_prompt = {item.prompt: item.id for item in suite}
        self.requests = 0
        self.sleeps: list[tuple[float, float]] = []  # (start, end) of each delay

    def oversleep_s(self) -> float:
        """Wall time the recorded delays covered beyond their nominal length; clears them.

        Overlapping requests share their wall time, so the union of the actual
        delays is compared with the union of the nominal ones.
        """
        sleeps, self.sleeps = self.sleeps, []
        return (_covered_s(sleeps)
                - _covered_s([(start, start + self._delay_s) for start, _ in sleeps]))

    def _value(self, item_id: str, key: str):
        try:
            return self._script.lookup(item_id, self._condition, key)
        except MissingSignalError:
            # The scripted path falls back to the first relevance pass when a
            # second-pass value is absent; answering with it keeps RemoteBackend's
            # parse-failure backoff out of the run.
            if key.startswith("source:relevance2:"):
                fallback = "source:relevance:" + key[len("source:relevance2:"):]
                return self._script.lookup(item_id, self._condition, fallback)
            raise

    def __call__(self, url: str, headers: dict[str, str], body: bytes, timeout_s: float) -> str:
        self.requests += 1
        start = time.perf_counter()
        time.sleep(self._delay_s)
        self.sleeps.append((start, time.perf_counter()))
        prompt = json.loads(body)["messages"][0]["content"]
        for kind, pattern in _TEMPLATES:
            match = pattern.match(prompt)
            if match:
                break
        else:
            raise FakeEndpointError(f"unrecognised prompt template: {prompt[:80]!r}")
        try:
            item_id = self._item_by_prompt[match["prompt"]]
            key = _script_key(kind, match)
            value = self._value(item_id, key)
        except (KeyError, MissingSignalError) as exc:
            raise FakeEndpointError(f"no scripted answer for {prompt[:80]!r}: {exc}") from exc
        if kind == "answer":
            content = f"answer: {value}"
        elif kind == "tags":
            content = f"tags: {value or 'none'}"
        else:
            text = repr(value)
            content = f"confidence: {text if 'e' not in text else format(value, '.20f')}"
        return json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]})
