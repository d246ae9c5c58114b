"""The model boundary: scripted, record/replay, and remote backends.

Every backend answers five queries: self confidence, source confidence for a
named channel, probe signal for a card, an answer for an action variant key,
and self-report tags. The scripted backend resolves them from a behavior
script keyed by (item, condition, key) with "*" as the any-condition default,
so whole benchmark runs are pure functions of committed fixtures. The cache
wrapper records any live backend into the same deterministic shape and can
replay with no inner backend at all. The remote backend speaks a minimal
chat-completions style HTTP protocol with retry, clamping, and redaction.

A backend may also offer gather(calls), which runs independent zero-argument
queries (possibly concurrently) and returns their results in list order. The
router uses it when present; only the remote backend has one.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
import urllib.error
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

from mesa.context import TaskContext
from mesa.errors import MissingSignalError, RemoteBackendError, ReplayMissError

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

    from mesa.bench import BenchmarkItem

log = logging.getLogger("mesa.backend")

# Candidate variants whose relevance every behavior script must provide.
_BASE_RELEVANCE_KEYS = ("DIRECT", "STOP", "CALL_TOOL", "VERIFY")


class ModelBackend(Protocol):
    """Signal and answer source for the trajectory controller."""

    def self_confidence(self, ctx: TaskContext) -> float: ...

    def source_confidence(self, ctx: TaskContext, channel: str) -> float: ...

    def probe_signal(self, ctx: TaskContext, card_id: str) -> float: ...

    def answer(self, ctx: TaskContext, variant_key: str) -> str: ...

    def self_report_tags(self, ctx: TaskContext) -> frozenset[str]: ...


# ---------------------------------------------------------------------------
# Behavior scripts


ScriptValue = float | str


@dataclass(frozen=True)
class BehaviorScript:
    """Immutable (item, condition, key) -> value table with "*" defaults."""

    rows: dict[tuple[str, str, str], ScriptValue] = field(default_factory=dict)

    def lookup(self, item_id: str, condition: str, key: str) -> ScriptValue:
        # Most rows are "*" defaults, so the condition-specific miss is the
        # common case; get() avoids raising a KeyError for it.
        value = self.rows.get((item_id, condition, key))
        if value is None:
            value = self.rows.get((item_id, "*", key))
        if value is None:
            raise MissingSignalError(f"script has no value for {item_id}/{condition}: {key}")
        return value

    def covers(self, item_id: str, condition: str, key: str) -> bool:
        return (item_id, condition, key) in self.rows or (item_id, "*", key) in self.rows

    def missing_keys(
        self, suite: Sequence["BenchmarkItem"], conditions: Iterable[str]
    ) -> list[str]:
        """Every (item, condition, key) the suite needs but the script lacks."""
        missing: list[str] = []
        condition_names = list(conditions)
        for item in suite:
            for key in required_keys(item):
                for name in condition_names:
                    if not self.covers(item.id, name, key):
                        missing.append(f"{item.id}/{name}: {key}")
        return missing


def required_keys(item: "BenchmarkItem") -> list[str]:
    """The signal/answer keys one item consumes across all conditions."""
    keys = [
        "p_self",
        "p_self_post",
        "tags",
        "source:__tool__",
        "source:__verify__",
        "answer:direct",
        "answer:tool",
        "answer:verify",
    ]
    keys.extend(f"source:relevance:{variant}" for variant in _BASE_RELEVANCE_KEYS)
    for card_id in item.injected_card_ids:
        keys.append(f"probe:{card_id}")
        keys.append(f"source:{card_id}")
        keys.append(f"source:relevance:LOAD_SKILL:{card_id}")
        keys.append(f"answer:skill:{card_id}:commit")
        keys.append(f"answer:skill:{card_id}:hedge")
    return keys


def load_script(path: str | Path) -> BehaviorScript:
    """Parse a script file; run_matrix checks its coverage of a suite."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise MissingSignalError(f"cannot read script {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MissingSignalError(f"script {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"rows"} or not isinstance(doc["rows"], list):
        raise MissingSignalError(f'script {path}: expected top-level {{"rows": [...]}}')
    rows: dict[tuple[str, str, str], ScriptValue] = {}
    for i, raw in enumerate(doc["rows"]):
        if (
            not isinstance(raw, dict)
            or set(raw) != {"item", "condition", "key", "value"}
            or not isinstance(raw["item"], str)
            or not isinstance(raw["condition"], str)
            or not isinstance(raw["key"], str)
            or not isinstance(raw["value"], (int, float, str))
            or isinstance(raw["value"], bool)
        ):
            raise MissingSignalError(f"script {path}: malformed row #{i}: {raw!r}")
        triple = (raw["item"], raw["condition"], raw["key"])
        if triple in rows:
            raise MissingSignalError(f"script {path}: duplicate row for {triple}")
        value = raw["value"]
        rows[triple] = float(value) if isinstance(value, (int, float)) else value
    return BehaviorScript(rows=rows)


class ScriptedBackend:
    """Deterministic backend: every signal is a scripted fixture value.

    Items are identified by exact prompt text, so suite prompts must be
    unique; the constructor enforces that.
    """

    def __init__(
        self,
        script: BehaviorScript,
        suite: Sequence["BenchmarkItem"],
        condition: str,
    ) -> None:
        self._script = script
        self._condition = condition
        self._item_by_prompt: dict[str, str] = {}
        for item in suite:
            if item.prompt in self._item_by_prompt:
                raise ValueError(
                    f"duplicate prompt shared by {self._item_by_prompt[item.prompt]} "
                    f"and {item.id}; scripted lookup needs unique prompts"
                )
            self._item_by_prompt[item.prompt] = item.id

    def _lookup(self, ctx: TaskContext, key: str) -> ScriptValue:
        try:
            item_id = self._item_by_prompt[ctx.prompt]
        except KeyError:
            raise MissingSignalError(
                f"prompt not in scripted suite: {ctx.prompt[:60]!r}"
            ) from None
        return self._script.lookup(item_id, self._condition, key)

    def _number(self, ctx: TaskContext, key: str) -> float:
        value = self._lookup(ctx, key)
        if isinstance(value, str):
            raise MissingSignalError(f"script value for {key} is not numeric: {value!r}")
        return value

    def self_confidence(self, ctx: TaskContext) -> float:
        key = "p_self_post" if ctx.pre_offload_p_self is not None else "p_self"
        return self._number(ctx, key)

    def source_confidence(self, ctx: TaskContext, channel: str) -> float:
        return self._number(ctx, f"source:{channel}")

    def probe_signal(self, ctx: TaskContext, card_id: str) -> float:
        return self._number(ctx, f"probe:{card_id}")

    def answer(self, ctx: TaskContext, variant_key: str) -> str:
        return str(self._lookup(ctx, f"answer:{variant_key}"))

    def self_report_tags(self, ctx: TaskContext) -> frozenset[str]:
        raw = str(self._lookup(ctx, "tags"))
        return frozenset(tag for tag in (part.strip() for part in raw.split(",")) if tag)


# ---------------------------------------------------------------------------
# Record / replay cache


def _cache_key(op: str, ctx: TaskContext, arg: str | None) -> str:
    payload = {
        "op": op,
        "prompt": ctx.prompt,
        "kind_tags": sorted(ctx.kind_tags),
        "attachments": [[a.mime_tag, a.bytes_len] for a in ctx.attachments],
        "post_offload": ctx.pre_offload_p_self is not None,
        "arg": arg,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class CachedBackend:
    """Write-through memo of an inner backend; inner=None means strict replay."""

    def __init__(self, inner: ModelBackend | None, cache_path: str | Path) -> None:
        self._inner = inner
        self._path = Path(cache_path)
        self._lock = threading.Lock()
        self._entries: dict[str, object] = {}
        if self._path.exists():
            for line_no, line in enumerate(
                self._path.read_text(encoding="utf-8").splitlines()
            ):
                if not line.strip():
                    continue
                try:
                    row = json.loads(line)
                    self._entries[row["key"]] = row["value"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise ReplayMissError(
                        f"cache {self._path} line {line_no} is damaged: {exc}"
                    ) from exc

    def _resolve(self, op: str, ctx: TaskContext, arg: str | None, call: Callable[[], object]) -> object:
        key = _cache_key(op, ctx, arg)
        with self._lock:
            if key in self._entries:
                return self._entries[key]
            if self._inner is None:
                raise ReplayMissError(f"replay cache has no entry for key {key}")
            value = call()
            self._entries[key] = value
            with self._path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps({"key": key, "value": value}, sort_keys=True) + "\n")
                fh.flush()
            return value

    def self_confidence(self, ctx: TaskContext) -> float:
        return float(
            self._resolve(
                "self_confidence", ctx, None, lambda: self._inner.self_confidence(ctx)
            )
        )

    def source_confidence(self, ctx: TaskContext, channel: str) -> float:
        return float(
            self._resolve(
                "source_confidence",
                ctx,
                channel,
                lambda: self._inner.source_confidence(ctx, channel),
            )
        )

    def probe_signal(self, ctx: TaskContext, card_id: str) -> float:
        return float(
            self._resolve(
                "probe_signal", ctx, card_id, lambda: self._inner.probe_signal(ctx, card_id)
            )
        )

    def answer(self, ctx: TaskContext, variant_key: str) -> str:
        return str(
            self._resolve(
                "answer", ctx, variant_key, lambda: self._inner.answer(ctx, variant_key)
            )
        )

    def self_report_tags(self, ctx: TaskContext) -> frozenset[str]:
        value = self._resolve(
            "self_report_tags",
            ctx,
            None,
            lambda: sorted(self._inner.self_report_tags(ctx)),
        )
        return frozenset(str(tag) for tag in value)  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Remote backend


@dataclass(frozen=True)
class RemoteConfig:
    endpoint: str
    auth_env: str
    model: str
    timeout_s: float = 30.0
    max_retries: int = 2
    max_concurrent: int = 4

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")


# transport signature: (url, headers, body_bytes, timeout_s) -> response text
Transport = Callable[[str, dict[str, str], bytes, float], str]

_BACKOFF_BASE_S = 1.0
_BACKOFF_FACTOR = 2.0

# Client errors a retry can cure: request timeout and too many requests.
_RETRYABLE_4XX = (408, 429)

_CONFIDENCE_RE = re.compile(r"confidence\s*[:=]\s*(-?[0-9]+(?:\.[0-9]+)?)", re.IGNORECASE)
_TAGS_RE = re.compile(r"tags\s*[:=]\s*(.{0,200})", re.IGNORECASE)
_ANSWER_RE = re.compile(r"answer\s*[:=]\s*(.*)", re.IGNORECASE | re.DOTALL)


def _default_transport(url: str, headers: dict[str, str], body: bytes, timeout_s: float) -> str:
    import urllib.request  # about 30 ms of imports that only remote use needs

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    with urllib.request.urlopen(request, timeout=timeout_s) as response:
        return response.read().decode("utf-8")


def _is_permanent(exc: Exception) -> bool:
    """An HTTP 4xx answer that repeating the same request cannot change."""
    return (
        isinstance(exc, urllib.error.HTTPError)
        and 400 <= exc.code < 500
        and exc.code not in _RETRYABLE_4XX
    )


def _redact(headers: dict[str, str]) -> dict[str, str]:
    return {k: ("<redacted>" if k.lower() == "authorization" else v) for k, v in headers.items()}


class _ParseFailure(Exception):
    """A response arrived but lacked the requested structured field."""


class RemoteBackend:
    """HTTP chat-completions client eliciting structured numeric fields.

    Prompt templates are best-effort: they ask the model to end its reply
    with `confidence: <number>` (or `tags:` / `answer:` lines). Responses
    that fail to parse count as attempt failures and are retried with
    exponential backoff before surfacing as a missing signal; transport
    failures surface as a remote backend error instead. A 4xx status other
    than 408 and 429 is permanent and fails at once, without retry.

    gather sends independent queries concurrently; at most max_concurrent
    requests are in flight at any time.
    """

    def __init__(self, config: RemoteConfig, transport: Transport | None = None) -> None:
        self._config = config
        self._transport = transport or _default_transport
        self._semaphore = threading.BoundedSemaphore(config.max_concurrent)
        self._pool_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    def gather(self, calls: Sequence[Callable[[], object]]) -> list:
        """Run independent queries concurrently; results come back in list order.

        The failure raised is the first in list order, so a wave's
        diagnostic does not depend on which request failed first. Once a
        call has failed, the calls after it that have not started are
        skipped; every call that started finishes before gather returns or
        raises. A single call runs inline. The calls must not call gather
        themselves.
        """
        if len(calls) < 2:
            return [call() for call in calls]
        with self._pool_lock:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                # Idle workers end with the backend or at interpreter exit.
                self._pool = ThreadPoolExecutor(
                    max_workers=self._config.max_concurrent,
                    thread_name_prefix="mesa-remote",
                )
            pool = self._pool
        failed_at = [len(calls)]  # lowest index of a failed call so far
        lock = threading.Lock()

        def run(index: int, call: Callable[[], object]) -> object:
            if failed_at[0] < index:
                return None  # never read: the earlier failure is raised
            try:
                return call()
            except BaseException:
                with lock:
                    failed_at[0] = min(failed_at[0], index)
                raise

        futures = [pool.submit(run, index, call) for index, call in enumerate(calls)]
        for future in futures:
            future.exception()  # waits for the call without raising its failure
        return [future.result() for future in futures]

    def _auth_token(self) -> str:
        token = os.environ.get(self._config.auth_env)
        if not token:
            raise RemoteBackendError(
                f"auth token env var {self._config.auth_env} is not set"
            )
        return token

    def _request(self, prompt: str, parse: Callable[[str], object], what: str) -> object:
        headers = {
            "Content-Type": "application/json",
            "Authorization": f"Bearer {self._auth_token()}",
        }
        body = json.dumps(
            {
                "model": self._config.model,
                "messages": [{"role": "user", "content": prompt}],
            }
        ).encode("utf-8")
        log.debug(
            "POST %s headers=%s body=%s", self._config.endpoint, _redact(headers), body
        )
        attempts = self._config.max_retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt > 0:
                time.sleep(_BACKOFF_BASE_S * _BACKOFF_FACTOR ** (attempt - 1))
            try:
                with self._semaphore:
                    raw = self._transport(
                        self._config.endpoint, headers, body, self._config.timeout_s
                    )
                content = json.loads(raw)["choices"][0]["message"]["content"]
                if not isinstance(content, str):
                    raise _ParseFailure("response content is not text")
                log.debug("response: %s", content)
                return parse(content)
            except _ParseFailure as exc:
                last_error = exc
                log.debug("attempt %d/%d unparseable: %s", attempt + 1, attempts, exc)
            except (OSError, urllib.error.URLError, json.JSONDecodeError, KeyError,
                    IndexError, TypeError) as exc:
                if _is_permanent(exc):
                    raise RemoteBackendError(
                        f"endpoint refused the request after {attempt + 1} attempt(s): {exc}"
                    ) from exc
                last_error = exc
                log.debug("attempt %d/%d failed: %s", attempt + 1, attempts, exc)
        if isinstance(last_error, _ParseFailure):
            raise MissingSignalError(
                f"{last_error} for {what} after {attempts} attempt(s)"
            ) from last_error
        raise RemoteBackendError(
            f"endpoint failed after {attempts} attempt(s): {last_error}"
        ) from last_error

    def _parse_confidence(self, text: str, what: str) -> float:
        match = _CONFIDENCE_RE.search(text)
        if not match:
            raise _ParseFailure(f"no parseable confidence in response for {what}")
        value = float(match.group(1))
        if not 0.0 <= value <= 1.0:
            clamped = min(1.0, max(0.0, value))
            log.warning("clamping out-of-range confidence %s to %s for %s", value, clamped, what)
            value = clamped
        return value

    def _confidence(self, prompt: str, what: str) -> float:
        value = self._request(
            prompt, lambda text: self._parse_confidence(text, what), what
        )
        return float(value)  # type: ignore[arg-type]

    def self_confidence(self, ctx: TaskContext) -> float:
        stage = (
            "after consulting the external source"
            if ctx.pre_offload_p_self is not None
            else "before using any external source"
        )
        return self._confidence(
            f"Task: {ctx.prompt}\n"
            f"Rate your certainty ({stage}) that your own knowledge suffices.\n"
            'Reply with one line: confidence: <number between 0 and 1>',
            "self_confidence",
        )

    def source_confidence(self, ctx: TaskContext, channel: str) -> float:
        return self._confidence(
            f"Task: {ctx.prompt}\n"
            f"Rate how likely the external source {channel!r} is to produce a "
            "correct result for this task.\n"
            'Reply with one line: confidence: <number between 0 and 1>',
            f"source_confidence:{channel}",
        )

    def probe_signal(self, ctx: TaskContext, card_id: str) -> float:
        return self._confidence(
            f"Task: {ctx.prompt}\n"
            f"Without loading the skill {card_id!r}, rate your certainty that "
            "you could complete the task from your own knowledge.\n"
            'Reply with one line: confidence: <number between 0 and 1>',
            f"probe:{card_id}",
        )

    def answer(self, ctx: TaskContext, variant_key: str) -> str:
        def parse(text: str) -> str:
            match = _ANSWER_RE.search(text)
            return (match.group(1) if match else text).strip()

        return str(
            self._request(
                f"Task: {ctx.prompt}\n"
                f"Respond in mode {variant_key!r}.\n"
                "Reply with one line: answer: <your answer>",
                parse,
                f"answer:{variant_key}",
            )
        )

    def self_report_tags(self, ctx: TaskContext) -> frozenset[str]:
        def parse(text: str) -> frozenset[str]:
            match = _TAGS_RE.search(text)
            if not match:
                return frozenset()
            raw = match.group(1).strip().splitlines()[0]
            if raw.lower() in ("", "none"):
                return frozenset()
            return frozenset(
                tag for tag in (part.strip() for part in raw.split(",")) if tag
            )

        value = self._request(
            f"Task: {ctx.prompt}\n"
            "List applicable tags from: trivial, trap.\n"
            "Reply with one line: tags: <comma-separated list, or none>",
            parse,
            "tags",
        )
        return frozenset(value)  # type: ignore[arg-type]
