"""The model boundary: scripted, record/replay, and remote backends.

Every backend answers five queries: self confidence, source confidence for a
named channel, probe signal for a card, an answer for an action variant key,
and self-report tags. The scripted backend resolves them from a behavior
script, one key -> value table per item and condition, with an item's "*"
rows as the any-condition defaults, so whole benchmark runs are pure
functions of committed fixtures. The cache wrapper records any live backend
into the same deterministic shape and can replay with no inner backend at
all; it appends through mesa.journal, as the failure bank does. Every
cached query takes one path: build its key, look it up, else ask the inner
backend, check the value's shape and record it.
The remote backend speaks a minimal chat-completions style HTTP protocol
with retry, clamping, and redaction. Every prompt it sends has one frame of
three lines: "Task: <prompt>", the query's request, and "Reply with one
line: <reply>"; only the request and the reply format differ by query.

A backend may also offer gather(calls), which runs independent zero-argument
queries (possibly concurrently), returns their results in list order and
raises the first failure in list order. The router looks it up in one place,
router._ask, which hands every wave of queries to it when present; only the
remote backend has one.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Protocol, Sequence
from urllib.parse import urlsplit

from mesa import journal
from mesa.codec import decode_json, read_document, shared_values
from mesa.context import TaskContext
from mesa.errors import MissingSignalError, RemoteBackendError, ReplayMissError, SuiteFormatError

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
    """Immutable per-item key -> value tables with "*" defaults.

    defaults holds one key -> value table per item, from the item's "*"
    rows; overrides one per (item, condition) that has rows of its own:
    that condition's rows laid over the item's defaults. An item with no
    condition rows has the one table for every condition, shared, not
    copied. load_script fills both in its one pass over a script's rows;
    lookup, missing_keys and ScriptedBackend all read these tables.
    """

    defaults: dict[str, dict[str, ScriptValue]] = field(default_factory=dict)
    overrides: dict[tuple[str, str], dict[str, ScriptValue]] = field(default_factory=dict)

    def table(self, item_id: str, condition: str) -> dict[str, ScriptValue]:
        """Every key -> value the script gives item_id under condition (do not modify)."""
        table = self.overrides.get((item_id, condition))
        if table is None:
            table = self.defaults.get(item_id, {})
        return table

    def lookup(self, item_id: str, condition: str, key: str) -> ScriptValue:
        try:
            return self.table(item_id, condition)[key]
        except KeyError:
            raise MissingSignalError(
                f"script has no value for {item_id}/{condition}: {key}"
            ) from None

    def missing_keys(
        self, suite: Sequence["BenchmarkItem"], conditions: Iterable[str]
    ) -> list[str]:
        """Every (item, condition, key) the suite needs but the script lacks.

        Listed item by item, then key by key, then condition by condition.
        Conditions that share a table (an item's defaults, when it has no
        rows of their own) share one test of each key against it.
        """
        missing: list[str] = []
        condition_names = list(conditions)
        for item in suite:
            tables = [self.table(item.id, name) for name in condition_names]
            keys = required_keys(item)
            absent: dict[int, list[str]] = {}  # by table identity: its keys not found
            for table in tables:
                if id(table) not in absent:
                    absent[id(table)] = [key for key in keys if key not in table]
            if not any(absent.values()):
                continue
            for key in keys:
                missing.extend(
                    f"{item.id}/{name}: {key}"
                    for name, table in zip(condition_names, tables)
                    if key in absent[id(table)]
                )
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


def _is_confidence_key(key: str) -> bool:
    return key in ("p_self", "p_self_post") or key.startswith(("source:", "probe:"))


_FILED = object()  # what the object hook leaves in a filed row's place


def _file_row(
    raw: object, defaults: dict, overrides: dict, share: Callable[[ScriptValue], ScriptValue]
) -> str:
    """File one row in load_script's tables: its item's defaults, or its condition's rows.

    The value is filed as share returns it (codec.shared_values). Returns ""
    when filed, else "malformed" or "duplicate" (nothing filed).
    """
    # Exactly four keys: a missing one reads as None, which no check accepts.
    if type(raw) is not dict or len(raw) != 4:
        return "malformed"
    item, condition, key = raw.get("item"), raw.get("condition"), raw.get("key")
    value = raw.get("value")
    kind = type(value)
    if (
        type(item) is not str
        or type(condition) is not str
        or type(key) is not str
        or kind is not str and kind is not float and kind is not int
        or kind is not str and not 0.0 <= value <= 1.0 and _is_confidence_key(key)
    ):
        return "malformed"
    try:
        value = float(value) if kind is int else value
    except OverflowError:  # an integer too large for a float
        return "malformed"
    tables, at = (defaults, item) if condition == "*" else (overrides, (item, condition))
    table = tables.get(at)
    if table is None:
        table = tables[at] = {}
    # Interned: the items' tables repeat a few thousand distinct keys.
    key = sys.intern(key)
    if key in table:
        return "duplicate"
    table[key] = share(value)
    return ""


def load_script(path: str | Path) -> BehaviorScript:
    """Parse a script file; run_matrix checks its coverage of a suite.

    A numeric value on a confidence key (p_self, p_self_post, source:*,
    probe:*) outside [0, 1], NaN included, makes its row malformed. Each
    row is filed in its table as soon as the decoder yields its object
    (codec's object_hook), so the file's row dicts are never all held at once.
    Equal values share one object (codec.shared_values).
    """
    defaults: dict[str, dict[str, ScriptValue]] = {}
    overrides: dict[tuple[str, str], dict[str, ScriptValue]] = {}
    share = shared_values()

    def file_row(raw: dict) -> object:  # the object hook
        return raw if _file_row(raw, defaults, overrides, share) else _FILED

    rows = read_document(path, MissingSignalError, "script", "rows", object_hook=file_row)["rows"]
    if rows and rows[0] is not _FILED:
        # A row failed, and these are the plain decode's dicts: file them
        # afresh, in order, so the first bad row is named as before.
        defaults.clear()
        overrides.clear()
        for i, raw in enumerate(rows):
            problem = _file_row(raw, defaults, overrides, share)
            if problem == "malformed":
                raise MissingSignalError(f"script {path}: malformed row #{i}: {raw!r}")
            if problem:
                triple = (raw["item"], raw["condition"], raw["key"])
                raise MissingSignalError(f"script {path}: duplicate row for {triple}")
    for pair, table in overrides.items():
        overrides[pair] = {**defaults.get(pair[0], {}), **table}
    return BehaviorScript(defaults, overrides)


_NO_TABLE: dict[str, ScriptValue] = {}


class ScriptedBackend:
    """Deterministic backend: every signal is a scripted fixture value.

    Items are identified by exact prompt text, so suite prompts must be
    unique; the constructor raises SuiteFormatError otherwise. It maps each
    prompt to its item's table under the condition (BehaviorScript.table),
    so each query is answered by one lookup in that table.
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
        self._table_by_prompt: dict[str, dict[str, ScriptValue]] = {}
        for item in suite:
            if item.prompt in self._item_by_prompt:
                raise SuiteFormatError(
                    f"duplicate prompt shared by {self._item_by_prompt[item.prompt]} "
                    f"and {item.id}; scripted lookup needs unique prompts"
                )
            self._item_by_prompt[item.prompt] = item.id
            self._table_by_prompt[item.prompt] = script.table(item.id, condition)

    def _lookup(self, ctx: TaskContext, key: str) -> ScriptValue:
        try:
            return self._table_by_prompt[ctx.prompt][key]
        except KeyError:
            pass
        if ctx.prompt not in self._item_by_prompt:
            raise MissingSignalError(f"prompt not in scripted suite: {ctx.prompt[:60]!r}")
        # The key is missing: the script's own lookup raises its miss.
        return self._script.lookup(self._item_by_prompt[ctx.prompt], self._condition, key)

    def _number(self, ctx: TaskContext, key: str) -> float:
        value = self._lookup(ctx, key)
        if isinstance(value, str):
            raise MissingSignalError(f"script value for {key} is not numeric: {value!r}")
        return value

    # A numeric query returns a float it finds in its own frame; anything
    # else (a miss, text, a number given as int) goes through _number.

    def self_confidence(self, ctx: TaskContext) -> float:
        key = "p_self_post" if ctx.pre_offload_p_self is not None else "p_self"
        value = self._table_by_prompt.get(ctx.prompt, _NO_TABLE).get(key)
        return value if type(value) is float else self._number(ctx, key)

    def source_confidence(self, ctx: TaskContext, channel: str) -> float:
        key = f"source:{channel}"
        value = self._table_by_prompt.get(ctx.prompt, _NO_TABLE).get(key)
        return value if type(value) is float else self._number(ctx, key)

    def probe_signal(self, ctx: TaskContext, card_id: str) -> float:
        key = f"probe:{card_id}"
        value = self._table_by_prompt.get(ctx.prompt, _NO_TABLE).get(key)
        return value if type(value) is float else self._number(ctx, key)

    def answer(self, ctx: TaskContext, variant_key: str) -> str:
        return str(self._lookup(ctx, f"answer:{variant_key}"))

    def self_report_tags(self, ctx: TaskContext) -> frozenset[str]:
        return _tag_set(str(self._lookup(ctx, "tags")))


@functools.lru_cache(maxsize=256)
def _tag_set(raw: str) -> frozenset[str]:
    """The stripped, non-empty entries of a comma-separated tag list.

    Cached: a scripted item has one tag string under every condition.
    """
    return frozenset(tag for tag in (part.strip() for part in raw.split(",")) if tag)


# ---------------------------------------------------------------------------
# Record / replay cache


def _cache_key(op: str, ctx: TaskContext, arg: str | None = None) -> str:
    payload = {
        "op": op,
        "prompt": ctx.prompt,
        "kind_tags": sorted(ctx.kind_tags),
        "attachments": [[a.mime_tag, a.bytes_len] for a in ctx.attachments],
        "post_offload": ctx.pre_offload_p_self is not None,
        "arg": arg,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# What each query's cached value must be: a description and a check.
_CONFIDENCE = ("a number in [0, 1]", lambda v: type(v) in (int, float) and 0.0 <= v <= 1.0)
_SHAPES = {
    "self_confidence": _CONFIDENCE,
    "source_confidence": _CONFIDENCE,
    "probe_signal": _CONFIDENCE,
    "answer": ("a string", lambda v: isinstance(v, str)),
    "self_report_tags": (
        "a list of strings", lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v)
    ),
}


class CachedBackend:
    """Write-through memo of an inner backend; inner=None means strict replay.

    A value of the wrong type for its query, read or freshly recorded, is a
    replay miss that names the key. Recorders sharing one file keep one row
    per key: on a miss, a recorder first reads, under the file's lock, the
    rows others appended since its last read, and if one holds the key it
    returns that value and appends nothing. So every session returns what a
    replay of the file returns.
    """

    def __init__(self, inner: ModelBackend | None, cache_path: str | Path) -> None:
        self._inner = inner
        self._path = Path(cache_path)
        self._lock = threading.Lock()
        self._entries: dict[str, object] = {}
        self._lines = 0  # complete lines read so far
        self._offset = 0  # the byte just past them
        if self._path.exists():
            self._offset = self._take(journal.read_lines(self._path))

    def _take(self, lines: Iterable[bytes]) -> int:
        """Learn rows read from the cache file; a later row for a key wins, as in replay.

        Returns the number of bytes the lines held, newlines included.
        """
        size = 0
        for line in lines:
            size += len(line) + 1
            line_no, self._lines = self._lines, self._lines + 1
            if not line.strip():
                continue
            try:
                row = decode_json(line)
                self._entries[row["key"]] = row["value"]
            except (ValueError, KeyError, TypeError) as exc:
                raise ReplayMissError(
                    f"cache {self._path} line {line_no} is damaged: {exc}"
                ) from exc
        return size

    def _resolve(self, op: str, ctx: TaskContext, *args: str) -> Any:
        """Answer query op from the cache, else from the inner backend, recording it."""
        key = _cache_key(op, ctx, *args)
        what, valid = _SHAPES[op]
        with self._lock:
            if key in self._entries:
                value = self._entries[key]
            elif self._inner is None:
                raise ReplayMissError(f"replay cache has no entry for key {key}")
            else:
                value = getattr(self._inner, op)(ctx, *args)
                if isinstance(value, (set, frozenset)):  # JSON has no sets
                    value = sorted(value)
                if valid(value):
                    value = self._record(key, value)
            if not valid(value):
                raise ReplayMissError(f"cache value for key {key} is not {what}: {value!r}")
            return value

    def _record(self, key: str, value: object) -> object:
        """Append key's row unless another recorder's came first; return the value that counts."""
        row = json.dumps({"key": key, "value": value}, sort_keys=True)

        def unless_recorded(new_lines: list[bytes]) -> str | None:
            self._take(new_lines)
            return None if key in self._entries else row

        self._offset = journal.append_unless_seen(self._path, self._offset, unless_recorded)
        return self._entries.setdefault(key, value)

    def self_confidence(self, ctx: TaskContext) -> float:
        return float(self._resolve("self_confidence", ctx))

    def source_confidence(self, ctx: TaskContext, channel: str) -> float:
        return float(self._resolve("source_confidence", ctx, channel))

    def probe_signal(self, ctx: TaskContext, card_id: str) -> float:
        return float(self._resolve("probe_signal", ctx, card_id))

    def answer(self, ctx: TaskContext, variant_key: str) -> str:
        return self._resolve("answer", ctx, variant_key)

    def self_report_tags(self, ctx: TaskContext) -> frozenset[str]:
        return frozenset(self._resolve("self_report_tags", ctx))


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
        try:
            parts = urlsplit(self.endpoint)
            usable = parts.scheme in ("http", "https") and parts.hostname and parts.port != 0
        except ValueError:  # a malformed IPv6 host, or a port that is not a number in range
            usable = False
        if not usable:
            raise ValueError(
                f"endpoint must be an http or https URL with a host, got {self.endpoint!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_concurrent < 1:
            raise ValueError("max_concurrent must be >= 1")
        if not (math.isfinite(self.timeout_s) and self.timeout_s > 0.0):
            raise ValueError(f"timeout_s must be finite and > 0, got {self.timeout_s!r}")


# transport signature: (url, headers, body_bytes, timeout_s) -> response text.
# A failed request raises OSError; it is retried, as is a reply that is not
# valid UTF-8 or JSON (a ValueError).
Transport = Callable[[str, dict[str, str], bytes, float], str]

_BACKOFF_BASE_S = 1.0
_BACKOFF_FACTOR = 2.0

# Client errors a retry can cure: request timeout and too many requests.
_RETRYABLE_4XX = (408, 429)

# A plain decimal, with an optional leading dot and exponent (.7, 5e-1). The
# lookahead stops a match cut short of its digits or exponent, and makes a
# number followed by `%` or `/` (70%, 7/10) no match: a parse failure, asked
# again.
_CONFIDENCE_RE = re.compile(
    r"confidence\s*[:=]\s*(-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:e[-+]?[0-9]+)?)"
    r"(?![0-9]|\.[0-9]|e[-+]?[0-9]|[ \t]*[%/])",
    re.IGNORECASE,
)
_TAGS_RE = re.compile(r"tags\s*[:=][ \t]*(.{0,200})", re.IGNORECASE)
_ANSWER_RE = re.compile(r"answer\s*[:=]\s*(.*)", re.IGNORECASE | re.DOTALL)


def _default_transport(url: str, headers: dict[str, str], body: bytes, timeout_s: float) -> str:
    import http.client
    import urllib.request  # about 30 ms of imports that only remote use needs

    request = urllib.request.Request(url, data=body, headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return response.read().decode("utf-8")
    except http.client.HTTPException as exc:  # a broken reply is a failed transport too
        raise OSError(repr(exc)) from exc


def _is_permanent(exc: Exception) -> bool:
    """An HTTP 4xx answer that repeating the same request cannot change."""
    import urllib.error  # only a failed remote request needs it

    return (
        isinstance(exc, urllib.error.HTTPError)
        and 400 <= exc.code < 500
        and exc.code not in _RETRYABLE_4XX
    )


def _redact(headers: dict[str, str]) -> dict[str, str]:
    return {k: ("<redacted>" if k.lower() == "authorization" else v) for k, v in headers.items()}


class _ParseFailure(Exception):
    """A response arrived but lacked the requested structured field."""


def _parse_answer(text: str) -> str:
    match = _ANSWER_RE.search(text)
    return (match.group(1) if match else text).strip()


def _parse_tags(text: str) -> frozenset[str]:
    """The first line after `tags:`; a missing or empty line, or `none`, is no tags."""
    match = _TAGS_RE.search(text)
    lines = match.group(1).strip().splitlines() if match else []
    line = lines[0] if lines else ""
    return frozenset() if line.lower() == "none" else _tag_set(line)


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

    def _request(
        self, ctx: TaskContext, request: str, reply: str, parse: Callable[[str], Any], what: str
    ) -> Any:
        """Ask one query in the shared prompt frame; parse raises _ParseFailure to ask again."""
        prompt = f"Task: {ctx.prompt}\n{request}\nReply with one line: {reply}"
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
        if log.isEnabledFor(logging.DEBUG):  # so the redacted copy is built only to be logged
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
                content = decode_json(raw)["choices"][0]["message"]["content"]
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                if _is_permanent(exc):
                    raise RemoteBackendError(
                        f"endpoint refused the request after {attempt + 1} attempt(s): {exc}"
                    ) from exc
                last_error = exc
                log.debug("attempt %d/%d failed: %s", attempt + 1, attempts, exc)
                continue
            try:
                if not isinstance(content, str):
                    raise _ParseFailure("response content is not text")
                log.debug("response: %s", content)
                return parse(content)
            except _ParseFailure as exc:
                last_error = exc
                log.debug("attempt %d/%d unparseable: %s", attempt + 1, attempts, exc)
        if isinstance(last_error, _ParseFailure):
            raise MissingSignalError(
                f"{last_error} for {what} after {attempts} attempt(s)"
            ) from last_error
        raise RemoteBackendError(
            f"endpoint failed after {attempts} attempt(s): {last_error}"
        ) from last_error

    def _confidence(self, ctx: TaskContext, request: str, what: str) -> float:
        def parse(text: str) -> float:
            match = _CONFIDENCE_RE.search(text)
            if not match:
                raise _ParseFailure("no parseable confidence in response")
            value = float(match.group(1))
            if not 0.0 <= value <= 1.0:
                clamped = min(1.0, max(0.0, value))
                log.warning("clamping out-of-range confidence %s to %s for %s", value, clamped, what)
                value = clamped
            return value

        return self._request(ctx, request, "confidence: <number between 0 and 1>", parse, what)

    def self_confidence(self, ctx: TaskContext) -> float:
        stage = (
            "after consulting the external source"
            if ctx.pre_offload_p_self is not None
            else "before using any external source"
        )
        return self._confidence(
            ctx,
            f"Rate your certainty ({stage}) that your own knowledge suffices.",
            "self_confidence",
        )

    def source_confidence(self, ctx: TaskContext, channel: str) -> float:
        return self._confidence(
            ctx,
            f"Rate how likely the external source {channel!r} is to produce a "
            "correct result for this task.",
            f"source_confidence:{channel}",
        )

    def probe_signal(self, ctx: TaskContext, card_id: str) -> float:
        return self._confidence(
            ctx,
            f"Without loading the skill {card_id!r}, rate your certainty that "
            "you could complete the task from your own knowledge.",
            f"probe:{card_id}",
        )

    def answer(self, ctx: TaskContext, variant_key: str) -> str:
        return self._request(
            ctx,
            f"Respond in mode {variant_key!r}.",
            "answer: <your answer>",
            _parse_answer,
            f"answer:{variant_key}",
        )

    def self_report_tags(self, ctx: TaskContext) -> frozenset[str]:
        return self._request(
            ctx,
            "List applicable tags from: trivial, trap.",
            "tags: <comma-separated list, or none>",
            _parse_tags,
            "tags",
        )
