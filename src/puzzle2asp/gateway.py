"""Text-completion backends: live HTTP, record/replay cassettes, scripted queues.

Every backend exposes a single method, ``complete(request) -> str``.  The
replay machinery keys responses on a fingerprint of the request so that a
recorded run can be re-executed byte-for-byte without network access, and
so that tests can assert two prompts are (or are not) the same request.
The credential never leaves the process: cassettes store the request
snapshot without any authorization material.
"""
from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path
from typing import Protocol


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    model: str
    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 2048
    stop: tuple[str, ...] | None = None

    @cached_property
    def fingerprint(self) -> str:
        """The request's hash, computed on first use and kept on the request."""
        return _request_hash(self)


def fingerprint(request: CompletionRequest) -> str:
    """Stable hash of the request; trailing whitespace per prompt line is ignored."""
    return request.fingerprint


def _request_hash(request: CompletionRequest) -> str:
    normalized = "\n".join(line.rstrip() for line in request.prompt.split("\n"))
    payload = json.dumps(
        {
            "prompt": normalized,
            "model": request.model,
            "temperature": float(request.temperature),
            "top_p": float(request.top_p),
            "max_tokens": request.max_tokens,
            "stop": list(request.stop) if request.stop else None,
        },
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Backend(Protocol):
    def complete(self, request: CompletionRequest) -> str: ...


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class TransportError(Exception):
    """Network failure or non-retryable HTTP error from the live backend."""


class RateLimited(Exception):
    def __init__(self, retry_after: float | None = None):
        super().__init__(
            "rate limited" + (f", retry after {retry_after:g}s" if retry_after else "")
        )
        self.retry_after = retry_after


class ReplayMiss(Exception):
    def __init__(self, fp: str):
        super().__init__(f"no cassette entry for fingerprint {fp}")
        self.fingerprint = fp


class QueueEmpty(Exception):
    """A scripted backend ran out of queued responses."""


# What a backend may raise for a failed call; anything else is a bug.
BACKEND_ERRORS = (TransportError, RateLimited, ReplayMiss, QueueEmpty)


# ---------------------------------------------------------------------------
# Cassette storage
# ---------------------------------------------------------------------------


@dataclass
class CassetteEntry:
    fingerprint: str
    request: dict
    response_text: str
    recorded_at: str


def _line(entry: CassetteEntry) -> str:
    return json.dumps(asdict(entry), ensure_ascii=False) + "\n"


_ENTRY_TYPES = {"fingerprint": str, "request": dict, "response_text": str}


def _is_entry(item) -> bool:
    return isinstance(item, dict) and all(
        isinstance(item.get(key), kind) for key, kind in _ENTRY_TYPES.items()
    )


class Cassette:
    """Fingerprint-keyed store of request/response pairs, kept as JSON Lines.

    The file holds one entry object per line.  A save to the cassette's own
    file appends only the entries recorded since the last save, so a run
    killed mid-write loses at most its last, truncated line: `load` drops
    that line and the next save rewrites the file whole.  Older
    single-object ``{"entries": [...]}`` files still load and are rewritten
    as JSON Lines on the next save.

    Fingerprints are unique within a cassette: recording an already-present
    request is a no-op (the stored response is reused), which makes record
    mode resumable.  All mutation is lock-serialized, so one cassette can
    back many worker threads.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self.entries: list[CassetteEntry] = []
        self._index: dict[str, CassetteEntry] = {}
        self._lock = threading.Lock()
        # How many leading entries are lines of `path`; None until that file
        # is known to be clean JSON Lines, so the next save writes it whole.
        self._saved: int | None = None

    @classmethod
    def load(cls, path: str | Path) -> "Cassette":
        """Read a cassette file.  Raises ValueError naming the path and the line
        (the entry, in the old format) of anything that is not an entry."""
        cassette = cls(path)
        text = Path(path).read_text(encoding="utf-8")
        try:
            legacy = json.loads(text)
        except json.JSONDecodeError:
            legacy = None  # several lines, or one cut off
        if isinstance(legacy, dict) and "entries" in legacy:
            entries = legacy["entries"]
            if not isinstance(entries, list):
                raise ValueError(f'{path}: "entries" is not a list')
            items = [(f"entry {number}", item) for number, item in enumerate(entries, 1)]
            clean = False
        else:
            *lines, tail = text.split("\n")
            items = []
            for number, line in enumerate(lines, 1):
                if line.strip():
                    try:
                        items.append((f"line {number}", json.loads(line)))
                    except json.JSONDecodeError as exc:
                        raise ValueError(f"{path}: line {number} is not a cassette entry: {exc}") from exc
            clean = not tail
            if tail:
                try:
                    items.append((f"line {len(lines) + 1}", json.loads(tail)))
                except json.JSONDecodeError:
                    pass  # the last line was cut off mid-write
        for where, item in items:
            if not _is_entry(item):
                raise ValueError(f"{path}: {where} is not a cassette entry")
            if item["fingerprint"] in cassette._index:
                continue  # the first entry wins, as in `record`
            entry = CassetteEntry(
                fingerprint=item["fingerprint"],
                request=item["request"],
                response_text=item["response_text"],
                recorded_at=item.get("recorded_at", ""),
            )
            cassette.entries.append(entry)
            cassette._index[entry.fingerprint] = entry
        if clean:
            cassette._saved = len(cassette.entries)
        return cassette

    def save(self, path: str | Path | None = None) -> None:
        """Append the unsaved entries to the cassette's own clean file, or
        write `path` whole through a temp file and a rename."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("cassette has no path to save to")
        own = target == self.path
        with self._lock:
            if own and self._saved is not None:
                with target.open("a", encoding="utf-8") as f:
                    f.write("".join(map(_line, self.entries[self._saved :])))
            else:
                # The lock is held until the rename: concurrent saves share one temp path.
                tmp = target.with_suffix(target.suffix + ".tmp")
                tmp.write_text("".join(map(_line, self.entries)), encoding="utf-8")
                tmp.replace(target)
            if own:
                self._saved = len(self.entries)

    def lookup(self, fp: str) -> str | None:
        with self._lock:
            entry = self._index.get(fp)
        return entry.response_text if entry else None

    def record(self, request: CompletionRequest, response_text: str) -> None:
        fp = request.fingerprint
        with self._lock:
            if fp in self._index:
                return
            entry = CassetteEntry(
                fingerprint=fp,
                request={
                    "prompt": request.prompt,
                    "model": request.model,
                    "temperature": request.temperature,
                    "top_p": request.top_p,
                    "max_tokens": request.max_tokens,
                    "stop": list(request.stop) if request.stop else None,
                },
                response_text=response_text,
                recorded_at=datetime.now(timezone.utc).isoformat(),
            )
            self.entries.append(entry)
            self._index[fp] = entry


# ---------------------------------------------------------------------------
# Offline backends
# ---------------------------------------------------------------------------


class ScriptedBackend:
    """Pops pre-seeded responses in order; raises QueueEmpty when drained."""

    def __init__(self, responses: list[str] | None = None):
        self._queue: deque[str] = deque(responses or [])
        self.requests: list[CompletionRequest] = []
        self._lock = threading.Lock()

    def push(self, response: str) -> None:
        with self._lock:
            self._queue.append(response)

    def complete(self, request: CompletionRequest) -> str:
        with self._lock:
            self.requests.append(request)
            if not self._queue:
                raise QueueEmpty("scripted backend has no response left")
            return self._queue.popleft()


class ReplayBackend:
    """Serves responses from a cassette; raises ReplayMiss on unknown requests."""

    def __init__(self, cassette: Cassette):
        self.cassette = cassette

    @classmethod
    def from_path(cls, path: str | Path) -> "ReplayBackend":
        return cls(Cassette.load(path))

    def complete(self, request: CompletionRequest) -> str:
        fp = request.fingerprint
        response = self.cassette.lookup(fp)
        if response is None:
            raise ReplayMiss(fp)
        return response


class RecordingBackend:
    """Record-through wrapper: replay on a cassette hit, else ask `inner` and store.

    A cassette with a path is saved after every new entry, which appends
    that one line to its file, so an interrupted run keeps what it paid for.

    Threads that miss on the same request at once make one call between
    them: the first asks `inner`, the others wait until its entry is
    recorded and saved and then return that entry, so every caller gets the
    response the cassette keeps.  If the call fails, its error goes to the
    first thread only, and the next waiter makes the call itself.
    """

    def __init__(self, inner: Backend, cassette: Cassette):
        self.inner = inner
        self.cassette = cassette
        self._lock = threading.Lock()
        self._calls: dict[str, threading.Event] = {}  # fingerprint -> set once it is done

    def complete(self, request: CompletionRequest) -> str:
        fp = request.fingerprint
        while True:
            # The lookup and the claim are one step under the lock, and a
            # call is unclaimed only after its entry is recorded, so a
            # thread either finds the entry or finds the call in flight.
            with self._lock:
                cached = self.cassette.lookup(fp)
                if cached is not None:
                    return cached
                done = self._calls.get(fp)
                if done is None:
                    done = self._calls[fp] = threading.Event()
                    break
            done.wait()
        try:
            response = self.inner.complete(request)
            self.cassette.record(request, response)
            if self.cassette.path is not None:
                self.cassette.save()
        finally:
            with self._lock:
                del self._calls[fp]
            done.set()
        return response


# ---------------------------------------------------------------------------
# Live backend
# ---------------------------------------------------------------------------


@dataclass
class GatewayConfig:
    """Connection settings for an OpenAI-compatible completion endpoint."""

    endpoint: str = "https://api.openai.com/v1"
    api_style: str = "chat"  # "chat" -> /chat/completions, "completions" -> /completions
    api_key_env: str = "OPENAI_API_KEY"
    timeout_s: float = 120.0
    max_retries: int = 3  # applies to rate limits and transient 5xx only
    max_in_flight: int = 4
    requests_per_minute: int | None = None
    backoff_base_s: float = 1.0

    def __post_init__(self) -> None:
        if self.api_style not in ("chat", "completions"):
            raise ValueError(f'api_style must be "chat" or "completions", not {self.api_style!r}')
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be at least 1, not {self.max_in_flight}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be at least 0, not {self.max_retries}")
        if self.requests_per_minute is not None and self.requests_per_minute < 0:
            raise ValueError(
                "requests_per_minute must be at least 0 (0 means no limit), "
                f"not {self.requests_per_minute}"
            )
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be greater than 0, not {self.timeout_s}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be at least 0, not {self.backoff_base_s}")

    @classmethod
    def from_file(cls, path: str | Path) -> "GatewayConfig":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown gateway config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_env(cls) -> "GatewayConfig":
        config = cls()
        base = os.environ.get("OPENAI_BASE_URL")
        if base:
            config.endpoint = base
        return config


class LiveBackend:
    """HTTP client for OpenAI-style chat/completions endpoints.

    Retries with exponential backoff on HTTP 429 and 5xx, up to
    ``config.max_retries`` times; any other 4xx fails immediately.  The
    credential is read from ``config.api_key_env`` at call time and never
    stored on the instance.
    """

    def __init__(self, config: GatewayConfig | None = None, session=None):
        # requests is imported here and in `complete`, not at module level:
        # it is most of the package's import time, and only this class uses it.
        import requests

        self.config = config or GatewayConfig.from_env()
        self._session = session or requests.Session()
        self._semaphore = threading.BoundedSemaphore(self.config.max_in_flight)
        self._recent: deque[float] = deque()
        self._rate_lock = threading.Lock()
        self._sleep = time.sleep

    def _respect_rate_budget(self) -> None:
        rpm = self.config.requests_per_minute
        if not rpm:
            return
        while True:
            with self._rate_lock:
                now = time.monotonic()
                while self._recent and now - self._recent[0] > 60.0:
                    self._recent.popleft()
                if len(self._recent) < rpm:
                    self._recent.append(now)
                    return
                wait = 60.0 - (now - self._recent[0])
            self._sleep(max(wait, 0.05))

    def _url(self) -> str:
        base = self.config.endpoint.rstrip("/")
        suffix = "/chat/completions" if self.config.api_style == "chat" else "/completions"
        return base + suffix

    def _payload(self, request: CompletionRequest) -> dict:
        payload: dict = {
            "model": request.model,
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": request.max_tokens,
        }
        if request.stop:
            payload["stop"] = list(request.stop)
        if self.config.api_style == "chat":
            payload["messages"] = [{"role": "user", "content": request.prompt}]
        else:
            payload["prompt"] = request.prompt
        return payload

    @staticmethod
    def _retry_after(response) -> float | None:
        value = response.headers.get("Retry-After")
        if value is None:
            return None
        try:
            return float(value)
        except ValueError:
            return None

    def _extract_text(self, data: dict) -> str:
        try:
            choice = data["choices"][0]
            if self.config.api_style == "chat":
                return choice["message"]["content"]
            return choice["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc

    def complete(self, request: CompletionRequest) -> str:
        import requests

        key = os.environ.get(self.config.api_key_env)
        if not key:
            raise TransportError(
                f"credential not configured: set the {self.config.api_key_env} environment variable"
            )
        headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
        last_rate: RateLimited | None = None
        with self._semaphore:
            for attempt in range(self.config.max_retries + 1):
                self._respect_rate_budget()
                try:
                    response = self._session.post(
                        self._url(),
                        json=self._payload(request),
                        headers=headers,
                        timeout=self.config.timeout_s,
                    )
                except requests.RequestException as exc:
                    raise TransportError(f"request failed: {exc}") from exc
                if response.status_code == 200:
                    try:
                        data = response.json()
                    except ValueError as exc:
                        raise TransportError(f"response body is not JSON: {exc}") from exc
                    return self._extract_text(data)
                if response.status_code == 429:
                    retry_after = self._retry_after(response)
                    last_rate = RateLimited(retry_after)
                    if attempt < self.config.max_retries:
                        self._sleep(retry_after or self.config.backoff_base_s * 2**attempt)
                        continue
                    raise last_rate
                if 500 <= response.status_code < 600:
                    if attempt < self.config.max_retries:
                        self._sleep(self.config.backoff_base_s * 2**attempt)
                        continue
                    raise TransportError(f"server error {response.status_code} after retries")
                raise TransportError(f"HTTP {response.status_code}: {response.text[:200]}")
        raise AssertionError("unreachable")


def build_backend(
    kind: str,
    *,
    cassette_path: str | Path | None = None,
    record: bool = False,
    scripted_responses: list[str] | None = None,
    config: GatewayConfig | None = None,
) -> Backend:
    """The one backend factory: live, replay, or scripted, optionally recording."""
    if kind == "replay":
        if cassette_path is None:
            raise ValueError("replay backend needs --cassette")
        if record:
            # One --cassette path cannot be both the replay source and the record target.
            raise ValueError("--record does not work with the replay backend")
        return ReplayBackend.from_path(cassette_path)
    if kind == "scripted":
        if scripted_responses is None:
            raise ValueError("scripted backend needs --script")
        inner: Backend = ScriptedBackend(scripted_responses)
    elif kind == "live":
        inner = LiveBackend(config)
    else:
        raise ValueError(f"unknown backend kind {kind!r}")
    if not record:
        return inner
    if cassette_path is None:
        raise ValueError("--record needs --cassette")
    path = Path(cassette_path)
    return RecordingBackend(inner, Cassette.load(path) if path.exists() else Cassette(path))
