"""Backend tests: fingerprints, cassettes, scripted queues, and the HTTP client."""
from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import puzzle2asp
from puzzle2asp import gateway
from puzzle2asp.bench import OutcomeKind, evaluate_case, load_dataset
from puzzle2asp.cli import main
from puzzle2asp.gateway import (
    Cassette,
    CompletionRequest,
    GatewayConfig,
    LiveBackend,
    QueueEmpty,
    RateLimited,
    RecordingBackend,
    ReplayBackend,
    ReplayMiss,
    ScriptedBackend,
    TransportError,
    build_backend,
    fingerprint,
)

from conftest import DATA_DIR

REQ = CompletionRequest(prompt="Solve this puzzle.", model="gpt-4")


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_is_stable():
    assert fingerprint(REQ) == fingerprint(CompletionRequest("Solve this puzzle.", "gpt-4"))


def test_fingerprint_ignores_trailing_whitespace_per_line():
    messy = CompletionRequest("Solve this puzzle.  \t", "gpt-4")
    assert fingerprint(messy) == fingerprint(REQ)


def test_fingerprint_keeps_leading_whitespace():
    indented = CompletionRequest("  Solve this puzzle.", "gpt-4")
    assert fingerprint(indented) != fingerprint(REQ)


@pytest.mark.parametrize(
    "other",
    [
        CompletionRequest("Solve this puzzle!", "gpt-4"),
        CompletionRequest("Solve this puzzle.", "gpt-3.5-turbo"),
        CompletionRequest("Solve this puzzle.", "gpt-4", temperature=0.7),
        CompletionRequest("Solve this puzzle.", "gpt-4", top_p=0.9),
        CompletionRequest("Solve this puzzle.", "gpt-4", max_tokens=128),
        CompletionRequest("Solve this puzzle.", "gpt-4", stop=("\n\n",)),
    ],
)
def test_fingerprint_distinguishes_every_field(other):
    assert fingerprint(other) != fingerprint(REQ)


@given(st.lists(st.text(st.characters(min_codepoint=33, max_codepoint=126), max_size=12), max_size=6))
@settings(max_examples=100, deadline=None)
def test_fingerprint_whitespace_invariance(lines):
    plain = CompletionRequest("\n".join(lines), "m")
    padded = CompletionRequest("\n".join(line + "  \t" for line in lines), "m")
    assert fingerprint(plain) == fingerprint(padded)


# ---------------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------------


def test_scripted_pops_in_order_and_logs_requests():
    backend = ScriptedBackend(["first", "second"])
    assert backend.complete(REQ) == "first"
    assert backend.complete(REQ) == "second"
    assert len(backend.requests) == 2


def test_scripted_raises_when_drained():
    backend = ScriptedBackend(["only"])
    backend.complete(REQ)
    with pytest.raises(QueueEmpty):
        backend.complete(REQ)


def test_scripted_push_appends():
    backend = ScriptedBackend()
    backend.push("late")
    assert backend.complete(REQ) == "late"


# ---------------------------------------------------------------------------
# Cassettes and replay
# ---------------------------------------------------------------------------


def test_cassette_roundtrip(tmp_path):
    path = tmp_path / "run.cassette.json"
    cassette = Cassette(path)
    cassette.record(REQ, "answer")
    cassette.save()
    loaded = Cassette.load(path)
    assert loaded.lookup(fingerprint(REQ)) == "answer"
    assert len(loaded.entries) == 1
    assert not path.with_suffix(".json.tmp").exists()


def test_cassette_recording_twice_keeps_first_response():
    cassette = Cassette()
    cassette.record(REQ, "first")
    cassette.record(REQ, "second")
    assert len(cassette.entries) == 1
    assert cassette.lookup(fingerprint(REQ)) == "first"


def test_cassette_never_stores_credentials(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-super-secret")
    path = tmp_path / "run.cassette.json"
    cassette = Cassette(path)
    cassette.record(REQ, "answer")
    cassette.save()
    text = path.read_text()
    assert "sk-super-secret" not in text
    assert "Authorization" not in text


def test_replay_hit_and_miss():
    cassette = Cassette()
    cassette.record(REQ, "answer")
    backend = ReplayBackend(cassette)
    assert backend.complete(REQ) == "answer"
    other = CompletionRequest("Different prompt.", "gpt-4")
    with pytest.raises(ReplayMiss) as info:
        backend.complete(other)
    assert info.value.fingerprint == fingerprint(other)


def test_recording_backend_records_then_replays(tmp_path):
    path = tmp_path / "run.cassette.json"
    inner = ScriptedBackend(["answer"])  # a second call would raise QueueEmpty
    backend = RecordingBackend(inner, Cassette(path))
    assert backend.complete(REQ) == "answer"
    assert path.exists()  # flushed immediately
    assert backend.complete(REQ) == "answer"  # served from the cassette
    assert len(inner.requests) == 1


def test_recording_backend_without_path_skips_autosave():
    backend = RecordingBackend(ScriptedBackend(["answer"]), Cassette())
    assert backend.complete(REQ) == "answer"
    assert backend.complete(REQ) == "answer"


def test_recording_resumes_from_existing_cassette(tmp_path):
    path = tmp_path / "run.cassette.json"
    first = RecordingBackend(ScriptedBackend(["answer"]), Cassette(path))
    first.complete(REQ)
    resumed = RecordingBackend(ScriptedBackend([]), Cassette.load(path))
    assert resumed.complete(REQ) == "answer"  # no inner call needed


def test_recording_backend_saves_safely_from_many_threads(tmp_path):
    path = tmp_path / "run.cassette.json"
    threads, per_thread = 8, 50
    backend = RecordingBackend(ScriptedBackend(["answer"] * threads * per_thread), Cassette(path))
    errors: list[BaseException] = []

    def worker(t: int) -> None:
        for i in range(per_thread):
            try:
                backend.complete(CompletionRequest(f"prompt {t} {i}", "gpt-4"))
            except Exception as exc:
                errors.append(exc)

    pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert errors == []
    assert len(Cassette.load(path).entries) == threads * per_thread
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == threads * per_thread
    assert all(json.loads(line)["response_text"] == "answer" for line in lines)


class HeldBackend:
    """Answers "answer N" on its Nth call; the first call waits for `release`
    and then fails if `fail_first`."""

    def __init__(self, fail_first: bool):
        self.fail_first = fail_first
        self.calls = 0
        self.started, self.release = threading.Event(), threading.Event()

    def complete(self, request: CompletionRequest) -> str:
        self.calls += 1
        if self.calls == 1:
            self.started.set()
            self.release.wait(5)
            if self.fail_first:
                raise TransportError("first call failed")
        return f"answer {self.calls}"


def _race(backend: RecordingBackend, inner: HeldBackend) -> list:
    """Two threads ask for REQ; the second asks while the first is in its call."""
    results: list = [None, None]

    def call(slot: int) -> None:
        try:
            results[slot] = backend.complete(REQ)
        except TransportError as exc:
            results[slot] = exc

    threads = [threading.Thread(target=call, args=(slot,)) for slot in (0, 1)]
    threads[0].start()
    assert inner.started.wait(5)
    threads[1].start()
    time.sleep(0.05)  # lets the second thread reach its wait
    inner.release.set()
    for thread in threads:
        thread.join(5)
        assert not thread.is_alive()
    return results


def test_concurrent_misses_on_one_request_make_one_call(tmp_path):
    inner = HeldBackend(fail_first=False)
    backend = RecordingBackend(inner, Cassette(tmp_path / "run.cassette.json"))
    assert _race(backend, inner) == ["answer 1", "answer 1"]
    assert inner.calls == 1
    assert [e.response_text for e in Cassette.load(backend.cassette.path).entries] == ["answer 1"]


def test_a_waiter_makes_the_call_when_the_first_call_fails(tmp_path):
    inner = HeldBackend(fail_first=True)
    backend = RecordingBackend(inner, Cassette(tmp_path / "run.cassette.json"))
    first, second = _race(backend, inner)
    assert isinstance(first, TransportError) and second == "answer 2"
    assert inner.calls == 2
    assert backend.complete(REQ) == "answer 2"


def _mini_cassette() -> Cassette:
    """Every mini case's requests with their scripted responses."""
    scripts = json.loads((DATA_DIR / "mini_script.json").read_text())
    cassette = Cassette()
    for case in load_dataset(DATA_DIR / "mini.jsonl"):
        evaluate_case(case, RecordingBackend(ScriptedBackend(scripts[case.id]), cassette))
    return cassette


def test_replay_and_a_record_miss_hash_each_request_once(tmp_path, monkeypatch):
    source = _mini_cassette()
    case = load_dataset(DATA_DIR / "mini.jsonl")[0]
    hashed: list[CompletionRequest] = []
    request_hash = gateway._request_hash
    monkeypatch.setattr(gateway, "_request_hash", lambda r: hashed.append(r) or request_hash(r))
    recording = RecordingBackend(ReplayBackend(source), Cassette(tmp_path / "run.cassette.json"))
    for backend in (ReplayBackend(source), recording):
        hashed.clear()
        result = evaluate_case(case, backend)
        assert result.outcome.kind == OutcomeKind.CORRECT
        # Each stage makes one request, and each request is hashed once.
        assert len(hashed) == len({id(r) for r in hashed}) == len(result.trace.records)
    assert len(recording.cassette.entries) == len(hashed)  # every request was a miss


def _request(i: int) -> CompletionRequest:
    return CompletionRequest(f"prompt {i}", "gpt-4")


def _entry(i: int, response: str = "answer") -> dict:
    cassette = Cassette()
    cassette.record(_request(i), response)
    (entry,) = cassette.entries
    return asdict(entry)


def test_each_save_appends_one_entry_line(tmp_path):
    path = tmp_path / "run.cassette.json"
    backend = RecordingBackend(ScriptedBackend(["answer"] * 5), Cassette(path))
    backend.complete(_request(0))
    for i in range(1, 5):
        before = path.read_text(encoding="utf-8")
        backend.complete(_request(i))
        after = path.read_text(encoding="utf-8")
        assert after.startswith(before)
        added = after[len(before):]
        assert added.count("\n") == 1 and added.endswith("\n")
        assert json.loads(added)["request"]["prompt"] == f"prompt {i}"


def test_line_separators_in_a_response_survive_a_reload(tmp_path):
    # Entries are written with ensure_ascii=False, so U+2028 and U+0085 stay
    # raw in the file; only "\n" may end a line.
    path = tmp_path / "run.cassette.json"
    odd = "a\u2028b\u0085c\rd\ne \u00e9"
    backend = RecordingBackend(ScriptedBackend(["answer", odd]), Cassette(path))
    backend.complete(_request(0))
    backend.complete(_request(1))
    assert Cassette.load(path).lookup(fingerprint(_request(1))) == odd


def test_truncated_last_line_is_dropped_then_rewritten(tmp_path):
    path = tmp_path / "run.cassette.json"
    whole = "".join(json.dumps(_entry(i)) + "\n" for i in range(3))
    path.write_text(whole[: len(whole) - 20], encoding="utf-8")  # killed mid-write
    cassette = Cassette.load(path)
    assert [e.request["prompt"] for e in cassette.entries] == ["prompt 0", "prompt 1"]
    RecordingBackend(ScriptedBackend(["again"]), cassette).complete(_request(2))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["request"]["prompt"] for line in lines] == ["prompt 0", "prompt 1", "prompt 2"]
    assert Cassette.load(path).lookup(fingerprint(_request(2))) == "again"


def test_bad_line_before_the_last_raises(tmp_path):
    path = tmp_path / "run.cassette.json"
    path.write_text(json.dumps(_entry(0))[:-5] + "\n" + json.dumps(_entry(1)) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 1"):
        Cassette.load(path)


@pytest.mark.parametrize("bad", ["{}", "[1]", "5", '{"fingerprint": ["x"]}'])
@pytest.mark.parametrize("last", [False, True])
def test_json_line_that_is_not_an_entry_raises(tmp_path, bad, last):
    path = tmp_path / "run.cassette.json"
    lines = [json.dumps(_entry(0)), bad] + ([] if last else [json.dumps(_entry(1))])
    text = "\n".join(lines)  # a last line without a newline still has to be an entry
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"{path.name}: line 2 is not a cassette entry"):
        Cassette.load(path)


@pytest.mark.parametrize("entries", [[{}], [[1]], 5, [{"fingerprint": "x", "request": {}}]])
def test_legacy_entry_that_is_not_an_entry_raises(tmp_path, entries):
    path = tmp_path / "run.cassette.json"
    if isinstance(entries, list):
        entries = [_entry(0)] + entries
    path.write_text(json.dumps({"entries": entries}, indent=2), encoding="utf-8")
    expected = "entry 2 is not a cassette entry" if isinstance(entries, list) else '"entries" is not a list'
    with pytest.raises(ValueError, match=f"{path.name}: {expected}"):
        Cassette.load(path)


def test_legacy_cassette_loads_and_is_rewritten_as_json_lines(tmp_path):
    path = tmp_path / "run.cassette.json"
    legacy = {"entries": [_entry(0), _entry(1)]}
    path.write_text(json.dumps(legacy, indent=2, ensure_ascii=False) + "\n", encoding="utf-8")
    cassette = Cassette.load(path)
    assert cassette.lookup(fingerprint(_request(1))) == "answer"
    RecordingBackend(ScriptedBackend(["new"]), cassette).complete(_request(2))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["request"]["prompt"] for line in lines] == ["prompt 0", "prompt 1", "prompt 2"]


@pytest.mark.parametrize("legacy", [False, True])
def test_repeated_fingerprint_in_a_file_keeps_the_first_response(tmp_path, legacy):
    path = tmp_path / "run.cassette.json"
    entries = [_entry(0, "first"), _entry(1), _entry(0, "second")]
    if legacy:
        path.write_text(json.dumps({"entries": entries}, indent=2), encoding="utf-8")
    else:
        path.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
    cassette = Cassette.load(path)
    assert cassette.lookup(fingerprint(_request(0))) == "first"
    assert len(cassette.entries) == 2


def test_save_to_another_path_writes_it_whole(tmp_path):
    path, copy = tmp_path / "run.cassette.json", tmp_path / "copy.cassette.json"
    backend = RecordingBackend(ScriptedBackend(["answer"] * 2), Cassette(path))
    backend.complete(_request(0))
    backend.cassette.save(copy)
    backend.complete(_request(1))
    backend.cassette.save(copy)
    assert copy.read_text(encoding="utf-8") == path.read_text(encoding="utf-8")
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2


# ---------------------------------------------------------------------------
# Live backend, driven through a fake HTTP session
# ---------------------------------------------------------------------------


class FakeResponse:
    def __init__(self, status_code, body=None, headers=None, text=""):
        self.status_code = status_code
        self._body = body if body is not None else {}
        self.headers = headers or {}
        self.text = text

    def json(self):
        return self._body


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls: list[SimpleNamespace] = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append(SimpleNamespace(url=url, payload=json, headers=headers, timeout=timeout))
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def chat_ok(text="answer"):
    return FakeResponse(200, {"choices": [{"message": {"content": text}}]})


def live(monkeypatch, outcomes, **config_kwargs):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    session = FakeSession(outcomes)
    backend = LiveBackend(GatewayConfig(**config_kwargs), session=session)
    sleeps: list[float] = []
    backend._sleep = sleeps.append
    return backend, session, sleeps


class SamplingSession:
    """A chat endpoint that gives each prompt its `answers` entry on the
    first call and a new wrong answer on every later call, as a sampling
    endpoint would.  Each call takes a few milliseconds, so threads overlap."""

    def __init__(self, answers: dict[str, str]):
        self.answers = answers
        self.prompts: list[str] = []
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        prompt = json["messages"][0]["content"]
        with self._lock:
            self.prompts.append(prompt)
            calls = len(self.prompts)
            first = self.prompts.count(prompt) == 1
        time.sleep(0.005)
        answer = self.answers.get(prompt) if first else None
        return chat_ok(answer or f"answer {calls}")


def test_bench_records_each_request_once_with_workers(tmp_path, monkeypatch, capsys):
    # Two copies of each mini case, side by side, so that workers miss on
    # the same requests at the same time.
    rows = [json.loads(line) for line in (DATA_DIR / "mini.jsonl").read_text().splitlines()]
    dataset = tmp_path / "twice.jsonl"
    dataset.write_text(
        "".join(json.dumps({**row, "id": f"{row['id']}_{copy}"}) + "\n" for row in rows for copy in (1, 2))
    )
    answers = {entry.request["prompt"]: entry.response_text for entry in _mini_cassette().entries}
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    monkeypatch.delenv("OPENAI_BASE_URL", raising=False)
    reports = []
    for workers in ("1", "4"):
        session = SamplingSession(answers)
        monkeypatch.setattr(requests, "Session", lambda: session)
        cassette, out = tmp_path / f"{workers}.cassette.json", tmp_path / f"{workers}.json"
        args = ["--backend", "live", "--record", "--cassette", str(cassette), "--out", str(out)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads switch often, so races show
        try:
            assert main(["bench", str(dataset), "--workers", workers, *args]) == 0
        finally:
            sys.setswitchinterval(interval)
        assert sorted(session.prompts) == sorted(answers)  # one call per distinct request
        kept = Cassette.load(cassette).entries
        assert len(kept) == len(answers)
        assert {e.request["prompt"]: e.response_text for e in kept} == answers
        reports.append(out.read_bytes())
    replayed = tmp_path / "replayed.json"
    args = ["--backend", "replay", "--cassette", str(cassette), "--out", str(replayed)]
    assert main(["bench", str(dataset), *args]) == 0
    capsys.readouterr()
    assert reports[0] == reports[1] == replayed.read_bytes()


def test_chat_payload_shape(monkeypatch):
    backend, session, _ = live(monkeypatch, [chat_ok("hello")])
    assert backend.complete(REQ) == "hello"
    (call,) = session.calls
    assert call.url.endswith("/chat/completions")
    assert call.payload["messages"] == [{"role": "user", "content": REQ.prompt}]
    assert call.payload["model"] == "gpt-4"
    assert call.headers["Authorization"] == "Bearer sk-test"
    assert call.timeout == 120.0


def test_completions_payload_shape(monkeypatch):
    response = FakeResponse(200, {"choices": [{"text": "plain"}]})
    backend, session, _ = live(monkeypatch, [response], api_style="completions")
    assert backend.complete(REQ) == "plain"
    (call,) = session.calls
    assert call.url.endswith("/completions")
    assert not call.url.endswith("/chat/completions")
    assert call.payload["prompt"] == REQ.prompt
    assert "messages" not in call.payload


def test_stop_sequences_forwarded(monkeypatch):
    backend, session, _ = live(monkeypatch, [chat_ok()])
    backend.complete(CompletionRequest("p", "m", stop=("Problem 4:",)))
    assert session.calls[0].payload["stop"] == ["Problem 4:"]


def test_rate_limit_retries_and_honors_retry_after(monkeypatch):
    limited = FakeResponse(429, headers={"Retry-After": "1.5"})
    backend, session, sleeps = live(monkeypatch, [limited, chat_ok("eventually")])
    assert backend.complete(REQ) == "eventually"
    assert len(session.calls) == 2
    assert sleeps == [1.5]


def test_rate_limit_exhausts_retries(monkeypatch):
    outcomes = [FakeResponse(429)] * 4
    backend, session, sleeps = live(monkeypatch, outcomes, max_retries=3, backoff_base_s=1.0)
    with pytest.raises(RateLimited):
        backend.complete(REQ)
    assert len(session.calls) == 4  # initial try + 3 retries
    assert sleeps == [1.0, 2.0, 4.0]  # exponential backoff


def test_server_error_retries_then_fails(monkeypatch):
    outcomes = [FakeResponse(500)] * 3
    backend, session, _ = live(monkeypatch, outcomes, max_retries=2)
    with pytest.raises(TransportError):
        backend.complete(REQ)
    assert len(session.calls) == 3


def test_server_error_then_success(monkeypatch):
    backend, session, _ = live(monkeypatch, [FakeResponse(502), chat_ok("ok")])
    assert backend.complete(REQ) == "ok"
    assert len(session.calls) == 2


def test_client_error_fails_immediately(monkeypatch):
    backend, session, sleeps = live(monkeypatch, [FakeResponse(400, text="bad request")])
    with pytest.raises(TransportError):
        backend.complete(REQ)
    assert len(session.calls) == 1
    assert sleeps == []


def test_network_failure_wrapped(monkeypatch):
    backend, _, _ = live(monkeypatch, [requests.ConnectionError("boom")])
    with pytest.raises(TransportError):
        backend.complete(REQ)


def test_malformed_body_wrapped(monkeypatch):
    backend, _, _ = live(monkeypatch, [FakeResponse(200, {"choices": []})])
    with pytest.raises(TransportError):
        backend.complete(REQ)


def test_non_json_body_wrapped(monkeypatch):
    class HtmlResponse(FakeResponse):
        def json(self):
            return json.loads(self.text)

    backend, _, _ = live(monkeypatch, [HtmlResponse(200, text="<html>Bad Gateway</html>")])
    with pytest.raises(TransportError, match="not JSON"):
        backend.complete(REQ)


def test_missing_credential_fails_before_any_request(monkeypatch):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    session = FakeSession([chat_ok()])
    backend = LiveBackend(GatewayConfig(), session=session)
    with pytest.raises(TransportError) as info:
        backend.complete(REQ)
    assert "OPENAI_API_KEY" in str(info.value)
    assert session.calls == []


def test_credential_not_stored_on_instance(monkeypatch):
    backend, _, _ = live(monkeypatch, [chat_ok()])
    backend.complete(REQ)
    assert "sk-test" not in repr(vars(backend))


def test_requests_per_minute_budget(monkeypatch):
    clock = {"t": 0.0}
    monkeypatch.setattr(gateway.time, "monotonic", lambda: clock["t"])
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    session = FakeSession([chat_ok()] * 3)
    backend = LiveBackend(GatewayConfig(requests_per_minute=2), session=session)
    sleeps: list[float] = []

    def sleep(seconds):
        sleeps.append(seconds)
        clock["t"] += seconds

    backend._sleep = sleep
    for _ in range(3):
        backend.complete(REQ)
    assert len(session.calls) == 3
    assert sleeps and sleeps[0] >= 59.0  # third call waited for the window


# ---------------------------------------------------------------------------
# Configuration and assembly
# ---------------------------------------------------------------------------


def test_config_from_file(tmp_path):
    path = tmp_path / "gw.json"
    path.write_text(json.dumps({"endpoint": "http://localhost:8000/v1", "max_retries": 1}))
    config = GatewayConfig.from_file(path)
    assert config.endpoint == "http://localhost:8000/v1"
    assert config.max_retries == 1
    assert config.api_style == "chat"


def test_config_from_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "gw.json"
    path.write_text(json.dumps({"endpont": "oops"}))
    with pytest.raises(ValueError):
        GatewayConfig.from_file(path)


@pytest.mark.parametrize(
    "bad",
    [
        {"api_style": "Chat"},
        {"max_in_flight": 0},
        {"max_retries": -1},
        {"requests_per_minute": -1},
        {"timeout_s": 0},
        {"timeout_s": -1.5},
        {"backoff_base_s": -1},
    ],
    ids=[
        "api_style",
        "max_in_flight",
        "max_retries",
        "requests_per_minute",
        "timeout_s_zero",
        "timeout_s_negative",
        "backoff_base_s",
    ],
)
def test_config_rejects_bad_values(tmp_path, bad):
    # "Chat" would post to /completions, a zero semaphore would block every
    # call forever, -1 retries would skip the request loop entirely, a
    # negative rate budget would never admit a request, a zero timeout fails
    # every request and a negative backoff base makes a negative sleep.
    with pytest.raises(ValueError, match=next(iter(bad))):
        GatewayConfig(**bad)
    path = tmp_path / "gw.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match=next(iter(bad))):
        GatewayConfig.from_file(path)


def test_config_from_env_reads_base_url(monkeypatch):
    monkeypatch.setenv("OPENAI_BASE_URL", "http://mirror.internal/v1")
    assert GatewayConfig.from_env().endpoint == "http://mirror.internal/v1"


def test_build_backend_scripted():
    backend = build_backend("scripted", scripted_responses=["a"])
    assert isinstance(backend, ScriptedBackend)
    assert backend.complete(REQ) == "a"


def test_build_backend_replay_requires_cassette():
    with pytest.raises(ValueError):
        build_backend("replay")


def test_build_backend_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_backend("telepathy")


def test_build_backend_recording_wraps_scripted(tmp_path):
    path = tmp_path / "run.cassette.json"
    backend = build_backend("scripted", cassette_path=path, record=True, scripted_responses=["a"])
    assert isinstance(backend, RecordingBackend)
    assert backend.complete(REQ) == "a"
    assert path.exists()


def test_build_backend_recording_wraps_live(tmp_path):
    # Types only: constructing a live backend sends nothing.
    path = tmp_path / "run.cassette.json"
    backend = build_backend("live", record=True, cassette_path=path)
    assert isinstance(backend, RecordingBackend)
    assert isinstance(backend.inner, LiveBackend)
    assert backend.cassette.path == path


def test_package_import_leaves_requests_unloaded():
    # Only LiveBackend needs requests, and importing it costs more than the
    # rest of the package together, so it is imported when a LiveBackend is made.
    src = Path(puzzle2asp.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    check = "import sys, puzzle2asp; print('requests' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"
