"""Shared fixtures: the sample corpus, canned backend scripts, and helpers."""
from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from puzzle2asp.gateway import ScriptedBackend

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def corpus() -> dict[str, str]:
    """All bundled example programs, keyed by file stem."""
    return {p.stem: p.read_text() for p in sorted(DATA_DIR.glob("*.lp"))}


@pytest.fixture(scope="session")
def scripts() -> dict[str, list[str]]:
    """Canned per-case stage responses for the mini dataset."""
    return json.loads((DATA_DIR / "mini_script.json").read_text())


@pytest.fixture(scope="session")
def stories() -> dict[str, dict]:
    """The mini dataset rows, keyed by case id."""
    rows = {}
    for line in (DATA_DIR / "mini.jsonl").read_text().splitlines():
        row = json.loads(line)
        rows[row["id"]] = row
    return rows


@pytest.fixture()
def furniture_backend(scripts) -> ScriptedBackend:
    """A backend scripted with the full furniture-store pipeline run."""
    return ScriptedBackend(scripts["against_grain"])


def scripted(responses) -> ScriptedBackend:
    return ScriptedBackend(list(responses))


def assert_deadline_holds(call, timeout: type[Exception]) -> None:
    """Call `call(deadline)` with a deadline 0.5 s away, on the real clock: it
    must either return before the deadline or raise `timeout` within 2 s."""
    start = time.monotonic()
    try:
        call(start + 0.5)
    except timeout:
        assert time.monotonic() - start < 2.0
    else:
        assert time.monotonic() - start < 0.5
