"""Command-line behavior: subcommands, exit codes, files written."""
from __future__ import annotations

import hashlib
import json
import time

import pytest

from puzzle2asp import cli
from puzzle2asp.cli import main
from puzzle2asp.syntax import parse_program

TWO_MODELS = "d(1;2).\n{c(X): d(X)}=1 :- d(1).\n"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "two.lp"
    path.write_text(TWO_MODELS)
    return path


def last_line(capsys):
    return capsys.readouterr().out.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_enumerates_all_models(program_file, capsys):
    assert main(["solve", str(program_file), "--limit", "0"]) == 0
    out = capsys.readouterr().out
    assert "c(1)" in out and "c(2)" in out and "----" in out
    assert out.strip().endswith("MODELS 2 EXHAUSTED true")


def test_solve_limit_stops_early(program_file, capsys):
    assert main(["solve", str(program_file), "--limit", "1"]) == 0
    assert last_line(capsys) == "MODELS 1 EXHAUSTED false"


def test_solve_grounds_and_solves_against_one_deadline(program_file, monkeypatch, capsys):
    seen = {}

    def spy(name, real):
        def call(*args, **kwargs):
            seen[name] = kwargs["deadline"]
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, call)

    spy("ground_program", cli.ground_program)
    spy("enumerate_models", cli.enumerate_models)
    before = time.monotonic()
    assert main(["solve", str(program_file), "--budget", "7"]) == 0
    assert seen["ground_program"] == seen["enumerate_models"]
    assert before + 7 <= seen["enumerate_models"] <= time.monotonic() + 7


def test_solve_missing_file_is_a_runtime_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.lp")]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_syntax_error_is_a_runtime_error(tmp_path, capsys):
    path = tmp_path / "broken.lp"
    path.write_text("p(1\n")
    assert main(["solve", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "term", ["(" * 400 + "1" + ")" * 400, "+".join(["1"] * 2000)], ids=["nested", "sum"]
)
def test_solve_too_deep_a_term_is_a_runtime_error(tmp_path, capsys, term):
    path = tmp_path / "deep.lp"
    path.write_text(f"d(1).\n{{c(X): d(X)}}=1.\nX={term} :- c(X).\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "levels deep" in err


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["solve"]) == 1


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@pytest.fixture
def furniture_files(tmp_path, stories, scripts):
    story = tmp_path / "story.txt"
    story.write_text(stories["against_grain"]["story"])
    script = tmp_path / "script.json"
    script.write_text(json.dumps(scripts["against_grain"]))
    return story, script


def test_pipeline_prints_the_assembled_program(furniture_files, tmp_path, capsys):
    story, script = furniture_files
    trace_path = tmp_path / "trace.json"
    code = main(
        [
            "pipeline", str(story),
            "--backend", "scripted", "--script", str(script),
            "--trace", str(trace_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    program = parse_program(out)
    assert len(program.rules) == 9
    trace = json.loads(trace_path.read_text())
    assert trace["outcome"] == {"kind": "Assembled", "stage": None}
    assert len(trace["records"]) == 6


def test_pipeline_failure_names_the_stage(furniture_files, tmp_path, capsys):
    story, _ = furniture_files
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code = main(
        ["pipeline", str(story), "--backend", "scripted", "--script", str(empty)]
    )
    assert code == 2
    assert "pipeline failed: BackendFailure at constant_extraction" in capsys.readouterr().err


def test_pipeline_with_given_constants(tmp_path, stories, scripts, capsys):
    story = tmp_path / "story.txt"
    story.write_text(stories["foodie_club"]["story"])
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps(stories["foodie_club"]["constants"]))
    script = tmp_path / "script.json"
    script.write_text(json.dumps(scripts["foodie_club"]))
    code = main(
        [
            "pipeline", str(story),
            "--constants", str(constants),
            "--backend", "scripted", "--script", str(script),
        ]
    )
    assert code == 0
    assert 'price(24; 25; 26; 27).' in capsys.readouterr().out


@pytest.mark.parametrize("content", ['["a"]', '{"price": 5}'])
def test_pipeline_rejects_malformed_constants(furniture_files, tmp_path, capsys, content):
    story, script = furniture_files
    constants = tmp_path / "constants.json"
    constants.write_text(content)
    code = main(
        [
            "pipeline", str(story),
            "--constants", str(constants),
            "--backend", "scripted", "--script", str(script),
        ]
    )
    assert code == 2
    assert "error: --constants must be a JSON object" in capsys.readouterr().err


def test_pipeline_live_rejects_bad_config(furniture_files, tmp_path, capsys):
    story, _ = furniture_files
    config = tmp_path / "gw.json"
    config.write_text(json.dumps({"endpoint": "http://localhost:9", "max_in_flight": 0}))
    code = main(["pipeline", str(story), "--backend", "live", "--config", str(config)])
    assert code == 2
    assert "error: max_in_flight must be at least 1" in capsys.readouterr().err


def test_pipeline_scripted_requires_script(furniture_files, capsys):
    story, _ = furniture_files
    assert main(["pipeline", str(story), "--backend", "scripted"]) == 2
    assert "error:" in capsys.readouterr().err


def test_pipeline_record_then_replay_matches(furniture_files, tmp_path, capsys):
    story, script = furniture_files
    cassette = tmp_path / "cassette.json"
    assert (
        main(
            [
                "pipeline", str(story),
                "--backend", "scripted", "--script", str(script),
                "--record", "--cassette", str(cassette),
            ]
        )
        == 0
    )
    recorded_out = capsys.readouterr().out
    assert cassette.exists()

    assert (
        main(
            ["pipeline", str(story), "--backend", "replay", "--cassette", str(cassette)]
        )
        == 0
    )
    assert capsys.readouterr().out == recorded_out


def test_pipeline_record_requires_cassette(furniture_files, capsys):
    story, script = furniture_files
    code = main(
        [
            "pipeline", str(story),
            "--backend", "scripted", "--script", str(script), "--record",
        ]
    )
    assert code == 2
    assert "--record needs --cassette" in capsys.readouterr().err


def test_pipeline_replay_requires_cassette(furniture_files, capsys):
    story, _ = furniture_files
    assert main(["pipeline", str(story), "--backend", "replay"]) == 2
    assert "replay backend needs --cassette" in capsys.readouterr().err


def test_pipeline_replay_rejects_record(furniture_files, tmp_path, capsys):
    story, _ = furniture_files
    cassette = tmp_path / "cassette.json"
    cassette.write_text('{"entries": []}\n')
    code = main(
        [
            "pipeline", str(story),
            "--backend", "replay", "--record", "--cassette", str(cassette),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "error: --record does not work with the replay backend" in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_prints_table_and_writes_artifacts(data_dir, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    trace_dir = tmp_path / "traces"
    code = main(
        [
            "bench", str(data_dir / "mini.jsonl"),
            "--backend", "scripted", "--script", str(data_dir / "mini_script.json"),
            "--out", str(out_path), "--trace-dir", str(trace_dir),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "split" in out and "accuracy" in out and "Correct" in out

    payload = json.loads(out_path.read_text())
    assert payload["splits"]["train"] == {"total": 1, "correct": 1, "accuracy": 1.0}
    assert payload["splits"]["test"] == {"total": 2, "correct": 2, "accuracy": 1.0}
    assert payload["outcomes"] == {"Correct": 3}

    names = sorted(p.name for p in trace_dir.iterdir())
    assert names == ["against_grain.json", "foodie_club.json", "weight_loss.json"]
    trace = json.loads((trace_dir / "foodie_club.json").read_text())
    assert trace["outcome_label"] == "Correct"


# One hash over the report, the per-case traces and stdout of the scripted
# mini bench: any change to the prompts, the fingerprints, parsing, grounding,
# solving or the report's format moves it.
MINI_BENCH_SHA256 = "4cf7a247570292f90c27305fc962063916e11167728aa5e94f46108ad778dce7"


def test_bench_output_is_pinned(data_dir, tmp_path, capsys):
    out_path, trace_dir = tmp_path / "report.json", tmp_path / "traces"
    code = main(
        [
            "bench", str(data_dir / "mini.jsonl"),
            "--backend", "scripted", "--script", str(data_dir / "mini_script.json"),
            "--out", str(out_path), "--trace-dir", str(trace_dir),
        ]
    )
    assert code == 0
    digest = hashlib.sha256(out_path.read_bytes())
    for path in sorted(trace_dir.iterdir()):
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == MINI_BENCH_SHA256


def test_bench_split_filter(data_dir, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "bench", str(data_dir / "mini.jsonl"), "--split", "train",
            "--backend", "scripted", "--script", str(data_dir / "mini_script.json"),
            "--out", str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert set(payload["splits"]) == {"train"}


def test_bench_empty_split_fails(tmp_path, data_dir, capsys):
    dataset = tmp_path / "one.jsonl"
    dataset.write_text(
        (data_dir / "mini.jsonl").read_text().splitlines()[0] + "\n"
    )  # train case only
    code = main(
        [
            "bench", str(dataset), "--split", "test",
            "--backend", "scripted", "--script", str(data_dir / "mini_script.json"),
        ]
    )
    assert code == 2
    assert "no cases in split" in capsys.readouterr().err


def test_bench_workers_do_not_change_the_report(data_dir, tmp_path, capsys):
    reports = []
    for workers in ("1", "3"):
        out_path = tmp_path / f"report{workers}.json"
        code = main(
            [
                "bench", str(data_dir / "mini.jsonl"), "--workers", workers,
                "--backend", "scripted", "--script", str(data_dir / "mini_script.json"),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        reports.append(out_path.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_bench_scripted_rejects_record(data_dir, tmp_path, capsys):
    cassette = tmp_path / "cassette.json"
    code = main(
        [
            "bench", str(data_dir / "mini.jsonl"),
            "--backend", "scripted", "--script", str(data_dir / "mini_script.json"),
            "--record", "--cassette", str(cassette),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not cassette.exists()


@pytest.mark.parametrize("text", ["{}\n", '{"entries": [[1]]}\n'])
def test_bench_replay_of_a_malformed_cassette_exits_2(data_dir, tmp_path, capsys, text):
    cassette = tmp_path / "cassette.json"
    cassette.write_text(text)
    code = main(
        ["bench", str(data_dir / "mini.jsonl"), "--backend", "replay", "--cassette", str(cassette)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(cassette) in err
    assert "is not a cassette entry" in err


def test_bench_schema_error_exits_2(tmp_path, capsys):
    dataset = tmp_path / "bad.jsonl"
    dataset.write_text('{"id": "x"}\n')
    assert main(["bench", str(dataset), "--backend", "scripted", "--script", "x"]) == 2
    assert "error:" in capsys.readouterr().err
