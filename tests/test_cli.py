"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.sanitizer import compare_reports
from repro.cli import main
from repro.serving import Query, ShardedSynopsisStore
from repro.wavelet.synopsis import WaveletSynopsis


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.npy"
    np.save(path, np.random.default_rng(0).uniform(0, 100, size=500))
    return str(path)


@pytest.fixture
def text_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("1.0, 2.0, 3.0\n4.0 5.5\n")
    return str(path)


class TestBuild:
    def test_build_writes_valid_synopsis(self, data_file, tmp_path, capsys):
        out = str(tmp_path / "syn.json")
        code = main(
            ["build", data_file, "--budget", "32", "--algorithm", "greedy-abs", "--output", out]
        )
        assert code == 0
        synopsis = WaveletSynopsis.from_dict(json.loads(open(out).read()))
        assert synopsis.size <= 32
        assert synopsis.n == 512

    def test_build_reads_text_files(self, text_file, tmp_path):
        out = str(tmp_path / "syn.json")
        code = main(["build", text_file, "--budget", "3", "--algorithm", "conventional", "--output", out])
        assert code == 0
        synopsis = WaveletSynopsis.from_dict(json.loads(open(out).read()))
        assert synopsis.n == 8  # padded from 5 values

    def test_build_to_stdout(self, text_file, capsys):
        code = main(["build", text_file, "--budget", "2", "--algorithm", "conventional"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "coefficients" in payload

    def test_missing_file_fails_cleanly(self, capsys):
        code = main(["build", "/nonexistent.npy", "--budget", "4"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_tokens_fail_cleanly(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("1.0 banana 3.0")
        code = main(["build", str(path), "--budget", "4"])
        assert code == 1

    def test_build_with_rho_and_kernel(self, data_file, tmp_path):
        # The coarsened tier must still respect the budget and record
        # the knob in the synopsis meta.
        out = str(tmp_path / "syn.json")
        code = main(
            [
                "build", data_file, "--budget", "32",
                "--algorithm", "indirect-haar", "--delta", "0.5",
                "--dp-rho", "0.1",
                "--output", out,
            ]
        )
        assert code == 0
        payload = json.loads(open(out).read())
        synopsis = WaveletSynopsis.from_dict(payload)
        assert synopsis.size <= 32
        assert payload["meta"]["rho"] == 0.1

    def test_rho_zero_build_matches_default(self, data_file, tmp_path):
        outs = []
        for name, extra in [("a.json", []), ("b.json", ["--dp-rho", "0"])]:
            out = str(tmp_path / name)
            code = main(
                [
                    "build", data_file, "--budget", "32",
                    "--algorithm", "indirect-haar", "--delta", "0.5",
                    "--output", out, *extra,
                ]
            )
            assert code == 0
            outs.append(json.loads(open(out).read())["coefficients"])
        assert outs[0] == outs[1]

    def test_spill_dir_hosts_and_empties_external_shuffle_runs(self, tmp_path, capsys):
        data = tmp_path / "data.npy"
        np.save(data, np.random.default_rng(7).integers(0, 500, size=1024).astype(float))
        build = ["build", str(data), "--budget", "64", "--algorithm", "dgreedy-abs"]
        spills = tmp_path / "spills"
        external = tmp_path / "external.json"
        memory = tmp_path / "memory.json"
        code = main(
            [
                *build, "--shuffle", "external", "--spill-buffer-bytes", "2048",
                "--spill-dir", str(spills), "--output", str(external),
            ]
        )
        assert code == 0
        assert int(re.search(r"spills=(\d+)", capsys.readouterr().err).group(1)) > 0
        assert spills.is_dir() and not any(spills.iterdir())
        assert main([*build, "--output", str(memory)]) == 0
        assert _untimed(external) == _untimed(memory)


def _untimed(path: Path) -> dict:
    """A synopsis JSON without its wall-clock ``meta.cluster`` fields."""
    payload = json.loads(path.read_text())
    for key in ("simulated_seconds", "driver_seconds"):
        del payload["meta"]["cluster"][key]
    return payload


class TestQueryAndEvaluate:
    @pytest.fixture
    def synopsis_file(self, data_file, tmp_path):
        out = str(tmp_path / "syn.json")
        main(["build", data_file, "--budget", "64", "--algorithm", "greedy-abs", "--output", out])
        return out

    def test_point_query(self, synopsis_file, capsys):
        assert main(["query", synopsis_file, "--point", "5"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert np.isfinite(value)

    def test_range_query(self, synopsis_file, capsys):
        assert main(["query", synopsis_file, "--range", "0", "99"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert np.isfinite(value)

    def test_query_requires_a_mode(self, synopsis_file, capsys):
        assert main(["query", synopsis_file]) == 2

    def test_evaluate_reports_metrics(self, synopsis_file, data_file, capsys):
        assert main(["evaluate", synopsis_file, data_file]) == 0
        out = capsys.readouterr().out
        assert "max_abs" in out and "L2" in out


class TestServe:
    QUERIES = [
        {"op": "point", "series": "s", "index": 650},
        {"op": "range_sum", "series": "s", "lo": 10, "hi": 690},
        {"op": "range_avg", "series": "s", "lo": 0, "hi": 699},
    ]
    OPTIONS = ["--budget", "32", "--base-leaves", "128"]

    @pytest.fixture
    def blocks(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(23)
        initial, block = rng.normal(100, 25, 600), rng.normal(110, 20, 100)
        np.save("initial.npy", initial)
        np.save("block.npy", block)
        return initial, block

    def test_round_trip_matches_the_in_process_store(self, blocks):
        Path("queries.json").write_text(json.dumps(self.QUERIES))
        assert main(["serve", "store.json", "--create", "s", "initial.npy", *self.OPTIONS]) == 0
        assert Path("store.json").exists()
        assert main(
            [
                "serve", "store.json", "--append", "s", "block.npy",
                "--queries", "queries.json", "--out", "results.json", *self.OPTIONS,
            ]
        ) == 0

        initial, block = blocks
        store = ShardedSynopsisStore()
        store.create("s", initial, budget=32, base_leaves=128)
        store.append("s", block)
        expected = store.batch([Query(**query) for query in self.QUERIES])
        results = json.loads(Path("results.json").read_text())
        assert [(r["value"], r["version"], r["lower"], r["upper"]) for r in results] == [
            (e.value, e.version, e.lower, e.upper) for e in expected
        ]

    def test_scratch_rebuilds_match_incremental_digests(self, blocks):
        reports = []
        for mode in ("incremental", "scratch"):
            assert main(
                [
                    "serve", f"store_{mode}.json", "--create", "s", "initial.npy",
                    "--append", "s", "block.npy", "--rebuild-mode", mode,
                    "--sanitize", f"report_{mode}.json", *self.OPTIONS,
                ]
            ) == 0
            reports.append(json.loads(Path(f"report_{mode}.json").read_text()))
        assert len(reports[0]["jobs"]) == 2
        assert compare_reports(*reports) == []


class TestRuntimeOptions:
    """Builds run on ``local`` or ``process``; ``serve`` has no runtime."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "data.npy", "--budget", "8", "--runtime", "threads"],
            ["serve", "store.json", "--runtime", "local"],
        ],
        ids=" ".join,
    )
    def test_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestJsonInputs:
    """Every JSON file the CLI reads fails with ``error:``, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "missing.json", "--point", "1"],
            ["query", "malformed.json", "--point", "1"],
            ["query", "store.json", "--point", "1"],
            ["evaluate", "missing.json", "data.npy"],
            ["evaluate", "malformed.json", "data.npy"],
            ["evaluate", "store.json", "data.npy"],
            ["serve", "malformed.json"],
            ["serve", "synopsis.json"],
            ["serve", "list.json"],
            ["serve", "store.json", "--queries", "no_series.json"],
            ["serve", "store.json", "--queries", "object.json"],
        ],
        ids=" ".join,
    )
    def test_bad_json_input_fails_cleanly(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        data = np.arange(1.0, 9.0)
        np.save("data.npy", data)
        store = ShardedSynopsisStore()
        store.create("s", data, budget=4, base_leaves=4)
        store.save("store.json")
        Path("synopsis.json").write_text(json.dumps(WaveletSynopsis(8, {0: 4.5}).to_dict()))
        Path("malformed.json").write_text("{not json")
        Path("list.json").write_text("[]")
        Path("no_series.json").write_text(json.dumps([{"op": "point", "index": 0}]))
        Path("object.json").write_text(json.dumps({"op": "point", "series": "s", "index": 0}))
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
