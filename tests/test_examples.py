"""Smoke tests: every example script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 300) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        output = run_example("quickstart.py")
        assert "W_A" in output
        assert "d(3:6) = 44.0" in output
        assert "dgreedy-abs" in output

    def test_sensor_compression(self):
        output = run_example("sensor_compression.py")
        assert "identical synopses" in output

    @pytest.mark.slow
    def test_taxi_trip_aqp(self):
        output = run_example("taxi_trip_aqp.py")
        assert "Worst-case guarantees" in output

    @pytest.mark.slow
    def test_cluster_scaling(self):
        output = run_example("cluster_scaling.py")
        assert "Runtime vs cluster capacity" in output

    def test_aqp_dashboard(self):
        output = run_example("aqp_dashboard.py")
        assert "Persisted 3 synopses" in output
