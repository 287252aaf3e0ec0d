"""The scripts under scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_count_cubic():
    lines = run_script("count_cubic.py", "10")
    counts = [line.split(" graphs")[0] for line in lines]
    assert counts == ["n=4: 1", "n=6: 2", "n=8: 5", "n=10: 19"]


def test_subcubic_telemetry():
    lines = run_script("subcubic_telemetry.py", "--max-n", "6")
    assert lines[0].startswith("graphs colored: 41 (max colors used: 4)")
    assert lines[-1] == "resolved without exhaustive fallback: 100.0000% (41/41)"
