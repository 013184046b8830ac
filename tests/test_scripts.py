import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_seed_study_one_row_per_seed():
    done = run_script("seed_study.py", "2", "300")
    assert done.returncode == 0, done.stderr
    seeds = [line.split()[0] for line in done.stdout.splitlines() if line.split()[0].isdigit()]
    assert seeds == ["1", "2"]
