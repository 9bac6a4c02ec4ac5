"""One short benchmark run per assembly path.  The untraced run reuses the
kept model across its stratum requests; the traced replay assembles through
lift_rel=, on fresh memos.  Records go to the git-ignored .bench_out/."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", ["0", "1"])
def test_strata_sweep_round_is_correct(trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "strata_sweep",
         "--seed", "1", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
