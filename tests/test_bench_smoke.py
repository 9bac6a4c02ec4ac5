"""One short benchmark run per assembly path.  The untraced run reuses the
kept model across its stratum requests; the traced replay assembles through
lift_rel=, on fresh memos.  The model_rank3 runs cover the cube model's
`check`, which the traced replay reaches through lift_rel=, the slice
tables, the substituted relations and the monomials.  The oracle_repair runs cover the search through
`goodfan --search` and, traced, through search_good_fan directly.  Records
go to the git-ignored .bench_out/."""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def bench_result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    return result


@pytest.mark.parametrize("trace", ["0", "1"])
def test_model_rank3_round_is_correct(trace):
    assert bench_result("model_rank3", trace)["failed"] == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_strata_sweep_round_is_correct(trace):
    assert bench_result("strata_sweep", trace)["failed"] == 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_oracle_repair_round_is_correct(trace):
    # only the known-divergent search, one op in nine, fails
    result = bench_result("oracle_repair", trace)
    assert result["failed"] * 9 == result["attempted"] > 0
