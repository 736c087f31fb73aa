"""The benchmark's interface: a traced run of each workload in
`perfbench/run.py` imports and patches what it needs of the package, and
every answer it checks is correct.  Run records go to the git-ignored
`perfbench/out/`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sweep", "compute", "verify-tran"])
def test_a_traced_benchmark_run_exits_0_with_every_answer_correct(workload):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    verdict = json.loads(result.stdout.splitlines()[-1])
    assert (verdict["correct"], verdict["failed"]) == (True, 0)
