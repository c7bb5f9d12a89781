"""`scripts/s_crossover.py` measures the sizes behind
`graph_pipeline.DENSE_MAX_NODES` and `SPARSE_BLOCK_ELEMENTS`. A src change
that breaks the script fails here, not only when someone next measures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "s_crossover.py"


@pytest.mark.parametrize(
    "args, header", [(["16"], "norm+fwd dense"), (["--blocks", "64"], "faults/product")], ids=["sizes", "blocks"]
)
def test_s_crossover_prints_its_table(args, header):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, str(SCRIPT), *args], capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert header in run.stdout
