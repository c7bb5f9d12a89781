"""`scripts/contract_hashes.py` prints the digests a refactor must keep. A src
change that breaks the script fails here, not only when someone next runs it.
No digest is pinned: they differ between BLAS builds."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "contract_hashes.py"


def test_contract_hashes_prints_eight_digests():
    run = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(" ")[0] for line in lines] == [
        "model", "vocab", "train", "folds", "eval", "detect", "inspect", "detect-large"
    ]
    assert all(re.fullmatch(r"[a-z-]+ [0-9a-f]{64}", line) for line in lines)
