#!/usr/bin/env python3
"""The refactor contract's digests: a refactor keeps every line the same.

In a temporary directory it runs, through `statelens.cli.main`:

- `gen --pairs 100 --seed 42`;
- the default `train`, which writes the model and the vocabulary;
- `train --folds 3`;
- `eval` of that model over the corpus;
- `detect` over every AST of the corpus, in sorted order;
- `inspect --vocab` over the same ASTs, which prints each graph's
  categories, edge types and `vocab_coverage`.

It prints one `name sha256` line for each of `model`, `vocab`, `train`
(its stdout, the held-out metrics), `folds`, `eval`, `detect` and
`inspect`. In the `detect` stdout every `"timestamp"` value is blanked, and
in the `detect` and `inspect` stdout every file path is made relative to
the corpus directory, so no digest depends on the run's time or temporary
directory. Digests can differ between BLAS builds; compare a parent and a
change on one machine:

    python3 scripts/contract_hashes.py
"""

import contextlib
import hashlib
import io
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from statelens.cli import main as statelens


def run(*argv: str) -> bytes:
    """stdout of one `statelens` command; an operational error stops the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = statelens(list(argv))
    if code not in (0, 1):
        sys.exit(f"statelens {argv[0]} exited {code}")
    return out.getvalue().encode("utf-8")


def digests(work: Path) -> dict[str, bytes]:
    corpus, model, vocab = work / "corpus", work / "model.sgm", work / "vocab.json"
    run("gen", "--pairs", "100", "--seed", "42", "--out", str(corpus))
    manifest = str(corpus / "manifest.jsonl")
    trained = run("train", "--manifest", manifest, "--model", str(model), "--vocab", str(vocab))
    folds = run("train", "--manifest", manifest, "--model", str(work / "unused.sgm"),
                "--vocab", str(work / "unused.json"), "--folds", "3")
    evaluated = run("eval", "--model", str(model), "--vocab", str(vocab), "--manifest", manifest)
    asts = sorted(str(p) for p in corpus.glob("*.ast.json"))
    detected = run("detect", "--model", str(model), "--vocab", str(vocab), *asts)
    detected = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', detected)
    prefix = f'"{corpus}/'.encode("utf-8")
    detected = detected.replace(prefix, b'"')
    inspected = run("inspect", "--vocab", str(vocab), *asts).replace(prefix, b'"')
    return {
        "model": model.read_bytes(),
        "vocab": vocab.read_bytes(),
        "train": trained,
        "folds": folds,
        "eval": evaluated,
        "detect": detected,
        "inspect": inspected,
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        for name, data in digests(Path(work)).items():
            print(name, hashlib.sha256(data).hexdigest())


if __name__ == "__main__":
    main()
