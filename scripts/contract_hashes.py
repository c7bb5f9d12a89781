#!/usr/bin/env python3
"""The refactor contract's digests: a refactor keeps every line the same.

In a temporary directory it runs, through `statelens.cli.main`:

- `gen --pairs 100 --seed 42`;
- the default `train`, which writes the model and the vocabulary;
- `train --folds 3`;
- `eval` of that model over the corpus;
- `detect` over every AST of the corpus, in sorted order;
- `inspect --vocab` over the same ASTs, which prints each graph's
  categories, edge types and `vocab_coverage`;
- `detect` over 4 large units, each the merge of 50 of those ASTs in
  sorted order (`perfbench/inputs.merge_source_units`), so that the digests
  also cover large parses and the sparse operator: the script stops unless
  every unit's graph has more than `DENSE_MAX_NODES` nodes.

It prints one `name sha256` line for each of `model`, `vocab`, `train`
(its stdout, the held-out metrics), `folds`, `eval`, `detect`, `inspect`
and `detect-large`. In the `detect` stdout every `"timestamp"` value is
blanked, and in the `detect` and `inspect` stdout every file path is made
relative to its directory, so no digest depends on the run's time or
temporary directory. Digests can differ between BLAS builds; compare a parent and a
change on one machine:

    python3 scripts/contract_hashes.py
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from inputs import merge_source_units  # the benchmark's merger, imported read-only
from statelens.ast_ingest import parse_ast_json, read_document
from statelens.cli import main as statelens
from statelens.feature_extract import label_set_from_rules
from statelens.graph_pipeline import DENSE_MAX_NODES, build_contract_graph, optimize_graph

UNIT_PARTS = 50  # ASTs merged into one large unit: 200 ASTs make 4 units


def run(*argv: str) -> bytes:
    """stdout of one `statelens` command; an operational error stops the script."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = statelens(list(argv))
    if code not in (0, 1):
        sys.exit(f"statelens {argv[0]} exited {code}")
    return out.getvalue().encode("utf-8")


def detect(model: Path, vocab: Path, asts: list[str], directory: Path) -> bytes:
    """`detect` stdout with timestamps blanked and paths relative to `directory`."""
    detected = run("detect", "--model", str(model), "--vocab", str(vocab), *asts)
    detected = re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', detected)
    return detected.replace(f'"{directory}/'.encode("utf-8"), b'"')


def large_units(asts: list[str], out_dir: Path) -> list[str]:
    """The ASTs merged UNIT_PARTS at a time, each unit's graph past the dense size."""
    out_dir.mkdir()
    docs = [json.loads(read_document(path)) for path in asts]
    units = []
    for start in range(0, len(docs), UNIT_PARTS):
        unit = out_dir / f"unit{start // UNIT_PARTS}.ast.json"
        merged = merge_source_units(docs[start:start + UNIT_PARTS])
        unit.write_text(json.dumps(merged), encoding="utf-8")
        tree = parse_ast_json(read_document(unit))
        graph = optimize_graph(build_contract_graph(tree), label_set_from_rules())
        if graph.n <= DENSE_MAX_NODES:
            sys.exit(f"{unit.name} has {graph.n} graph nodes, not more than DENSE_MAX_NODES ({DENSE_MAX_NODES})")
        units.append(str(unit))
    return units


def digests(work: Path) -> dict[str, bytes]:
    corpus, model, vocab = work / "corpus", work / "model.sgm", work / "vocab.json"
    run("gen", "--pairs", "100", "--seed", "42", "--out", str(corpus))
    manifest = str(corpus / "manifest.jsonl")
    trained = run("train", "--manifest", manifest, "--model", str(model), "--vocab", str(vocab))
    folds = run("train", "--manifest", manifest, "--model", str(work / "unused.sgm"),
                "--vocab", str(work / "unused.json"), "--folds", "3")
    evaluated = run("eval", "--model", str(model), "--vocab", str(vocab), "--manifest", manifest)
    asts = sorted(str(p) for p in corpus.glob("*.ast.json"))
    detected = detect(model, vocab, asts, corpus)
    inspected = run("inspect", "--vocab", str(vocab), *asts).replace(f'"{corpus}/'.encode("utf-8"), b'"')
    large = work / "large"
    return {
        "model": model.read_bytes(),
        "vocab": vocab.read_bytes(),
        "train": trained,
        "folds": folds,
        "eval": evaluated,
        "detect": detected,
        "inspect": inspected,
        "detect-large": detect(model, vocab, large_units(asts, large), large),
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        for name, data in digests(Path(work)).items():
            print(name, hashlib.sha256(data).hexdigest())


if __name__ == "__main__":
    main()
