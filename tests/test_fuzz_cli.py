"""Fuzzed inputs through `main`, in process: one damaged file never stops a
batch, never ends in a traceback, and costs at most one diagnostic.

One generated AST is damaged by truncation, by 1-4 byte overwrites, by an
inserted JSON fragment, or by giving one `id`, `src`, `referencedDeclaration`,
`value` or `name` field a value of the wrong kind. It then goes into a batch
with good files: `[good, damaged, good]` for `detect` and `inspect`, and one
record of a 4-pair manifest for `train` and `eval`. The model, vocabulary and
rules files given to `detect` are damaged the same ways, bytes only.
"""

import contextlib
import io
import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from statelens.cli import main

FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
METRIC_FIELDS = {"acc", "recall", "precision", "f1", "fpr", "tp", "fp", "tn", "fn"}
SWAPPED_KEYS = ("id", "src", "referencedDeclaration", "value", "name")
WRONG_VALUES = [None, "x", "", "\ud800", "1:2:3", [], [1, 2], {}, {"id": 1}, -1, -(2**40), 0.5, 1e300, 10**40]
FRAGMENTS = [b"{", b"}", b"[", b"]", b",", b":", b'"', b"null", b"-1", b"1e999", b'"x": 1,',
             b'{"nodeType": "Block"}', b'{"id": 1, "nodeType": "SourceUnit"}', b'"nodes": [']


def _keyed_fields(node, out):
    """(object, key) for every swappable field, in document order."""
    if isinstance(node, dict):
        out.extend((node, key) for key in SWAPPED_KEYS if key in node)
        children = node.values()
    elif isinstance(node, list):
        children = node
    else:
        return out
    for child in children:
        _keyed_fields(child, out)
    return out


@st.composite
def damaged(draw, data: bytes, json_fields: bool = True) -> bytes:
    kinds = ["truncate", "overwrite", "insert"] + (["swap"] if json_fields else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "overwrite":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 4))):
            out[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    if kind == "insert":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(FRAGMENTS)) + data[at:]
    doc = json.loads(data)
    fields = _keyed_fields(doc, [])
    node, key = fields[draw(st.integers(0, len(fields) - 1))]
    node[key] = draw(st.sampled_from(WRONG_VALUES))
    return json.dumps(doc, indent=1).encode()


def _run(argv: list[str]) -> tuple[int, list[str], list[dict]]:
    """Exit code, stdout lines and stderr diagnostics of one in-process call,
    after checking that stderr holds JSON objects only."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    diagnostics = [json.loads(line) for line in err.getvalue().splitlines()]
    assert all(isinstance(d, dict) and "level" in d for d in diagnostics)
    assert all(d.get("code") != "internal-error" for d in diagnostics), diagnostics
    return code, out.getvalue().splitlines(), diagnostics


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> dict:
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    assert main(["gen", "--pairs", "4", "--seed", "13", "--out", str(corpus)]) == 0
    model, vocab = root / "model.sgm", root / "vocab.json"
    argv = ["train", "--manifest", str(corpus / "manifest.jsonl"), "--model", str(model)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--vocab", str(vocab), "--epochs", "3"]) == 0
    records = [json.loads(line) for line in (corpus / "manifest.jsonl").read_text().splitlines()]
    rules = root / "default.rules"
    rules.write_bytes(resources.files("statelens").joinpath("data/default.rules").read_bytes())
    return {
        "root": root,
        "model": model,
        "vocab": vocab,
        "records": [(str(corpus / r["ast_path"]), r["label"]) for r in records],
        "target": corpus / "pair0001_clean.ast.json",
        "rules": rules,
    }


def _damaged_file(fuzz_dir: dict, data) -> Path:
    path = fuzz_dir["root"] / "damaged.ast.json"
    path.write_bytes(data.draw(damaged(fuzz_dir["target"].read_bytes())))
    return path


@pytest.mark.parametrize("command", ["detect", "inspect"])
@FUZZ
@given(data=st.data())
def test_damaged_ast_in_a_batch(fuzz_dir, command, data):
    bad = _damaged_file(fuzz_dir, data)
    good = [path for path, _ in fuzz_dir["records"][:2]]
    argv = [command, "--vocab", str(fuzz_dir["vocab"])]
    if command == "detect":
        argv += ["--model", str(fuzz_dir["model"])]
    code, lines, diagnostics = _run([*argv, good[0], str(bad), good[1]])
    named = [json.loads(line)["contract" if command == "detect" else "path"] for line in lines]
    assert [p for p in named if p != str(bad)] == good
    assert [d["path"] for d in diagnostics] == ([] if str(bad) in named else [str(bad)])
    assert (code == 2) == bool(diagnostics)


@pytest.mark.parametrize("command", ["train", "eval"])
@FUZZ
@given(data=st.data())
def test_damaged_ast_in_a_manifest(fuzz_dir, command, data):
    root = fuzz_dir["root"]
    bad = _damaged_file(fuzz_dir, data)
    records = [(str(bad) if path == str(fuzz_dir["target"]) else path, label)
               for path, label in fuzz_dir["records"]]
    manifest = root / "damaged.jsonl"
    manifest.write_text("".join(json.dumps({"ast_path": p, "label": l}) + "\n" for p, l in records))
    if command == "train":
        model, vocab = root / "fuzzed.sgm", root / "fuzzed.json"
        model.unlink(missing_ok=True)
        argv = ["train", "--model", str(model), "--vocab", str(vocab), "--epochs", "1"]
    else:
        argv = ["eval", "--model", str(fuzz_dir["model"]), "--vocab", str(fuzz_dir["vocab"])]
    code, lines, diagnostics = _run([*argv, "--manifest", str(manifest)])
    assert [d["path"] for d in diagnostics] in ([], [str(bad)])
    assert code == (2 if diagnostics else 0)
    assert len(lines) == 1 and set(json.loads(lines[0])) == METRIC_FIELDS
    if command == "train":
        assert model.exists()


@pytest.mark.parametrize("artifact", ["model", "vocab", "rules"])
@FUZZ
@given(data=st.data())
def test_damaged_artifact_for_detect(fuzz_dir, artifact, data):
    original = fuzz_dir[artifact]
    bad = fuzz_dir["root"] / f"damaged.{artifact}"
    bad.write_bytes(data.draw(damaged(original.read_bytes(), json_fields=False)))
    paths = {"model": fuzz_dir["model"], "vocab": fuzz_dir["vocab"], "rules": fuzz_dir["rules"], artifact: bad}
    good = [path for path, _ in fuzz_dir["records"][:2]]
    argv = ["detect", "--model", str(paths["model"]), "--vocab", str(paths["vocab"])]
    code, lines, diagnostics = _run([*argv, "--rules", str(paths["rules"]), *good])
    if not {d.get("path") for d in diagnostics} <= set(good):  # refused before any file
        assert code == 2 and len(diagnostics) == 1 and lines == []
    else:  # still valid rules may leave a file without a graph: its own diagnostic
        named = [json.loads(line)["contract"] for line in lines] + [d["path"] for d in diagnostics]
        assert sorted(named) == sorted(good)
        assert (code == 2) == bool(diagnostics)
