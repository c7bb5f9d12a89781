import argparse
import gc
import hashlib
import json
import logging
import math
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import statelens.cli
import statelens.detector
import statelens.gcn_core
from statelens.ast_ingest import parse_ast_json, read_document
from statelens.cli import main
from statelens.corpus import load_corpus, split_items
from statelens.feature_extract import label_set_from_rules
from statelens.graph_pipeline import (
    build_contract_graph,
    build_vocabulary,
    load_vocabulary,
    optimize_graph,
)

from helpers import nested_ast_json, normalized_contract, walk_json_nodes

METRIC_FIELDS = {"acc", "recall", "precision", "f1", "fpr", "tp", "fp", "tn", "fn"}


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("corpus")
    assert main(["gen", "--pairs", "12", "--seed", "11", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_dir) -> dict:
    out = tmp_path_factory.mktemp("model")
    model, vocab = out / "model.sgm", out / "vocab.json"
    code = main(
        [
            "train",
            "--manifest",
            str(corpus_dir / "manifest.jsonl"),
            "--model",
            str(model),
            "--vocab",
            str(vocab),
            "--epochs",
            "40",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    return {"model": model, "vocab": vocab, "corpus": corpus_dir}


def test_gen_writes_manifest_and_fixtures(corpus_dir, capsys):
    manifest = corpus_dir / "manifest.jsonl"
    assert manifest.exists()
    lines = manifest.read_text().strip().splitlines()
    assert len(lines) == 24  # 2 * pairs
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"ast_path", "label"}


def test_gen_rerun_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--pairs", "3", "--seed", "2", "--out", str(a)]) == 0
    assert main(["gen", "--pairs", "3", "--seed", "2", "--out", str(b)]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_gen_unwritable_out_dir(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("x")
    code = main(["gen", "--pairs", "1", "--seed", "1", "--out", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert "file.txt" in err


def test_train_prints_metrics_json(trained, capsys, corpus_dir, tmp_path):
    model2, vocab2 = tmp_path / "m.sgm", tmp_path / "v.json"
    code = main(
        [
            "train",
            "--manifest",
            str(corpus_dir / "manifest.jsonl"),
            "--model",
            str(model2),
            "--vocab",
            str(vocab2),
            "--epochs",
            "40",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()[-1]
    metrics = json.loads(out)
    assert set(metrics) == METRIC_FIELDS
    # determinism: same flags, bit-identical artifacts
    assert model2.read_bytes() == trained["model"].read_bytes()
    assert vocab2.read_bytes() == trained["vocab"].read_bytes()


def test_train_vocabulary_has_no_test_leakage(trained):
    """Recompute the vocabulary from the training split alone and compare
    fingerprints with what the CLI persisted."""
    records = load_corpus(trained["corpus"] / "manifest.jsonl")
    label_set = label_set_from_rules()
    pruned = [
        (label, optimize_graph(build_contract_graph(parse_ast_json(read_document(path))), label_set))
        for path, label in records
    ]
    labels = [label for label, _ in pruned]
    train_pairs, _ = split_items(pruned, labels, seed=5)
    recomputed = build_vocabulary([g.tuples for _, g in train_pairs])
    persisted = load_vocabulary(trained["vocab"])
    assert persisted.fingerprint() == recomputed.fingerprint()


def test_train_degenerate_corpus_exits_three(tmp_path, corpus_dir):
    records = [
        json.loads(line)
        for line in (corpus_dir / "manifest.jsonl").read_text().splitlines()
    ]
    defective_only = [r for r in records if r["label"] == "defective"]
    manifest = tmp_path / "degenerate.jsonl"
    manifest.write_text(
        "\n".join(
            json.dumps({"ast_path": str(corpus_dir / r["ast_path"]), "label": r["label"]})
            for r in defective_only
        )
    )
    code = main(
        [
            "train",
            "--manifest",
            str(manifest),
            "--model",
            str(tmp_path / "m.sgm"),
            "--vocab",
            str(tmp_path / "v.json"),
            "--epochs",
            "1",
        ]
    )
    assert code == 3


def test_train_kfold_reports_folds(tmp_path, corpus_dir, capsys):
    code = main(
        [
            "train",
            "--manifest",
            str(corpus_dir / "manifest.jsonl"),
            "--model",
            str(tmp_path / "m.sgm"),
            "--vocab",
            str(tmp_path / "v.json"),
            "--epochs",
            "5",
            "--folds",
            "3",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(out["folds"]) == 3
    assert "mean_acc" in out


def test_detect_defective_fixture_exit_one(trained, corpus_dir, capsys):
    target = corpus_dir / "pair0000_defective.ast.json"
    code = main(
        ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(target)]
    )
    out = capsys.readouterr().out.strip()
    report = json.loads(out)
    assert code == 1
    assert report["verdict"] == "defective"
    assert len(report["top_nodes"]) >= 1
    assert report["contract"] == str(target)


def test_detect_clean_fixture_exit_zero(trained, corpus_dir, capsys):
    target = corpus_dir / "pair0000_clean.ast.json"
    code = main(
        ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(target)]
    )
    report = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert report["verdict"] == "clean"


def test_detect_jsonl_output_parses(trained, corpus_dir, capsys):
    targets = [str(corpus_dir / f"pair000{i}_clean.ast.json") for i in range(3)]
    code = main(["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), *targets])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert {"contract", "verdict", "probability", "top_nodes", "model_fingerprint", "timestamp"} <= set(record)


def test_detect_text_format(trained, corpus_dir, capsys):
    target = corpus_dir / "pair0001_defective.ast.json"
    main(
        [
            "detect",
            "--model",
            str(trained["model"]),
            "--vocab",
            str(trained["vocab"]),
            "--format",
            "text",
            str(target),
        ]
    )
    out = capsys.readouterr().out
    assert "verdict:" in out and "suspect nodes" in out


def test_detect_out_dir_writes_reports(trained, corpus_dir, tmp_path):
    target = corpus_dir / "pair0002_defective.ast.json"
    reports = tmp_path / "reports"
    code = main(
        [
            "detect",
            "--model",
            str(trained["model"]),
            "--vocab",
            str(trained["vocab"]),
            "--out-dir",
            str(reports),
            str(target),
        ]
    )
    assert code == 1
    written = list(reports.glob("*.report.json"))
    assert len(written) == 1
    assert json.loads(written[0].read_text())["verdict"] == "defective"


def test_detect_out_dir_refuses_inputs_sharing_a_report_name(trained, corpus_dir, tmp_path, capsys):
    source = corpus_dir / "pair0002_defective.ast.json"
    inputs = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        inputs.append(tmp_path / side / "x.ast.json")
        inputs[-1].write_bytes(source.read_bytes())
    reports = tmp_path / "reports"
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    code = main([*argv, "--out-dir", str(reports), str(inputs[0]), str(source), str(inputs[1])])
    assert code == 2
    captured = capsys.readouterr()
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "report-name-collision"
    assert str(inputs[0]) in diagnostic["message"] and str(inputs[1]) in diagnostic["message"]
    assert str(source) not in diagnostic["message"]
    assert captured.out == "" and not reports.exists()


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["collector-on", "collector-off"])
def test_detect_pauses_the_collector_for_each_file(trained, corpus_dir, tmp_path, monkeypatch, caller_enabled):
    seen = []

    def recording(original, event):
        def call(*args, **kwargs):
            seen.append((event, gc.isenabled()))
            return original(*args, **kwargs)

        return call

    monkeypatch.setattr(statelens.cli, "parse_ast_json", recording(statelens.cli.parse_ast_json, "parse"))
    monkeypatch.setattr(statelens.cli, "_diagnostic", recording(statelens.cli._diagnostic, "failed"))
    report_class = statelens.detector.DetectionReport
    monkeypatch.setattr(report_class, "to_json_dict", recording(report_class.to_json_dict, "reported"))
    bad = tmp_path / "bad.ast.json"
    bad.write_text("{}")
    good = [str(corpus_dir / f"pair000{i}_clean.ast.json") for i in (0, 1)]
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    was_enabled = gc.isenabled()
    if not caller_enabled:
        gc.disable()
    try:
        assert main([*argv, good[0], str(bad), good[1]]) == 2
        after = gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
    between = caller_enabled  # after each file the collector is as the caller left it
    assert seen == [
        ("parse", False), ("reported", between),
        ("parse", False), ("failed", between),
        ("parse", False), ("reported", between),
    ]
    assert after is caller_enabled


def test_detect_threshold_above_one_exit_two(trained, corpus_dir, capsys):
    target = corpus_dir / "pair0003_defective.ast.json"
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "detect",
                "--model",
                str(trained["model"]),
                "--vocab",
                str(trained["vocab"]),
                "--threshold",
                "1.01",
                str(target),
            ]
        )
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threshold" in captured.err


@pytest.mark.parametrize("command", ["detect", "eval"])
@pytest.mark.parametrize("value", ["7", "-0.1", "nan"])
def test_threshold_outside_unit_interval_rejected(trained, corpus_dir, capsys, command, value):
    target = (
        ["--manifest", str(corpus_dir / "manifest.jsonl")]
        if command == "eval"
        else [str(corpus_dir / "pair0003_clean.ast.json")]
    )
    argv = [command, "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threshold", value, *target])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_threshold_bounds_are_inclusive(trained, corpus_dir):
    target = str(corpus_dir / "pair0003_clean.ast.json")
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    assert main([*argv, "--threshold", "0", target]) == 1  # every probability is >= 0
    assert main([*argv, "--threshold", "1", target]) in (0, 1)


@pytest.mark.parametrize(
    "command,option,value,named",
    [
        ("gen", "--pairs", "0", "--pairs"),
        ("train", "--seed", "-1", "--seed"),  # numpy's generators take no negative seed
        ("train", "--epochs", "0", "--epochs"),
        ("train", "--hidden", "0", "--hidden"),
        ("train", "--lr", "0", "--lr"),
        ("train", "--lr", "nan", "--lr"),
        ("train", "--lr", "inf", "--lr"),
        ("train", "--l2", "-1", "--l2"),
        ("train", "--l2", "inf", "--l2"),
        ("train", "--folds", "1", "--folds"),
        ("train", "--folds", "25", "too-small"),  # 24 usable contracts
        ("detect", "--top-k", "-1", "--top-k"),
    ],
)
def test_out_of_range_numeric_option_is_a_usage_error(
    trained, corpus_dir, tmp_path, capsys, command, option, value, named
):
    model, vocab, out = tmp_path / "m.sgm", tmp_path / "v.json", tmp_path / "gen"
    rest = {
        "gen": ["--out", str(out)],
        "train": ["--manifest", str(corpus_dir / "manifest.jsonl"), "--model", str(model), "--vocab", str(vocab)],
        "detect": ["--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(corpus_dir / "pair0000_clean.ast.json")],
    }[command]
    try:
        code = main([command, option, value, *rest])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert named in captured.err and "internal-error" not in captured.err
    assert not model.exists() and not vocab.exists() and not out.exists()


def test_detect_missing_model_exit_two(trained, corpus_dir, capsys):
    code = main(
        [
            "detect",
            "--model",
            "/nonexistent/model.sgm",
            "--vocab",
            str(trained["vocab"]),
            str(corpus_dir / "pair0000_clean.ast.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "/nonexistent/model.sgm" in err


def test_detect_vocab_mismatch_exit_two(trained, corpus_dir, tmp_path, capsys):
    other_vocab = tmp_path / "other_vocab.json"
    records = load_corpus(trained["corpus"] / "manifest.jsonl")
    label_set = label_set_from_rules()
    trees = [parse_ast_json(read_document(path)) for path, _ in records[:2]]
    graphs = [optimize_graph(build_contract_graph(tree), label_set) for tree in trees]
    from statelens.graph_pipeline import save_vocabulary

    save_vocabulary(other_vocab, build_vocabulary([g.tuples for g in graphs]))
    code = main(
        [
            "detect",
            "--model",
            str(trained["model"]),
            "--vocab",
            str(other_vocab),
            str(corpus_dir / "pair0000_clean.ast.json"),
        ]
    )
    assert code == 2
    assert "vocab" in capsys.readouterr().err


def test_detect_unparseable_input_exit_two(trained, tmp_path, capsys):
    bad = tmp_path / "bad.ast.json"
    bad.write_text("{}")
    code = main(["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(bad)])
    assert code == 2
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["path"] == str(bad)


def test_detect_too_deep_ast_does_not_stop_the_batch(trained, corpus_dir, tmp_path, capsys):
    """Neither a document nested past the decoder's depth nor one holding
    an integer past its digit limit stops the files after it."""
    deep = tmp_path / "deep.ast.json"
    deep.write_text(nested_ast_json(1500))
    big = tmp_path / "big.ast.json"
    big.write_text('{"id": 1, "nodeType": "Literal", "value": ' + "9" * 5000 + "}")
    valid = corpus_dir / "pair0000_clean.ast.json"
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    code = main([*argv, str(deep), str(big), str(valid)])
    assert code == 2
    captured = capsys.readouterr()
    diagnostics = [json.loads(line) for line in captured.err.strip().splitlines()]
    assert [(d["level"], d["path"], d["code"]) for d in diagnostics] == [
        ("error", str(bad), "SchemaViolationError") for bad in (deep, big)
    ]
    reports = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [r["contract"] for r in reports] == [str(valid)]


def test_detect_600_level_ast_gives_one_report(trained, tmp_path, capsys):
    deep = tmp_path / "deep600.ast.json"
    deep.write_text(nested_ast_json(600))
    code = main(["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), str(deep)])
    assert code in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    reports = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [r["contract"] for r in reports] == [str(deep)]


def test_detect_hashes_the_model_once_per_call(trained, corpus_dir, capsys, monkeypatch):
    original = statelens.detector.GcnModel.fingerprint
    hashed = []

    def counting(model):
        hashed.append(model)
        return original(model)

    monkeypatch.setattr(statelens.detector.GcnModel, "fingerprint", counting)
    paths = [str(p) for p in sorted(corpus_dir.glob("*.ast.json"))[:3]]
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    assert main([*argv, *paths]) in (0, 1)
    reports = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [r["contract"] for r in reports] == paths
    assert len(hashed) == 1
    assert {r["model_fingerprint"] for r in reports} == {original(hashed[0])}


def test_unexpected_exception_is_one_diagnostic_exit_two(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(statelens.cli, "synth_generate", explode)
    code = main(["gen", "--pairs", "1", "--seed", "1", "--out", str(tmp_path / "out")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "internal-error" and "RuntimeError: boom" in diagnostic["message"]
    assert diagnostic["where"].startswith("test_cli.py:")


def test_eval_full_manifest(trained, corpus_dir, capsys):
    code = main(
        [
            "eval",
            "--model",
            str(trained["model"]),
            "--vocab",
            str(trained["vocab"]),
            "--manifest",
            str(corpus_dir / "manifest.jsonl"),
        ]
    )
    assert code == 0
    metrics = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(metrics) == METRIC_FIELDS
    assert metrics["tp"] + metrics["fp"] + metrics["tn"] + metrics["fn"] == 24


def test_inspect_reports_stats(corpus_dir, capsys, fixture_dir):
    code = main(
        [
            "inspect",
            str(corpus_dir / "pair0000_defective.ast.json"),
            str(fixture_dir / "unguarded_transfer.ast.json"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        stats = json.loads(line)
        assert {"path", "ast_nodes", "graph_nodes", "edges", "categories", "edge_types"} <= set(stats)
        assert stats["graph_nodes"] > 0


def test_detect_output_matches_shipped_schema(trained, corpus_dir, capsys):
    import jsonschema

    schema = json.loads(
        (Path(__file__).parent.parent / "docs" / "report.schema.json").read_text()
    )
    targets = [
        str(corpus_dir / "pair0004_defective.ast.json"),
        str(corpus_dir / "pair0004_clean.ast.json"),
    ]
    main(["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), *targets])
    for line in capsys.readouterr().out.strip().splitlines():
        jsonschema.validate(json.loads(line), schema)


def test_inspect_with_custom_rules(corpus_dir, tmp_path, capsys):
    rules = tmp_path / "only_functions.rules"
    rules.write_text("FunctionDefinition -> Function\n")
    target = str(corpus_dir / "pair0000_defective.ast.json")
    assert main(["inspect", "--rules", str(rules), target]) == 0
    narrowed = json.loads(capsys.readouterr().out.strip())
    assert main(["inspect", target]) == 0
    full = json.loads(capsys.readouterr().out.strip())
    assert set(narrowed["categories"]) == {"Function"}
    assert narrowed["graph_nodes"] < full["graph_nodes"]


def test_exit_code_two_on_library_errors(tmp_path, capsys):
    code = main(
        [
            "train",
            "--manifest",
            str(tmp_path / "missing.jsonl"),
            "--model",
            str(tmp_path / "m"),
            "--vocab",
            str(tmp_path / "v"),
        ]
    )
    assert code == 2
    assert "missing.jsonl" in capsys.readouterr().err


def _single_error_line(err: str) -> dict:
    lines = err.strip().splitlines()
    assert len(lines) == 1, lines
    diagnostic = json.loads(lines[0])
    assert diagnostic["level"] == "error"
    return diagnostic


def _model_header(blob: bytes, dim: int, hidden: int) -> bytes:
    return blob[:4] + struct.pack("<II", dim, hidden) + blob[12:]


MODEL_CORRUPTIONS = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "header-only": lambda blob: blob[:10],
    "trailing-byte": lambda blob: blob + b"\x00",
    "dim-zero": lambda blob: _model_header(blob, 0, 32),
    "hidden-zero": lambda blob: _model_header(blob, 64, 0),
}


def _with_index(value):
    """A vocabulary fault: the first token's index becomes `value` (json
    writes math.nan, math.inf and -math.inf as NaN, Infinity, -Infinity)."""

    def corrupt(text: str) -> str:
        vocab = json.loads(text)
        first = next(iter(vocab["word2idx"]))
        return json.dumps({**vocab, "word2idx": {**vocab["word2idx"], first: value}})

    return corrupt


_NESTED_TOO_DEEP = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion limit

VOCAB_CORRUPTIONS = {
    "malformed-json": lambda text: text[: len(text) // 2],
    "not-utf8": lambda text: "\udcff",
    "list-root": lambda text: "[]",
    "missing-key": lambda text: "{}",
    "wrong-type": lambda text: json.dumps({**json.loads(text), "word2idx": [1, 2]}),
    "index-out-of-range": lambda text: json.dumps({**json.loads(text), "word2idx": {"x": 10**6}}),
    "index-infinite": _with_index(math.inf),
    "index-negative-infinite": _with_index(-math.inf),
    "index-fractional": _with_index(1.5),
    "index-boolean": _with_index(True),
    "index-string": _with_index("1"),
    "index-shared": lambda text: json.dumps({"word2idx": dict.fromkeys(json.loads(text)["word2idx"], 1)}),
    "nested-too-deep": lambda text: '{"word2idx": ' + _NESTED_TOO_DEEP + "}",
}


RULES_FAULTS = {
    "unknown-category": b"Identifier -> Nope\n",
    "missing-arrow": b"Identifier Function\n",
    "non-utf8": b"\xff\xfeFunctionDefinition -> Function\n",
    "no-rules": b"# comments only\n",
}

MANIFEST_FAULTS = {
    "not-json": "{oops",
    "bad-label": json.dumps({"ast_path": "x.ast.json", "label": "meh"}),
    "missing-ast-path": json.dumps({"label": "clean"}),
    "integer-too-long": '{"ast_path": "x.ast.json", "label": "clean", "n": ' + "9" * 5000 + "}",
    "nested-too-deep": '{"ast_path": "x.ast.json", "label": "clean", "n": ' + _NESTED_TOO_DEEP + "}",
}


def _on_text(fault):
    return lambda blob: fault(blob.decode("utf-8")).encode("utf-8", errors="surrogateescape")


FILE_FAULTS = {  # each maps the good file's bytes (none for rules) to a faulty file's
    **{("model", name): fault for name, fault in MODEL_CORRUPTIONS.items()},
    **{("vocab", name): _on_text(fault) for name, fault in VOCAB_CORRUPTIONS.items()},
    **{("rules", name): lambda _, content=content: content for name, content in RULES_FAULTS.items()},
    **{("manifest", name): lambda _, line=line: line.encode() + b"\n" for name, line in MANIFEST_FAULTS.items()},
}
FAULT_CODES = {("manifest", "bad-label"): "BadLabelError"}  # every other fault: SchemaViolationError
FAULT_CASES = [  # every fault through `eval`; the model and vocabulary faults through `detect` too
    *(pytest.param("eval", kind, fault, id=f"{kind}-{fault}") for kind, fault in sorted(FILE_FAULTS)),
    *(pytest.param("detect", kind, fault, id=f"detect-{kind}-{fault}")
      for kind, fault in sorted(FILE_FAULTS) if kind in ("model", "vocab")),
]


@pytest.mark.parametrize(("command", "kind", "fault"), FAULT_CASES)
def test_fault_inside_an_input_file_names_it_as_path(trained, corpus_dir, tmp_path, capsys, command, kind, fault):
    files = {"model": trained["model"], "vocab": trained["vocab"], "manifest": corpus_dir / "manifest.jsonl"}
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(FILE_FAULTS[kind, fault](files[kind].read_bytes() if kind in files else b""))
    files[kind] = bad
    argv = [command, "--model", str(files["model"]), "--vocab", str(files["vocab"])]
    if command == "detect":
        argv.append(str(corpus_dir / "pair0000_clean.ast.json"))
    else:
        argv += ["--manifest", str(files["manifest"])]
    assert main([*argv, "--rules", str(bad)] if kind == "rules" else argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(bad)
    assert diagnostic["code"] == FAULT_CODES.get((kind, fault), "SchemaViolationError")
    if (kind, fault) == ("vocab", "not-utf8"):  # worded like every other reader's
        assert diagnostic["message"] == f"{bad}: not UTF-8 at byte 0: invalid start byte"
    if fault == "nested-too-deep":  # worded like the AST reader's
        where = f"{bad}:1" if kind == "manifest" else str(bad)
        assert diagnostic["message"] == f"{where}: JSON nested too deeply to parse"


@pytest.mark.parametrize(
    "missing", ["model", "vocab", "train-manifest", "eval-manifest", "rules", "inspect-vocab", "ast"]
)
def test_missing_input_is_one_io_error_naming_it_as_path(trained, corpus_dir, tmp_path, capsys, missing):
    ghost = str(tmp_path / "ghost")
    model, vocab, ast = str(trained["model"]), str(trained["vocab"]), str(corpus_dir / "pair0000_clean.ast.json")
    outputs = ["--model", str(tmp_path / "m.sgm"), "--vocab", str(tmp_path / "v.json")]
    argv = {
        "model": ["detect", "--model", ghost, "--vocab", vocab, ast],
        "vocab": ["detect", "--model", model, "--vocab", ghost, ast],
        "train-manifest": ["train", "--manifest", ghost, *outputs],
        "eval-manifest": ["eval", "--model", model, "--vocab", vocab, "--manifest", ghost],
        "rules": ["detect", "--model", model, "--vocab", vocab, "--rules", ghost, ast],
        "inspect-vocab": ["inspect", "--vocab", ghost, ast],
        "ast": ["detect", "--model", model, "--vocab", vocab, ghost],
    }[missing]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "io-error" and diagnostic["path"] == ghost


def test_log_records_are_json_lines(corpus_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STATELENS_LOG", "INFO")
    model, vocab = tmp_path / "m.sgm", tmp_path / "v.json"
    manifest = str(corpus_dir / "manifest.jsonl")
    argv = ["train", "--manifest", manifest, "--model", str(model), "--vocab", str(vocab)]
    assert main([*argv, "--epochs", "1"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
    written = [r for r in records if r["message"].startswith("model written to")]
    assert len(written) == 1
    assert written[0]["level"] == "info" and written[0]["logger"] == "statelens"
    assert str(model) in written[0]["message"] and str(vocab) in written[0]["message"]


def _non_utf8_file(tmp_path) -> Path:
    bad = tmp_path / "bad.ast.json"
    bad.write_bytes(b'\xff\xfe{"id": 1, "nodeType": "SourceUnit"}')
    return bad


def test_detect_non_utf8_file_does_not_stop_the_batch(trained, corpus_dir, tmp_path, capsys):
    bad, valid = _non_utf8_file(tmp_path), corpus_dir / "pair0000_clean.ast.json"
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    assert main([*argv, str(bad), str(valid)]) == 2
    captured = capsys.readouterr()
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(bad) and diagnostic["code"] == "MalformedJsonError"
    assert "byte 0" in diagnostic["message"]
    reports = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [r["contract"] for r in reports] == [str(valid)]


def test_inspect_non_utf8_file_does_not_stop_the_batch(corpus_dir, tmp_path, capsys):
    bad, valid = _non_utf8_file(tmp_path), corpus_dir / "pair0000_clean.ast.json"
    assert main(["inspect", str(bad), str(valid)]) == 2
    captured = capsys.readouterr()
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(bad) and diagnostic["code"] == "MalformedJsonError"
    assert [json.loads(line)["path"] for line in captured.out.strip().splitlines()] == [str(valid)]


def _manifest_with(corpus: Path, tmp_path: Path, extra: Path | None, label: str = "defective") -> Path:
    """The corpus manifest with absolute paths and, when given, one more
    record naming `extra` in the middle; written under tmp_path."""
    lines = (corpus / "manifest.jsonl").read_text().splitlines()
    records = [{**r, "ast_path": str(corpus / r["ast_path"])} for r in map(json.loads, lines)]
    if extra is not None:
        records.insert(len(records) // 2, {"ast_path": str(extra), "label": label})
    manifest = tmp_path / ("manifest.jsonl" if extra is not None else "clean.jsonl")
    manifest.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return manifest


@pytest.fixture(scope="module")
def ten_pairs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("ten_pairs")
    assert main(["gen", "--pairs", "10", "--seed", "3", "--out", str(out)]) == 0
    return out


def _truncated_ast(corpus: Path, tmp_path: Path) -> Path:
    bad = tmp_path / "truncated.ast.json"
    text = (corpus / "pair0003_clean.ast.json").read_text()
    bad.write_text(text[: len(text) // 2])
    return bad


def _train_on(manifest: Path, out: Path) -> tuple[int, Path, Path]:
    model, vocab = out / f"{manifest.stem}.sgm", out / f"{manifest.stem}.vocab.json"
    argv = ["train", "--manifest", str(manifest), "--model", str(model), "--vocab", str(vocab)]
    return main([*argv, "--epochs", "5"]), model, vocab


def test_train_non_utf8_ast_names_the_file(corpus_dir, tmp_path, capsys):
    bad = _non_utf8_file(tmp_path)
    code, model, vocab = _train_on(_manifest_with(corpus_dir, tmp_path, bad), tmp_path)
    assert code == 2
    captured = capsys.readouterr()
    assert set(json.loads(captured.out)) == METRIC_FIELDS
    assert model.exists() and vocab.exists()
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(bad) and diagnostic["code"] == "MalformedJsonError"
    assert "byte 0" in diagnostic["message"]


def test_eval_non_utf8_ast_names_the_file_and_byte(trained, ten_pairs, tmp_path, capsys):
    bad = tmp_path / "bad.ast.json"
    bad.write_bytes(b'{"id": 1, "nodeType": "SourceUnit", "name": "\xc3\x28"}')
    manifest = _manifest_with(ten_pairs, tmp_path, bad, label="clean")
    argv = ["eval", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    assert main([*argv, "--manifest", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert set(json.loads(captured.out)) == METRIC_FIELDS
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(bad) and diagnostic["code"] == "MalformedJsonError"
    assert "byte 45" in diagnostic["message"]


def test_train_skips_a_truncated_ast(ten_pairs, tmp_path, capsys):
    bad = _truncated_ast(ten_pairs, tmp_path)
    code, model, vocab = _train_on(_manifest_with(ten_pairs, tmp_path, bad), tmp_path)
    assert code == 2
    captured = capsys.readouterr()
    assert set(json.loads(captured.out)) == METRIC_FIELDS
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(bad) and diagnostic["code"] == "MalformedJsonError"
    # a skipped file trains exactly as if the manifest never named it
    clean_code, clean_model, clean_vocab = _train_on(_manifest_with(ten_pairs, tmp_path, None), tmp_path)
    assert clean_code == 0
    assert model.read_bytes() == clean_model.read_bytes()
    assert vocab.read_bytes() == clean_vocab.read_bytes()
    assert capsys.readouterr().out == captured.out


def test_eval_skips_a_truncated_ast(trained, ten_pairs, tmp_path, capsys):
    bad = _truncated_ast(ten_pairs, tmp_path)
    argv = ["eval", "--model", str(trained["model"]), "--vocab", str(trained["vocab"]), "--manifest"]
    assert main([*argv, str(_manifest_with(ten_pairs, tmp_path, bad))]) == 2
    captured = capsys.readouterr()
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(bad) and diagnostic["code"] == "MalformedJsonError"
    assert main([*argv, str(_manifest_with(ten_pairs, tmp_path, None))]) == 0
    assert captured.out and capsys.readouterr().out == captured.out


def _lone_surrogate_names(source: Path, tmp_path: Path) -> Path:
    """`source` with every node name opened by a lone surrogate, a legal JSON escape."""
    out = tmp_path / "surrogate.ast.json"
    out.write_text(source.read_text().replace('"name": "', '"name": "\\ud800'))
    return out


def test_detect_and_inspect_read_a_lone_surrogate_name(trained, corpus_dir, tmp_path, capsys):
    named = _lone_surrogate_names(corpus_dir / "pair0000_defective.ast.json", tmp_path)
    valid = corpus_dir / "pair0000_clean.ast.json"
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    assert main([*argv, str(named), str(valid)]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [json.loads(line)["contract"] for line in captured.out.splitlines()] == [str(named), str(valid)]
    assert main(["inspect", "--vocab", str(trained["vocab"]), str(named), str(valid)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [json.loads(line)["path"] for line in captured.out.splitlines()] == [str(named), str(valid)]


def test_train_reads_a_lone_surrogate_name(ten_pairs, tmp_path, capsys):
    named = _lone_surrogate_names(ten_pairs / "pair0003_defective.ast.json", tmp_path)
    code, model, vocab = _train_on(_manifest_with(ten_pairs, tmp_path, named), tmp_path)
    assert code == 0 and model.exists() and vocab.exists()
    captured = capsys.readouterr()
    assert captured.err == "" and set(json.loads(captured.out)) == METRIC_FIELDS


@pytest.mark.parametrize("ast_path", ["a\u0000b.ast.json", "\ud800.ast.json"], ids=["nul", "surrogate"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_ast_path_no_file_can_have_is_refused(trained, ten_pairs, tmp_path, capsys, command, ast_path):
    manifest = tmp_path / "manifest.jsonl"
    records = [{"ast_path": str(ten_pairs / "pair0000_clean.ast.json"), "label": "clean"},
               {"ast_path": ast_path, "label": "clean"}]
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    if command == "train":
        code, model, vocab = _train_on(manifest, tmp_path)
        assert not model.exists() and not vocab.exists()
    else:
        argv = ["eval", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
        code = main([*argv, "--manifest", str(manifest)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(manifest) and diagnostic["code"] == "SchemaViolationError"
    assert f"{manifest}:2:" in diagnostic["message"]


def test_manifest_naming_a_missing_ast_is_one_io_error(ten_pairs, tmp_path, capsys):
    ghost = tmp_path / "ghost.ast.json"
    code, model, _ = _train_on(_manifest_with(ten_pairs, tmp_path, ghost), tmp_path)
    assert code == 2 and model.exists()
    diagnostic = _single_error_line(capsys.readouterr().err)
    assert diagnostic["path"] == str(ghost) and diagnostic["code"] == "io-error"
    assert "ghost" in diagnostic["message"]


def test_train_on_one_usable_contract_is_too_small(ten_pairs, tmp_path, capsys):
    manifest = tmp_path / "one.jsonl"
    record = {"ast_path": str(ten_pairs / "pair0000_defective.ast.json"), "label": "defective"}
    manifest.write_text(json.dumps(record) + "\n")
    code, model, vocab = _train_on(manifest, tmp_path)
    assert code == 2 and not model.exists() and not vocab.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and _single_error_line(captured.err)["code"] == "too-small"


def test_eval_with_no_usable_contract_is_an_empty_test_set(trained, tmp_path, capsys):
    paths = [tmp_path / "missing.ast.json", _non_utf8_file(tmp_path)]
    manifest = tmp_path / "broken.jsonl"
    manifest.write_text("".join(json.dumps({"ast_path": str(p), "label": "clean"}) + "\n" for p in paths))
    argv = ["eval", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    assert main([*argv, "--manifest", str(manifest)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostics = [json.loads(line) for line in captured.err.strip().splitlines()]
    assert [d.get("path") for d in diagnostics] == [str(p) for p in paths] + [None]
    assert [d["code"] for d in diagnostics] == ["io-error", "MalformedJsonError", "empty-test-set"]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_graph_contract_is_one_diagnostic_exit_two(trained, ten_pairs, tmp_path, capsys, command):
    empty = tmp_path / "empty.ast.json"
    empty.write_text('{"id": 1, "nodeType": "SourceUnit", "nodes": []}')
    manifest = _manifest_with(ten_pairs, tmp_path, empty)
    if command == "train":
        code = _train_on(manifest, tmp_path)[0]
    else:
        argv = ["eval", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
        code = main([*argv, "--manifest", str(manifest)])
    assert code == 2
    captured = capsys.readouterr()
    assert set(json.loads(captured.out)) == METRIC_FIELDS
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["path"] == str(empty) and diagnostic["code"] == "EmptyGraphError"


@pytest.mark.parametrize("command", ["inspect", "detect", "train"])
def test_non_utf8_rules_file_is_one_diagnostic_naming_it(trained, corpus_dir, tmp_path, capsys, command):
    rules = tmp_path / "bad.rules"
    rules.write_bytes(b"\xff\xfeFunctionDefinition -> Function\n")
    target = str(corpus_dir / "pair0000_defective.ast.json")
    model, vocab = tmp_path / "m.sgm", tmp_path / "v.json"
    rest = {
        "inspect": [target],
        "detect": ["--model", str(trained["model"]), "--vocab", str(trained["vocab"]), target],
        "train": ["--manifest", str(corpus_dir / "manifest.jsonl"), "--model", str(model), "--vocab", str(vocab)],
    }[command]
    assert main([command, "--rules", str(rules), *rest]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "SchemaViolationError"
    assert str(rules) in diagnostic["message"] and "byte 0" in diagnostic["message"]
    assert not model.exists() and not vocab.exists()


def test_rules_file_without_rules_is_one_diagnostic_naming_it(corpus_dir, tmp_path, capsys):
    rules = tmp_path / "empty.rules"
    rules.write_text("# comments only\n\n")
    targets = [str(p) for p in sorted(corpus_dir.glob("*.ast.json"))[:3]]
    assert main(["inspect", "--rules", str(rules), *targets]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "SchemaViolationError" and str(rules) in diagnostic["message"]


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_model_and_vocab_width_mismatch_caught_at_load(
    trained, corpus_dir, tmp_path, capsys, monkeypatch, command
):
    narrow = tmp_path / "dim32.sgm"
    statelens.detector.GcnModel(statelens.gcn_core.init_params(32, 8, seed=0)).save(narrow)
    width = load_vocabulary(trained["vocab"]).dim

    def never(*args, **kwargs):
        raise AssertionError("no input may be read after a width mismatch")

    monkeypatch.setattr(statelens.cli, "parse_ast_json", never)
    monkeypatch.setattr(statelens.cli, "load_corpus", never)
    argv = [command, "--model", str(narrow), "--vocab", str(trained["vocab"])]
    if command == "detect":
        argv += [str(p) for p in sorted(corpus_dir.glob("*.ast.json"))[:3]]
    else:
        argv += ["--manifest", str(corpus_dir / "manifest.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "shape-mismatch"
    assert "32" in diagnostic["message"] and str(width) in diagnostic["message"]


def _train_argv(corpus_dir, tmp_path, *extra) -> list[str]:
    manifest = str(corpus_dir / "manifest.jsonl")
    model, vocab = str(tmp_path / "m.sgm"), str(tmp_path / "v.json")
    return ["train", "--manifest", manifest, "--model", model, "--vocab", vocab, *extra]


def _epoch_records(err: str) -> list[dict]:
    records = [json.loads(line) for line in err.strip().splitlines()]
    return [r for r in records if "epoch" in r]


def test_train_logs_one_record_per_epoch(corpus_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STATELENS_LOG", "info")
    assert main(_train_argv(corpus_dir, tmp_path, "--epochs", "3")) == 0
    captured = capsys.readouterr()
    epochs = _epoch_records(captured.err)
    assert [r["epoch"] for r in epochs] == [1, 2, 3]
    assert all(r["level"] == "info" and r["logger"] == "statelens" for r in epochs)
    assert all(isinstance(r["train_loss"], float) for r in epochs)
    assert epochs[-1]["held_out"] == json.loads(captured.out.strip().splitlines()[-1])


def test_train_logs_epochs_per_fold(corpus_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STATELENS_LOG", "info")
    assert main(_train_argv(corpus_dir, tmp_path, "--epochs", "2", "--folds", "3")) == 0
    captured = capsys.readouterr()
    epochs = _epoch_records(captured.err)
    assert [(r["fold"], r["epoch"]) for r in epochs] == [(f, e) for f in (1, 2, 3) for e in (1, 2)]
    folds = json.loads(captured.out.strip().splitlines()[-1])["folds"]
    assert [r["held_out"] for r in epochs if r["epoch"] == 2] == folds


def test_train_logs_no_epochs_at_the_default_level(corpus_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("STATELENS_LOG", raising=False)
    built = []
    original = statelens.cli.det.EpochStats.to_json_dict
    monkeypatch.setattr(
        statelens.cli.det.EpochStats, "to_json_dict", lambda self: built.append(self) or original(self)
    )
    assert main(_train_argv(corpus_dir, tmp_path, "--epochs", "3")) == 0
    assert capsys.readouterr().err == ""
    assert built == []


@pytest.mark.parametrize("value", ["bogus", "5"])
def test_unknown_log_level_is_one_diagnostic_and_runs_nothing(fixture_dir, capsys, monkeypatch, value):
    monkeypatch.setenv("STATELENS_LOG", value)
    assert main(["inspect", str(fixture_dir / "unguarded_transfer.ast.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "bad-log-level" and "STATELENS_LOG" in diagnostic["message"]
    assert all(name in diagnostic["message"] for name in ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"))


@pytest.mark.parametrize("value", ["info ", ""], ids=["trailing-space", "empty"])
def test_log_level_is_stripped_and_empty_means_warning(fixture_dir, capsys, monkeypatch, value):
    monkeypatch.setenv("STATELENS_LOG", value)
    assert main(["inspect", str(fixture_dir / "unguarded_transfer.ast.json")]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ast_nodes"] > 0 and captured.err == ""
    assert statelens.cli.log.level == (logging.INFO if value else logging.WARNING)


@pytest.mark.parametrize("extra", [[], ["--folds", "3"]], ids=["split", "folds"])
def test_diverging_train_is_one_diagnostic_and_writes_nothing(corpus_dir, tmp_path, extra):
    """A learning rate that overflows the weights ends `train` with one
    `diverged` diagnostic and exit 2. Run in a fresh interpreter, where a
    numpy warning would print to stderr as it does for a user."""
    argv = _train_argv(corpus_dir, tmp_path, "--lr", "1e300", "--epochs", "2", *extra)
    run = subprocess.run(
        [sys.executable, "-m", "statelens.cli", *argv], capture_output=True, text=True, check=False
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert _single_error_line(run.stderr)["code"] == "diverged"
    assert not (tmp_path / "m.sgm").exists() and not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("weight", [math.nan, math.inf])
@pytest.mark.parametrize("command", ["detect", "eval"])
def test_model_with_a_non_finite_weight_is_refused(
    trained, corpus_dir, tmp_path, capsys, command, weight
):
    model = statelens.detector.GcnModel.load(trained["model"])
    model.params.flat[5] = weight
    bad = tmp_path / "bad.sgm"
    model.save(bad)
    argv = [command, "--model", str(bad), "--vocab", str(trained["vocab"])]
    if command == "detect":
        argv.append(str(corpus_dir / "pair0000_defective.ast.json"))
    else:
        argv += ["--manifest", str(corpus_dir / "manifest.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "SchemaViolationError"
    assert "not finite" in diagnostic["message"]


@pytest.mark.parametrize("command", ["detect", "eval"])
def test_model_whose_forward_pass_overflows_gets_no_verdict(trained, corpus_dir, tmp_path, capsys, command):
    """Every weight finite, so the model loads, but w1 and w2 scaled by 1e200
    overflow the forward pass: no P(defective) that is not finite becomes a
    verdict, and numpy's warnings do not reach stderr."""
    model = statelens.detector.GcnModel.load(trained["model"])
    model.params.w1[:] *= 1e200
    model.params.w2[:] *= 1e200
    bad = tmp_path / "overflowing.sgm"
    model.save(bad)
    argv = [command, "--model", str(bad), "--vocab", str(trained["vocab"])]
    asts = [str(p) for p in sorted(corpus_dir.glob("*.ast.json"))]
    argv += asts if command == "detect" else ["--manifest", str(corpus_dir / "manifest.jsonl")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "NaN" not in captured.out and "Infinity" not in captured.out
    diagnostics = [json.loads(line) for line in captured.err.splitlines()]
    assert diagnostics and {d["code"] for d in diagnostics} == {"non-finite-output"}
    if command == "detect":  # one diagnostic per affected file, and the batch goes on
        reported = [json.loads(line)["contract"] for line in captured.out.splitlines()]
        assert sorted(reported + [d["path"] for d in diagnostics]) == asts
    else:
        assert captured.out == "" and len(diagnostics) == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_model_whose_node_salience_overflows_gets_no_report(trained, corpus_dir, tmp_path, capsys, fmt):
    """Every weight finite, and w_out's defective column scaled so that only
    the node logits of the contract with the largest one overflow, while its
    pooled logit stays finite and gives P(defective) = 1.0: no salience that
    is not finite is listed, and the batch goes on. With `--top-k 0` none is
    listed, so that contract gets its report."""
    model = statelens.detector.GcnModel.load(trained["model"])
    vocab = load_vocabulary(trained["vocab"])
    params, rng = model.params, np.random.default_rng(0)
    params.w1[:] = np.abs(rng.standard_normal(params.w1.shape))
    params.w2[:] = np.abs(rng.standard_normal(params.w2.shape))
    params.b_out[:], params.w_out[:, 0], params.w_out[:, 1] = 0.0, 0.0, 1.0
    asts = [str(p) for p in sorted(corpus_dir.glob("*.ast.json"))]
    traces = {
        path: statelens.gcn_core.forward(params, normalized_contract(parse_ast_json(read_document(path)), vocab))
        for path in asts
    }
    largest = {path: (trace.h2 @ params.w_out[:, 1]).max() for path, trace in traces.items()}
    target = max(asts, key=largest.get)
    assert traces[target].logits[1] < largest[target] / (1 + 1e-6)  # its pooled logit stays finite
    params.w_out[:, 1] = np.finfo(np.float64).max / largest[target] * (1 + 1e-6)
    bad = tmp_path / "overflowing_salience.sgm"
    model.save(bad)
    argv = ["detect", "--model", str(bad), "--vocab", str(trained["vocab"]), "--format", fmt, *asts]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert not re.search(r"\b(NaN|Infinity|nan|inf)\b", captured.out)
    diagnostics = [json.loads(line) for line in captured.err.splitlines()]
    assert {d["code"] for d in diagnostics} == {"non-finite-output"} and target in [d["path"] for d in diagnostics]
    reported = re.findall(r'"contract": "([^"]+)"' if fmt == "json" else r"^contract: +(\S+)$", captured.out, re.M)
    assert reported and sorted(reported + [d["path"] for d in diagnostics]) == asts  # one diagnostic per affected file
    assert main(argv + ["--top-k", "0"]) == 1
    assert target in capsys.readouterr().out


def _command_argv(command: str, model: Path, vocab: Path, corpus_dir: Path) -> list[str]:
    """`detect` over every AST of the corpus, or `eval` over its manifest."""
    argv = [command, "--model", str(model), "--vocab", str(vocab)]
    if command == "detect":
        return argv + [str(p) for p in sorted(corpus_dir.glob("*.ast.json"))]
    return argv + ["--manifest", str(corpus_dir / "manifest.jsonl")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("command", ["detect", "eval"])
def test_vocabulary_with_a_non_finite_value_is_refused(
    trained, corpus_dir, tmp_path, capsys, command, value
):
    unbound = tmp_path / "unbound.sgm"  # an empty fingerprint: no vocabulary check at load
    statelens.detector.GcnModel(statelens.detector.GcnModel.load(trained["model"]).params).save(unbound)
    bad = tmp_path / "bad_vocab.json"
    bad.write_text(_with_index(value)(trained["vocab"].read_text(encoding="utf-8")), encoding="utf-8")
    assert main(_command_argv(command, unbound, bad, corpus_dir)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    diagnostic = _single_error_line(captured.err)
    assert diagnostic["code"] == "SchemaViolationError" and diagnostic["path"] == str(bad)
    assert "not a vocabulary file" in diagnostic["message"]


def _table_era_vocabulary() -> dict:
    """A vocabulary as statelens once wrote it: tokens carried a hashed name
    bucket, and features were the rows of a stored 64-wide random table."""
    tokens = ["Identifier:17", "FunctionDefinition:203", "Literal:number"]
    table = np.random.default_rng(0).uniform(-0.125, 0.125, size=(1 + len(tokens), 64))
    word2idx = {token: i + 1 for i, token in enumerate(tokens)}
    return {"dim": 64, "unk_index": 0, "word2idx": word2idx, "embedding": table.tolist()}


@pytest.mark.parametrize(("bound", "code"), [(True, "vocab-mismatch"), (False, "shape-mismatch")])
@pytest.mark.parametrize("command", ["detect", "eval"])
def test_files_from_the_embedding_table_era_are_refused(corpus_dir, tmp_path, capsys, command, bound, code):
    vocab = _table_era_vocabulary()
    canonical = json.dumps(vocab, sort_keys=True, separators=(",", ":")).encode("utf-8")
    fingerprint = hashlib.sha256(canonical).hexdigest() if bound else ""  # "": unbound
    model, vocab_path = tmp_path / "old.sgm", tmp_path / "old_vocab.json"
    statelens.detector.GcnModel(statelens.gcn_core.init_params(64, 32, 0), fingerprint).save(model)
    vocab_path.write_text(json.dumps(vocab, sort_keys=True), encoding="utf-8")
    assert main(_command_argv(command, model, vocab_path, corpus_dir)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _single_error_line(captured.err)["code"] == code


def _renamed(source: Path, out: Path) -> Path:
    """`source` with every node name replaced by a fresh one, the first by a lone surrogate."""
    doc = json.loads(source.read_text(encoding="utf-8"))
    named = [node for node in walk_json_nodes(doc) if "name" in node]
    assert named
    for k, node in enumerate(named):
        node["name"] = "\ud800" if k == 0 else f"fresh{k}"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return out


def test_names_change_no_feature_operator_or_report(trained, corpus_dir, tmp_path, capsys):
    source = corpus_dir / "pair0000_defective.ast.json"
    renamed = _renamed(source, tmp_path / "renamed.ast.json")
    vocab = load_vocabulary(trained["vocab"])
    trees = [parse_ast_json(read_document(p)) for p in (source, renamed)]
    before, after = (normalized_contract(tree, vocab) for tree in trees)
    names = [[tree.nodes[t.n_id].name for t in graph.tuples] for tree, graph in zip(trees, (before, after))]
    assert names[0] != names[1]
    assert before.features.tobytes() == after.features.tobytes()
    assert before.s_hat.tobytes() == after.s_hat.tobytes()
    argv = ["detect", "--model", str(trained["model"]), "--vocab", str(trained["vocab"])]
    reports = []
    for path in (source, renamed):
        assert main([*argv, str(path)]) in (0, 1)
        report = json.loads(capsys.readouterr().out)
        reports.append({k: v for k, v in report.items() if k not in ("contract", "timestamp")})
    assert reports[0] == reports[1]


def _options_by_subcommand() -> dict[str, list[argparse.Action]]:
    """Every optional argument of every subcommand, `-h` aside."""
    parser = statelens.cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        command: [a for a in subparser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
        for command, subparser in sub.choices.items()
    }


def test_readme_cli_section_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    options = _options_by_subcommand()
    for command, actions in options.items():
        for option in (o for action in actions for o in action.option_strings):
            assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme), f"{command} {option}"
    defaults = re.findall(r"`(--[\w-]+) ([^`]+)`", re.search(r"Defaults:(.*?)\.\s", readme, re.S)[1])
    assert defaults
    for option, text in defaults:
        having = [a for actions in options.values() for a in actions if option in a.option_strings]
        assert having, option
        for action in having:
            assert (action.type or str)(text) == action.default, option
