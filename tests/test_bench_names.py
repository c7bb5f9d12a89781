"""The benchmark under perfbench/ reaches into statelens by module attribute
and by import. A rename or deletion that breaks those lookups fails here, in
the unit suite, rather than only when the benchmark runs."""

import importlib
import sys
from pathlib import Path

import pytest

import statelens.cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layertrace  # noqa: E402


def test_every_traced_attribute_resolves():
    for module, attr, name, _ in layertrace.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} (span {name})"


@pytest.mark.parametrize("module", ["worker", "inputs"])
def test_benchmark_modules_import(module):
    importlib.import_module(module)  # their statelens imports run at import time


def test_traced_train_and_detect_record_every_layer(tmp_path):
    corpus = tmp_path / "corpus"
    assert statelens.cli.main(["gen", "--pairs", "3", "--seed", "1", "--out", str(corpus)]) == 0
    model, vocab = str(tmp_path / "m.sgm"), str(tmp_path / "v.json")
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        argv = ["train", "--manifest", str(corpus / "manifest.jsonl"), "--model", model]
        assert statelens.cli.main([*argv, "--vocab", vocab, "--epochs", "2"]) == 0
        targets = [str(p) for p in sorted(corpus.glob("*.ast.json"))]
        assert statelens.cli.main(["detect", "--model", model, "--vocab", vocab, *targets]) in (0, 1)
    finally:
        tracer.uninstall()
    assert {span[0] for span in tracer.spans} == {name for _, _, name, _ in layertrace.TARGETS}
