import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statelens.ast_ingest import validate_tree
from statelens.corpus import (
    kfold_indices,
    load_corpus,
    split_items,
    synth_generate,
)
from statelens.errors import BadLabelError, SchemaViolationError

from helpers import is_defective_shaped, json_shape

MINIMAL_AST = '{"id": 1, "nodeType": "SourceUnit", "nodes": [{"id": 2, "nodeType": "ContractDefinition", "name": "C"}]}'


# ---------------------------------------------------------------------------
# manifest loading
# ---------------------------------------------------------------------------


def test_load_empty_manifest(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("")
    assert load_corpus(manifest) == []


def test_load_two_records(tmp_path):
    for name in ("a.ast.json", "b.ast.json"):
        (tmp_path / name).write_text(MINIMAL_AST)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"ast_path": "a.ast.json", "label": "defective"})
        + "\n"
        + json.dumps({"ast_path": "b.ast.json", "label": "clean"})
        + "\n"
    )
    assert load_corpus(manifest) == [
        (str(tmp_path / "a.ast.json"), "defective"),
        (str(tmp_path / "b.ast.json"), "clean"),
    ]


def test_load_bad_label_names_line(tmp_path):
    (tmp_path / "a.ast.json").write_text(MINIMAL_AST)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(
        json.dumps({"ast_path": "a.ast.json", "label": "clean"})
        + "\n"
        + json.dumps({"ast_path": "a.ast.json", "label": "maybe"})
        + "\n"
    )
    with pytest.raises(BadLabelError, match=":2:"):
        load_corpus(manifest)


def test_load_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "nope.jsonl")


def test_load_malformed_record(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("{not json}\n")
    with pytest.raises(SchemaViolationError, match=":1:"):
        load_corpus(manifest)


def test_load_record_missing_fields(tmp_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text('{"ast_path": "x"}\n')
    with pytest.raises(SchemaViolationError):
        load_corpus(manifest)


@pytest.mark.parametrize("ast_path", [None, 5, ["a.ast.json"], {"path": "a.ast.json"}])
def test_load_record_with_a_non_string_ast_path_names_line(tmp_path, ast_path):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"ast_path": ast_path, "label": "clean"}) + "\n")
    with pytest.raises(SchemaViolationError, match=":1:"):
        load_corpus(manifest)


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_ten_items_nine_one():
    train, test = split_items(list(range(10)), ["clean"] * 10, seed=1)
    assert len(train) == 9 and len(test) == 1


def test_split_deterministic():
    items = list(range(30))
    labels = ["defective" if i % 3 else "clean" for i in items]
    assert split_items(items, labels, seed=5) == split_items(items, labels, seed=5)
    assert split_items(items, labels, seed=5) != split_items(items, labels, seed=6)


def test_split_stratified_balanced_counts():
    items = list(range(20))
    labels = ["defective"] * 10 + ["clean"] * 10
    train, test = split_items(items, labels, seed=0)
    train_labels = Counter(labels[i] for i in train)
    assert train_labels == Counter({"defective": 9, "clean": 9})
    assert len(test) == 2


def test_split_is_partition():
    items = list(range(17))
    labels = ["defective" if i < 8 else "clean" for i in items]
    train, test = split_items(items, labels, seed=2)
    assert set(train) | set(test) == set(items)
    assert set(train) & set(test) == set()


@given(
    n=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=80)
def test_split_partition_property(n, seed):
    items = list(range(n))
    labels = ["defective" if i % 2 else "clean" for i in items]
    train, test = split_items(items, labels, seed)
    assert sorted(train + test) == items
    assert train and test


def test_kfold_indices_cover_everything():
    folds = kfold_indices(10, 5, seed=0)
    assert len(folds) == 5
    all_test = [i for _, test in folds for i in test]
    assert sorted(all_test) == list(range(10))
    for train, test in folds:
        assert sorted(train + test) == list(range(10))


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_generate_one_pair():
    contracts = synth_generate(1, seed=0)
    assert [c.label for c in contracts] == ["defective", "clean"]


def test_generated_trees_are_valid():
    for contract in synth_generate(5, seed=1):
        assert validate_tree(contract.tree) == []


def test_generated_labels_match_structural_oracle(tmp_path):
    """An independent JSON walker agrees with every label the generator
    assigns: positives have a public unguarded state write, negatives do not."""
    contracts = synth_generate(20, seed=9, out_dir=tmp_path)
    for contract in contracts:
        doc = json.loads((tmp_path / contract.path.split("/")[-1]).read_text())
        assert is_defective_shaped(doc) == (contract.label == "defective")


def test_minimal_pair_differs_only_in_guard(tmp_path):
    contracts = synth_generate(10, seed=4, out_dir=tmp_path)
    for defective, clean in zip(contracts[::2], contracts[1::2]):
        shape_def = json_shape(json.loads((tmp_path / defective.path.split("/")[-1]).read_text()))
        shape_cln = json_shape(json.loads((tmp_path / clean.path.split("/")[-1]).read_text()))

        def strip_guard(shape):
            """Replace each IfStatement(cond, Block(body...)) with body."""
            node_type, children = shape
            out = []
            for child in children:
                child = strip_guard(child)
                if child[0] == "IfStatement":
                    block = child[1][-1]
                    assert block[0] == "Block"
                    out.extend(block[1])
                else:
                    out.append(child)
            return (node_type, tuple(out))

        assert shape_def != shape_cln
        assert strip_guard(shape_cln) == shape_def


def test_generator_deterministic_bytes(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    synth_generate(8, seed=42, out_dir=dir_a)
    synth_generate(8, seed=42, out_dir=dir_b)
    files_a = sorted(p.name for p in dir_a.iterdir())
    assert files_a == sorted(p.name for p in dir_b.iterdir())
    assert len([f for f in files_a if f.endswith(".ast.json")]) == 16
    for name in files_a:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_generator_manifest_loads_back(tmp_path):
    synth_generate(3, seed=5, out_dir=tmp_path)
    records = load_corpus(tmp_path / "manifest.jsonl")
    assert len(records) == 6
    assert Counter(label for _, label in records) == Counter({"defective": 3, "clean": 3})
    assert sorted(path for path, _ in records) == sorted(map(str, tmp_path.glob("*.ast.json")))
    assert (tmp_path / "README.md").exists()


def test_generated_names_are_randomized():
    contracts = synth_generate(6, seed=8)
    target_names = set()
    for contract in contracts:
        for node in contract.tree.nodes.values():
            if node.node_type == "FunctionDefinition" and node.attributes.get("visibility") == "public":
                if node.attributes.get("stateMutability") == "nonpayable":
                    target_names.add(node.name)
    assert len(target_names) > 1
