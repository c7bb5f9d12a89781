"""Checks of the merge that builds the large source units of train_large.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from inputs import generate, merge_source_units  # noqa: E402
from statelens.ast_ingest import parse_ast_json, validate_tree  # noqa: E402
from statelens.feature_extract import EdgeType, extract_edges, extract_node_tuples  # noqa: E402


def _edge_counts(tree) -> Counter:
    return Counter(e.e_t for e in extract_edges(tree, extract_node_tuples(tree)))


def test_merged_unit_is_valid_and_keeps_every_part(tmp_path):
    labels = generate(tmp_path, 8, seed=5)
    docs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in sorted(labels)]
    parts = [parse_ast_json(json.dumps(doc)) for doc in docs]
    merged = parse_ast_json(json.dumps(merge_source_units(docs)), source_unit="merged")

    assert validate_tree(merged) == []
    # Each part's SourceUnit gives way to the one merged SourceUnit.
    assert len(merged) == sum(len(p) - 1 for p in parts) + 1
    assert len(extract_node_tuples(merged)) == sum(len(extract_node_tuples(p)) for p in parts)
    # References were renumbered with their part, so each still resolves to
    # the declaration it named before the merge.
    merged_edges = _edge_counts(merged)
    part_edges = sum((_edge_counts(p) for p in parts), Counter())
    for edge_type in (EdgeType.DECL_REF, EdgeType.DATA_DEP, EdgeType.CONTROL_FLOW):
        assert merged_edges[edge_type] == part_edges[edge_type]
    spans = [node.src_span for node in merged.nodes.values()]
    assert len(set(spans)) == len(spans)
