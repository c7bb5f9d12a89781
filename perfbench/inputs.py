"""Seeded workload inputs: synthetic corpora and merged large source units.

Every input is a pure function of the run seed. Training and audit corpora
draw from disjoint generator seeds (even and odd), so the vocabulary a
model is trained with never sees an audited contract.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from statelens.corpus import synth_generate

# Pairs in the corpus `statelens train` fits; the acceptance corpus size.
TRAIN_PAIRS = 100
# Contracts per `detect` call in audit_batch.
AUDIT_PAIRS = 1000
# AST nodes per large unit; about 70% are categorized, so a unit
# has about 2.5k graph nodes. A unit takes parts until it reaches the
# target, so its size barely moves with the seed. Units of one size make the
# latency median a median over every verdict of the run rather than the
# time of whichever size sits in the middle. At 2.5k an n x n float64 array
# is 50 MB, clear of glibc's 32 MiB ceiling for its adaptive mmap
# threshold; units near that ceiling made peak RSS swing by 20% with the seed.
LARGE_UNIT_AST_NODES = 3500
LARGE_UNITS_PER_LABEL = 8
LARGE_PART_PAIRS = 300


def train_seed(seed: int) -> int:
    return 2 * seed


def audit_seed(seed: int) -> int:
    return 2 * seed + 1


def read_manifest(manifest: Path) -> dict[str, str]:
    """Absolute AST path -> label, as the generator wrote them."""
    labels = {}
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            labels[str(manifest.parent / record["ast_path"])] = record["label"]
    return labels


def generate(out_dir: Path, pairs: int, seed: int) -> dict[str, str]:
    """Write `pairs` minimal pairs with their manifest; return path -> label."""
    synth_generate(pairs, seed=seed, out_dir=out_dir)
    return read_manifest(out_dir / "manifest.jsonl")


def _count_nodes(node) -> int:
    if isinstance(node, dict):
        return ("nodeType" in node) + sum(_count_nodes(v) for v in node.values())
    if isinstance(node, list):
        return sum(_count_nodes(v) for v in node)
    return 0


def _max_id(node) -> int:
    if isinstance(node, dict):
        own = node["id"] if "nodeType" in node else 0
        return max([own, *(_max_id(v) for v in node.values())])
    if isinstance(node, list):
        return max((_max_id(v) for v in node), default=0)
    return 0


def _max_src_end(node) -> int:
    if isinstance(node, dict):
        end = 0
        if isinstance(node.get("src"), str):
            offset, length, _ = (int(p) for p in node["src"].split(":"))
            end = offset + length
        return max([end, *(_max_src_end(v) for v in node.values())])
    if isinstance(node, list):
        return max((_max_src_end(v) for v in node), default=0)
    return 0


def _renumber(node, id_offset: int, src_offset: int):
    """Copy of `node` with every id, referencedDeclaration and src start shifted."""
    if isinstance(node, list):
        return [_renumber(v, id_offset, src_offset) for v in node]
    if not isinstance(node, dict):
        return node
    out = {}
    for key, value in node.items():
        if key == "id" and "nodeType" in node:
            out[key] = value + id_offset
        elif key == "referencedDeclaration" and isinstance(value, int):
            out[key] = value + id_offset
        elif key == "src" and isinstance(value, str):
            offset, length, file_index = value.split(":")
            out[key] = f"{int(offset) + src_offset}:{length}:{file_index}"
        else:
            out[key] = _renumber(value, id_offset, src_offset)
    return out


def merge_source_units(docs: list[dict], path: str = "merged.sol") -> dict:
    """One SourceUnit holding the top-level members of every doc in order.

    Ids, referencedDeclaration targets and src byte offsets of each doc are
    shifted past those of the docs before it, so nothing collides and every
    reference still points inside its own part.
    """
    members = []
    id_offset = src_offset = 0
    for doc in docs:
        members.extend(_renumber(doc["nodes"], id_offset, src_offset))
        id_offset += _max_id(doc)
        src_offset += _max_src_end(doc)
    return {
        "id": id_offset + 1,
        "nodeType": "SourceUnit",
        "src": f"0:{src_offset}:0",
        "absolutePath": path,
        "compilerVersion": docs[0].get("compilerVersion", ""),
        "nodes": members,
    }


def build_large_units(parts_dir: Path, out_dir: Path, seed: int) -> dict[str, str]:
    """Merge same-label synthetic contracts into LARGE_UNITS_PER_LABEL units
    per label. A unit is defective when its parts are and clean when they are.
    """
    labels = generate(parts_dir, LARGE_PART_PAIRS, audit_seed(seed))
    by_label: dict[str, list[dict]] = {"defective": [], "clean": []}
    for path, label in sorted(labels.items()):
        by_label[label].append(json.loads(Path(path).read_text(encoding="utf-8")))
    rng = random.Random(audit_seed(seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    units = {}
    for i in range(LARGE_UNITS_PER_LABEL):
        for label in ("defective", "clean"):
            pool = by_label[label][:]
            rng.shuffle(pool)
            docs, size = [], 0
            while size < LARGE_UNIT_AST_NODES:
                docs.append(pool.pop())
                size += _count_nodes(docs[-1]) - 1
            name = f"unit{i:02d}_{label}.ast.json"
            merged = merge_source_units(docs, path=name)
            (out_dir / name).write_text(json.dumps(merged), encoding="utf-8")
            units[str(out_dir / name)] = label
    return units
