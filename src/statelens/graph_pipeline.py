"""End-to-end graph construction: tokens, vocabulary, pruning, normalization.

The chain is: extract node tuples and edges, build an adjacency over the
categorized nodes in DFS preorder, prune against the label set, look up
fixed random embeddings through the word2idx vocabulary, then produce the
symmetrically normalized operator S = D^{-1/2} (A + I) D^{-1/2} the GCN
consumes. Everything here is deterministic given (tree, rules, seed).
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .ast_ingest import AstTree
from .errors import EmptyCorpusError, EmptyGraphError, SchemaViolationError, ShapeMismatchError
from .feature_extract import (
    EdgeTuple,
    LabelSet,
    NodeTuple,
    extract_edges,
    extract_node_tuples,
    label_set_from_rules,
)

NAME_BUCKETS = 256
DEFAULT_EMBED_DIM = 64

GRAPH_MAGIC = b"SGG1"


def _name_bucket(name: str) -> int:
    return zlib.crc32(name.encode("utf-8")) % NAME_BUCKETS


def _literal_tag(value: str) -> str:
    text = value.strip().lower()
    if text in ("true", "false"):
        return "bool"
    if text.startswith("0x"):
        return "number"
    try:
        float(text)
        return "number"
    except ValueError:
        return "string"


def token_for(node: NodeTuple) -> str:
    """Stable vocabulary token: type plus hashed name, literals by type tag."""
    if node.n_type == "Literal":
        return f"Literal:{_literal_tag(node.n_value)}"
    return f"{node.n_type}:{_name_bucket(node.n_name)}"


@dataclass
class Vocabulary:
    word2idx: dict[str, int]
    embedding: np.ndarray  # (1 + len(word2idx)) x dim, row 0 = UNK
    unk_index: int = 0

    @property
    def dim(self) -> int:
        return int(self.embedding.shape[1])

    def __len__(self) -> int:
        return int(self.embedding.shape[0])

    def index(self, token: str) -> int:
        return self.word2idx.get(token, self.unk_index)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "unk_index": self.unk_index,
            "word2idx": self.word2idx,
            "embedding": self.embedding.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Vocabulary":
        embedding = np.asarray(data["embedding"], dtype=np.float64)
        vocab = cls(
            word2idx={str(k): int(v) for k, v in data["word2idx"].items()},
            embedding=embedding,
            unk_index=int(data.get("unk_index", 0)),
        )
        if embedding.ndim != 2 or embedding.shape[1] < 1:
            raise SchemaViolationError(
                f"embedding must be a non-empty matrix, got shape {embedding.shape}"
            )
        rows = embedding.shape[0]
        if not all(0 <= i < rows for i in (vocab.unk_index, *vocab.word2idx.values())):
            raise SchemaViolationError(f"vocabulary indices must lie in [0, {rows})")
        return vocab

    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_vocabulary(
    corpus: Sequence[Sequence[NodeTuple]], dim: int = DEFAULT_EMBED_DIM, seed: int = 0
) -> Vocabulary:
    """Frequency-then-lexicographic token indexing plus a seeded embedding table.

    Index 0 is reserved for out-of-vocabulary tokens; rows are drawn
    uniformly from [-1/sqrt(dim), +1/sqrt(dim)].
    """
    if not corpus:
        raise EmptyCorpusError("vocabulary needs at least one contract")
    if dim < 1:
        raise ValueError(f"embedding dim must be >= 1, got {dim}")
    counts: dict[str, int] = {}
    for doc in corpus:
        for node in doc:
            token = token_for(node)
            counts[token] = counts.get(token, 0) + 1
    ordered = sorted(counts, key=lambda token: (-counts[token], token))
    word2idx = {token: i + 1 for i, token in enumerate(ordered)}
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    embedding = rng.uniform(-bound, bound, size=(1 + len(ordered), dim))
    return Vocabulary(word2idx=word2idx, embedding=embedding)


def save_vocabulary(path: str | Path, vocab: Vocabulary) -> None:
    Path(path).write_text(json.dumps(vocab.to_json_dict(), sort_keys=True), encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary file; one that is not valid JSON of the shape
    `Vocabulary.to_json_dict` writes raises SchemaViolationError."""
    try:
        return Vocabulary.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise SchemaViolationError(
            f"{path}: not a vocabulary file: {type(exc).__name__}: {exc}"
        ) from None


@dataclass
class ContractGraph:
    """Pruned dependency graph of one contract, pre- or post-embedding."""

    node_ids: list[int]  # graph index -> AST node id
    tuples: list[NodeTuple]
    spans: list[tuple[int, int, int]]
    adjacency: np.ndarray  # n x n symmetric 0/1
    edges: list[EdgeTuple]  # original directed edges, AST ids
    features: np.ndarray | None = None
    label: str | None = None

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def neighbor_map(self) -> dict[int, list[int]]:
        return {
            i: [int(j) for j in np.flatnonzero(self.adjacency[i])]
            for i in range(self.n)
        }

    @property
    def value_map(self) -> dict[int, np.ndarray]:
        if self.features is None:
            return {}
        return {i: self.features[i] for i in range(self.n)}

    def index_of(self, ast_id: int) -> int:
        return self.node_ids.index(ast_id)


@dataclass
class NormalizedGraph:
    """GCN-ready view: features X, S = D^{-1/2} (A+I) D^{-1/2}, and A+I."""

    features: np.ndarray
    s_hat: np.ndarray
    a_hat: np.ndarray
    node_ids: list[int]
    spans: list[tuple[int, int, int]]
    label: str | None = None

    @property
    def n(self) -> int:
        return int(self.s_hat.shape[0])


def build_graph(
    tree: AstTree, tuples: Sequence[NodeTuple], edges: Sequence[EdgeTuple]
) -> ContractGraph:
    """Assemble the adjacency over categorized nodes in DFS preorder.

    Directed edges are stored verbatim; the adjacency itself is symmetrized
    because the downstream normalization presumes an undirected graph.
    """
    if not tuples:
        raise EmptyGraphError(f"{tree.source_unit}: no categorized nodes")
    index = {t.n_id: i for i, t in enumerate(tuples)}
    n = len(tuples)
    adjacency = np.zeros((n, n), dtype=np.float64)
    for edge in edges:
        if edge.e_s not in index or edge.e_e not in index:
            raise EmptyGraphError(
                f"{tree.source_unit}: edge endpoint {edge.e_s}->{edge.e_e} missing from tuples"
            )
        i, j = index[edge.e_s], index[edge.e_e]
        if i != j:
            adjacency[i, j] = 1.0
            adjacency[j, i] = 1.0
    return ContractGraph(
        node_ids=[t.n_id for t in tuples],
        tuples=list(tuples),
        spans=[tree.nodes[t.n_id].src_span for t in tuples],
        adjacency=adjacency,
        edges=list(edges),
    )


def optimize_graph(graph: ContractGraph, label_set: LabelSet) -> ContractGraph:
    """Prune nodes outside the label set, then drop components disconnected
    from the first surviving node. Idempotent; never adds nodes or edges."""
    survivors = [
        i
        for i, t in enumerate(graph.tuples)
        if (t.n_type, t.category) in label_set
    ]
    if not survivors:
        raise EmptyGraphError("label set pruned every node")

    surviving = set(survivors)
    component: set[int] = set()
    stack = [survivors[0]]
    while stack:
        i = stack.pop()
        if i in component:
            continue
        component.add(i)
        for j in np.flatnonzero(graph.adjacency[i]):
            if int(j) in surviving and int(j) not in component:
                stack.append(int(j))

    keep = [i for i in survivors if i in component]
    keep_ids = {graph.node_ids[i] for i in keep}
    sub = graph.adjacency[np.ix_(keep, keep)].copy()
    return ContractGraph(
        node_ids=[graph.node_ids[i] for i in keep],
        tuples=[graph.tuples[i] for i in keep],
        spans=[graph.spans[i] for i in keep],
        adjacency=sub,
        edges=[e for e in graph.edges if e.e_s in keep_ids and e.e_e in keep_ids],
        features=None if graph.features is None else graph.features[keep].copy(),
        label=graph.label,
    )


def embed_nodes(graph: ContractGraph, vocab: Vocabulary) -> ContractGraph:
    rows = [vocab.index(token_for(t)) for t in graph.tuples]
    features = vocab.embedding[rows].copy()
    return replace(graph, features=features)


def normalize(graph: ContractGraph) -> NormalizedGraph:
    """Add self-loops and apply the symmetric degree normalization."""
    if graph.n < 1:
        raise EmptyGraphError("cannot normalize an empty graph")
    if graph.features is None:
        raise ShapeMismatchError("graph has no features; embed_nodes must run first")
    a_hat = graph.adjacency + np.eye(graph.n)
    degrees = a_hat.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(degrees)  # self-loops keep every degree >= 1
    s_hat = a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]
    return NormalizedGraph(
        features=graph.features.copy(),
        s_hat=s_hat,
        a_hat=a_hat,
        node_ids=list(graph.node_ids),
        spans=list(graph.spans),
        label=graph.label,
    )


def build_contract_graph(tree: AstTree, rules=None) -> ContractGraph:
    """extract tuples and edges from a tree and assemble the raw graph."""
    tuples = extract_node_tuples(tree, rules)
    edges = extract_edges(tree, tuples)
    return build_graph(tree, tuples, edges)


def process_contract(
    tree: AstTree,
    vocab: Vocabulary,
    rules=None,
    label_set: LabelSet | None = None,
    label: str | None = None,
) -> NormalizedGraph:
    """Full chain from parsed tree to GCN-ready matrices."""
    if label_set is None:
        label_set = label_set_from_rules(rules)
    graph = optimize_graph(build_contract_graph(tree, rules), label_set)
    graph = embed_nodes(graph, vocab)
    graph.label = label
    return normalize(graph)


# ---------------------------------------------------------------------------
# Serialization: a small binary container plus a JSON debug dump. Both
# round-trip losslessly; the binary layout is magic "SGG1", little-endian
# u32 n and d, then row-major f64 X (n*d), s_hat (n*n), a_hat (n*n),
# i64 node ids (n), i64 spans (3n), and one label byte (0 none, 1 clean,
# 2 defective).
# ---------------------------------------------------------------------------

_LABEL_BYTES = {None: 0, "clean": 1, "defective": 2}
_BYTES_LABEL = {v: k for k, v in _LABEL_BYTES.items()}


def graph_to_bytes(graph: NormalizedGraph) -> bytes:
    n, d = graph.features.shape
    parts = [
        GRAPH_MAGIC,
        struct.pack("<II", n, d),
        np.ascontiguousarray(graph.features, dtype="<f8").tobytes(),
        np.ascontiguousarray(graph.s_hat, dtype="<f8").tobytes(),
        np.ascontiguousarray(graph.a_hat, dtype="<f8").tobytes(),
        np.asarray(graph.node_ids, dtype="<i8").tobytes(),
        np.asarray(graph.spans, dtype="<i8").reshape(-1).tobytes(),
        struct.pack("<B", _LABEL_BYTES[graph.label]),
    ]
    return b"".join(parts)


def graph_from_bytes(blob: bytes) -> NormalizedGraph:
    if blob[:4] != GRAPH_MAGIC:
        raise SchemaViolationError(f"bad graph magic {blob[:4]!r}")
    n, d = struct.unpack_from("<II", blob, 4)
    offset = 12

    def take(count: int, dtype: str) -> np.ndarray:
        nonlocal offset
        size = count * 8
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset).copy()
        offset += size
        return arr

    features = take(n * d, "<f8").reshape(n, d)
    s_hat = take(n * n, "<f8").reshape(n, n)
    a_hat = take(n * n, "<f8").reshape(n, n)
    node_ids = [int(v) for v in take(n, "<i8")]
    spans_flat = take(3 * n, "<i8").reshape(n, 3)
    (label_byte,) = struct.unpack_from("<B", blob, offset)
    return NormalizedGraph(
        features=features,
        s_hat=s_hat,
        a_hat=a_hat,
        node_ids=node_ids,
        spans=[tuple(int(v) for v in row) for row in spans_flat],
        label=_BYTES_LABEL[label_byte],
    )


def save_graph(path: str | Path, graph: NormalizedGraph) -> None:
    Path(path).write_bytes(graph_to_bytes(graph))


def load_graph(path: str | Path) -> NormalizedGraph:
    return graph_from_bytes(Path(path).read_bytes())


def graph_to_json_dict(graph: NormalizedGraph) -> dict:
    return {
        "n": graph.n,
        "dim": int(graph.features.shape[1]),
        "node_ids": graph.node_ids,
        "spans": [list(span) for span in graph.spans],
        "label": graph.label,
        "features": graph.features.tolist(),
        "s_hat": graph.s_hat.tolist(),
        "a_hat": graph.a_hat.tolist(),
    }


def graph_from_json_dict(data: dict) -> NormalizedGraph:
    return NormalizedGraph(
        features=np.asarray(data["features"], dtype=np.float64),
        s_hat=np.asarray(data["s_hat"], dtype=np.float64),
        a_hat=np.asarray(data["a_hat"], dtype=np.float64),
        node_ids=[int(v) for v in data["node_ids"]],
        spans=[tuple(int(v) for v in span) for span in data["spans"]],
        label=data.get("label"),
    )
