"""End-to-end graph construction: tokens, vocabulary, pruning, normalization.

The chain is: extract node tuples and edges, link the categorized nodes in
DFS preorder as an undirected edge list, prune against the label set, look
up fixed random embeddings through the word2idx vocabulary, then produce
the symmetrically normalized operator S = D^{-1/2} (A + I) D^{-1/2} the GCN
consumes, dense on small graphs and sparse on large ones. Everything here
is deterministic given (tree, rules, seed).
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ast_ingest import AstTree
from .errors import EmptyCorpusError, EmptyGraphError, SchemaViolationError, ShapeMismatchError
from .feature_extract import (
    EdgeTuple,
    LabelSet,
    NodeTuple,
    RuleTable,
    extract_edges,
    extract_node_tuples,
)

NAME_BUCKETS = 256
DEFAULT_EMBED_DIM = 64


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
    pairs: np.ndarray  # e x 2 int64 undirected links (i < j), unique, sorted
    edges: list[EdgeTuple]  # original directed edges, AST ids
    features: np.ndarray | None = None
    label: str | None = None

    @property
    def n(self) -> int:
        return len(self.node_ids)


def link_pairs(n: int, links: Iterable[tuple[int, int]]) -> np.ndarray:
    """`ContractGraph.pairs` for undirected links (i, j), i != j, over n
    nodes, given in any order and orientation, duplicates allowed."""
    keys = sorted({i * n + j if i < j else j * n + i for i, j in links})
    pairs = np.empty((len(keys), 2), dtype=np.int64)
    pairs[:, 0], pairs[:, 1] = np.divmod(np.array(keys, dtype=np.int64), n)
    return pairs


class SparseOperator:
    """A sparse n x n matrix, its nonzero entries stored row by row, that
    numpy code can use where it would use the dense array: `shape`, `ndim`,
    `nbytes`, and `S @ H` for a dense n x d matrix H.

    The product is a segment sum: stored entry k adds
    `data[k] * H[indices[k]]` to row `rows[k]`, all rows at once through one
    flattened `np.bincount`.
    """

    ndim = 2

    def __init__(self, n: int, rows: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.shape = (n, n)
        self.rows = rows  # row of each stored entry, nondecreasing
        self.indices = indices  # column of each stored entry
        self.data = data

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.indices.nbytes + self.data.nbytes

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        n = self.shape[0]
        if h.ndim != 2 or h.shape[0] != n:
            raise ShapeMismatchError(f"operator {self.shape} cannot multiply {h.shape}")
        d = h.shape[1]
        weighted = h[self.indices]
        weighted *= self.data[:, None]  # in place: one nnz x d temporary fewer
        slots = self.rows[:, None] * d + np.arange(d)
        return np.bincount(slots.ravel(), weights=weighted.ravel(), minlength=n * d).reshape(n, d)


# Graphs with more nodes than this get S as a SparseOperator, smaller ones as
# a dense array. Measured with scripts/s_crossover.py (one BLAS thread,
# d = 64): at n = 320 one S @ X costs the same both ways and normalize plus
# forward is 1.5x faster sparse; at n = 192 dense wins both, by 1.7x and
# 1.1x. Training and audit contracts have 11-47 nodes, merged source units
# thousands.
DENSE_MAX_NODES = 320


@dataclass
class NormalizedGraph:
    """GCN-ready view: features X and S = D^{-1/2} (A+I) D^{-1/2}, either a
    dense array or, above DENSE_MAX_NODES, a SparseOperator."""

    features: np.ndarray
    s_hat: np.ndarray | SparseOperator
    node_ids: list[int]
    spans: list[tuple[int, int, int]]
    label: str | None = None

    @property
    def n(self) -> int:
        return int(self.s_hat.shape[0])

    @property
    def a_hat(self) -> np.ndarray | SparseOperator:
        """A + I, read off S: exactly 1.0 wherever S is nonzero."""
        s = self.s_hat
        if isinstance(s, SparseOperator):
            return SparseOperator(s.shape[0], s.rows, s.indices, np.ones_like(s.data))
        return (s > 0).astype(np.float64)


def build_graph(
    tree: AstTree, tuples: Sequence[NodeTuple], edges: Sequence[EdgeTuple]
) -> ContractGraph:
    """Assemble the links over categorized nodes in DFS preorder.

    Directed edges are stored verbatim; the links themselves are undirected
    because the downstream normalization presumes an undirected graph.
    """
    if not tuples:
        raise EmptyGraphError(f"{tree.source_unit}: no categorized nodes")
    index = {t.n_id: i for i, t in enumerate(tuples)}
    links: list[tuple[int, int]] = []
    for edge in edges:
        if edge.e_s not in index or edge.e_e not in index:
            raise EmptyGraphError(
                f"{tree.source_unit}: edge endpoint {edge.e_s}->{edge.e_e} missing from tuples"
            )
        i, j = index[edge.e_s], index[edge.e_e]
        if i != j:
            links.append((i, j))
    return ContractGraph(
        node_ids=[t.n_id for t in tuples],
        tuples=list(tuples),
        spans=[tree.nodes[t.n_id].src_span for t in tuples],
        pairs=link_pairs(len(tuples), links),
        edges=list(edges),
    )


def optimize_graph(graph: ContractGraph, label_set: LabelSet) -> ContractGraph:
    """Prune nodes outside the label set, then drop components disconnected
    from the first surviving node. Idempotent; never adds nodes or edges.
    A graph that loses no node is returned as it is, not copied; callers
    prune before `embed_nodes`, so a pruned graph carries no features."""
    surviving = [(t.n_type, t.category) in label_set for t in graph.tuples]
    if not any(surviving):
        raise EmptyGraphError("label set pruned every node")
    # When every node survives and each but the first is the larger end of a
    # link (pairs are i < j), all of them reach node 0: the walk keeps them all.
    larger_ends = np.count_nonzero(np.bincount(graph.pairs[:, 1], minlength=1))
    if all(surviving) and larger_ends == graph.n - 1:
        return graph

    neighbors: list[list[int]] = [[] for _ in range(graph.n)]
    for i, j in graph.pairs.tolist():
        if surviving[i] and surviving[j]:
            neighbors[i].append(j)
            neighbors[j].append(i)
    in_component = [False] * graph.n
    start = surviving.index(True)
    in_component[start] = True
    stack = [start]
    while stack:
        for j in neighbors[stack.pop()]:
            if not in_component[j]:
                in_component[j] = True
                stack.append(j)

    keep = [i for i in range(graph.n) if in_component[i]]
    if len(keep) == graph.n:
        return graph
    keep_ids = {graph.node_ids[i] for i in keep}
    remap = np.full(graph.n, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    pairs = remap[graph.pairs]
    return ContractGraph(
        node_ids=[graph.node_ids[i] for i in keep],
        tuples=[graph.tuples[i] for i in keep],
        spans=[graph.spans[i] for i in keep],
        pairs=pairs[(pairs >= 0).all(axis=1)],
        edges=[e for e in graph.edges if e.e_s in keep_ids and e.e_e in keep_ids],
        label=graph.label,
    )


def embed_nodes(graph: ContractGraph, vocab: Vocabulary) -> ContractGraph:
    rows = [vocab.index(token_for(t)) for t in graph.tuples]
    return replace(graph, features=vocab.embedding[rows])


def normalize(graph: ContractGraph) -> NormalizedGraph:
    """Add self-loops and apply the symmetric degree normalization."""
    n = graph.n
    if n < 1:
        raise EmptyGraphError("cannot normalize an empty graph")
    if graph.features is None:
        raise ShapeMismatchError("graph has no features; embed_nodes must run first")
    i, j = graph.pairs.T
    degrees = 1.0 + np.bincount(graph.pairs.ravel(), minlength=n)
    inv_sqrt = 1.0 / np.sqrt(degrees)  # self-loops keep every degree >= 1
    if n <= DENSE_MAX_NODES:
        a_hat = np.eye(n)
        a_hat[i, j] = 1.0
        a_hat[j, i] = 1.0
        s_hat = a_hat * inv_sqrt[:, None] * inv_sqrt[None, :]
    else:
        diagonal = np.arange(n)
        rows = np.concatenate([i, j, diagonal])
        cols = np.concatenate([j, i, diagonal])
        order = np.argsort(rows * n + cols)
        rows, cols = rows[order], cols[order]
        # the same product as the dense (1.0 * inv_sqrt[r]) * inv_sqrt[c]
        s_hat = SparseOperator(n, rows, cols, inv_sqrt[rows] * inv_sqrt[cols])
    return NormalizedGraph(
        features=graph.features,  # embed_nodes made it; no copy
        s_hat=s_hat,
        node_ids=list(graph.node_ids),
        spans=list(graph.spans),
        label=graph.label,
    )


def build_contract_graph(tree: AstTree, rules: RuleTable | None = None) -> ContractGraph:
    """extract tuples and edges from a tree and assemble the raw graph."""
    tuples = extract_node_tuples(tree, rules)
    edges = extract_edges(tree, tuples)
    return build_graph(tree, tuples, edges)
