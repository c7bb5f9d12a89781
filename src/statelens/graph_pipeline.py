"""End-to-end graph construction: tokens, vocabulary, pruning, normalization.

The chain is: extract node tuples and edges, link the categorized nodes in
DFS preorder as an undirected edge list, prune against the label set, give
each node the one-hot feature of its token through the word2idx vocabulary,
then produce the symmetrically normalized operator
S = D^{-1/2} (A + I) D^{-1/2} the GCN consumes, dense on small graphs and
sparse on large ones. Everything here is deterministic given (tree, rules).
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .ast_ingest import AstTree, read_document
from .errors import EmptyGraphError, MalformedJsonError, SchemaViolationError, in_file
from .feature_extract import (
    EdgeTuple,
    LabelSet,
    NodeTuple,
    RuleTable,
    extract_edges,
    extract_node_tuples,
)


def token_for(node: NodeTuple) -> str:
    """`node.token` as a function, for the perfbench layer trace."""
    return node.token


@dataclass
class Vocabulary:
    """Token -> feature column; column 0 is every out-of-vocabulary token."""

    word2idx: dict[str, int]

    @property
    def dim(self) -> int:
        return 1 + len(self.word2idx)

    def to_json_dict(self) -> dict:
        return {"word2idx": self.word2idx}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Vocabulary":
        """The vocabulary `to_json_dict` wrote: each token's index a JSON
        integer (not 1.5, true or "1") in [0, dim), no two tokens sharing
        one. Any other value raises ValueError."""
        vocab = cls(word2idx=dict(data["word2idx"].items()))
        indices = list(vocab.word2idx.values())
        if not all(type(i) is int and 0 <= i < vocab.dim for i in indices):
            raise ValueError(f"indices must be integers in [0, {vocab.dim})")
        if len(set(indices)) != len(indices):
            raise ValueError("two tokens share one index")
        return vocab

    def fingerprint(self) -> str:
        canonical = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_vocabulary(corpus: Sequence[Sequence[NodeTuple]]) -> Vocabulary:
    """Frequency-then-lexicographic token indexing from 1; index 0 is
    reserved for out-of-vocabulary tokens."""
    counts = Counter(node.token for doc in corpus for node in doc)
    ordered = sorted(counts, key=lambda token: (-counts[token], token))
    return Vocabulary(word2idx={token: i + 1 for i, token in enumerate(ordered)})


def save_vocabulary(path: str | Path, vocab: Vocabulary) -> None:
    Path(path).write_text(json.dumps(vocab.to_json_dict(), sort_keys=True), encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary file; one that is not UTF-8, or not valid JSON of the
    shape `Vocabulary.to_json_dict` writes, raises SchemaViolationError with `path`."""
    with in_file(path):
        try:
            return Vocabulary.from_json_dict(json.loads(read_document(path)))
        except MalformedJsonError as exc:
            raise SchemaViolationError(str(exc)) from None
        except RecursionError:
            raise SchemaViolationError(f"{path}: JSON nested too deeply to parse") from None
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise SchemaViolationError(
                f"{path}: not a vocabulary file: {type(exc).__name__}: {exc}"
            ) from None


@dataclass
class ContractGraph:
    """Dependency graph of one contract from build to report. Each stage
    returns a copy with only its own fields changed: pruning the nodes,
    `embed_nodes` the features X, `normalize` the operator
    S = D^{-1/2} (A+I) D^{-1/2}, a dense array or, above DENSE_MAX_NODES,
    a SparseOperator."""

    node_ids: list[int]  # graph index -> AST node id
    tuples: list[NodeTuple]
    spans: list[tuple[int, int, int]]
    pairs: np.ndarray  # e x 2 int64 undirected links (i < j), unique, sorted
    edges: list[EdgeTuple]  # original directed edges, AST ids
    features: np.ndarray | None = None
    label: str | None = None
    s_hat: np.ndarray | SparseOperator | None = None

    @property
    def n(self) -> int:
        return len(self.node_ids)

    @property
    def a_hat(self) -> np.ndarray | SparseOperator:
        """A + I, read off S: exactly 1.0 wherever S is nonzero."""
        s = self.s_hat
        if isinstance(s, SparseOperator):
            return SparseOperator(s.shape[0], s.rows, s.indices, np.ones_like(s.data))
        return (s > 0).astype(np.float64)


def link_pairs(n: int, links: Iterable[tuple[int, int]]) -> np.ndarray:
    """`ContractGraph.pairs` for undirected links (i, j), i != j, over n
    nodes, given in any order and orientation, duplicates allowed."""
    keys = sorted({i * n + j if i < j else j * n + i for i, j in links})
    pairs = np.empty((len(keys), 2), dtype=np.int64)
    pairs[:, 0], pairs[:, 1] = np.divmod(np.array(keys, dtype=np.int64), n)
    return pairs


# Entry x column elements per block of a sparse S @ H: each block's two
# temporaries (256 KB) come from the heap, not from fresh pages that fault in
# and are trimmed away again. Swept with `scripts/s_crossover.py --blocks`.
SPARSE_BLOCK_ELEMENTS = 1 << 15


class SparseOperator:
    """A sparse n x n matrix, its nonzero entries stored row by row, that
    numpy code can use where it would use the dense array: `shape`, `nbytes`,
    and `S @ H` for a dense n x d matrix H.

    The product is a segment sum: stored entry k adds
    `data[k] * H[indices[k]]` to row `rows[k]`, through one flattened
    `np.bincount` per block of whole rows. Every output element sums the
    same entries in the same order whatever the blocking.
    """

    def __init__(self, n: int, rows: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.shape = (n, n)
        self.rows = rows  # row of each stored entry, nondecreasing
        self.indices = indices  # column of each stored entry
        self.data = data
        self.row_ptr = np.searchsorted(rows, np.arange(n + 1))  # row r: row_ptr[r]:row_ptr[r + 1]

    @property
    def nbytes(self) -> int:
        return self.rows.nbytes + self.indices.nbytes + self.data.nbytes + self.row_ptr.nbytes

    def __matmul__(self, h: np.ndarray) -> np.ndarray:
        n, d = self.shape[0], h.shape[1]  # h is n x d
        out = np.empty((n, d))
        ptr, columns = self.row_ptr, np.arange(d)
        per_block = max(1, SPARSE_BLOCK_ELEMENTS // max(d, 1))  # stored entries
        start = 0
        while start < n:  # the most whole rows within budget; a row over it goes alone
            first = ptr[start]
            stop = max(start + 1, int(np.searchsorted(ptr, first + per_block, "right")) - 1)
            entries = slice(first, ptr[stop])
            weighted = h[self.indices[entries]]
            weighted *= self.data[entries, None]  # in place: one temporary fewer
            slots = (self.rows[entries, None] - start) * d + columns
            sums = np.bincount(slots.ravel(), weights=weighted.ravel(), minlength=(stop - start) * d)
            out[start:stop] = sums.reshape(stop - start, d)
            start = stop
        return out


# Graphs with more nodes than this get S as a SparseOperator, smaller ones as
# a dense array. Measured with scripts/s_crossover.py (one BLAS thread,
# one-hot d = 11, the default corpus's width, 2-core Xeon VM): at n = 320
# sparse is faster, by 1.10-1.48x for one S @ X and 1.04-1.21x for normalize
# plus forward (4 runs); at n = 288 dense wins both, by 1.32-2.08x and
# 1.23-1.62x (3 runs). Training and audit contracts have 11-47 nodes, merged
# source units thousands.
DENSE_MAX_NODES = 320


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
    # `extract_edges` links categorized nodes only, and never a node to itself
    links = [(index[edge.e_s], index[edge.e_e]) for edge in edges]
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
    prune before `embed_nodes`, so the copy has no features or S to prune."""
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
    return replace(
        graph,
        node_ids=[graph.node_ids[i] for i in keep],
        tuples=[graph.tuples[i] for i in keep],
        spans=[graph.spans[i] for i in keep],
        pairs=pairs[(pairs >= 0).all(axis=1)],
        edges=[e for e in graph.edges if e.e_s in keep_ids and e.e_e in keep_ids],
    )


def embed_nodes(graph: ContractGraph, vocab: Vocabulary) -> ContractGraph:
    """Features X, n x `vocab.dim`: row i is one-hot in node i's token column."""
    columns = [vocab.word2idx.get(t.token, 0) for t in graph.tuples]
    return replace(graph, features=np.eye(vocab.dim)[columns])


def normalize(graph: ContractGraph) -> ContractGraph:
    """Add self-loops and apply the symmetric degree normalization to an
    embedded graph, never empty (`build_graph` and `optimize_graph` see to it),
    and return it with S attached as `s_hat`."""
    n = graph.n
    i, j = graph.pairs.T
    diagonal = np.arange(n)
    rows = np.concatenate([i, j, diagonal])  # the entries of A + I: each link
    cols = np.concatenate([j, i, diagonal])  # both ways, then the self-loops
    inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, minlength=n))  # a row's entry count is its degree
    values = inv_sqrt[rows] * inv_sqrt[cols]
    if n <= DENSE_MAX_NODES:
        s_hat = np.zeros((n, n))
        s_hat[rows, cols] = values
    else:
        order = np.argsort(rows * n + cols)
        s_hat = SparseOperator(n, rows[order], cols[order], values[order])
    return replace(graph, s_hat=s_hat)


def build_contract_graph(tree: AstTree, rules: RuleTable | None = None) -> ContractGraph:
    """extract tuples and edges from a tree and assemble the raw graph."""
    tuples = extract_node_tuples(tree, rules)
    edges = extract_edges(tree, tuples)
    return build_graph(tree, tuples, edges)
