"""Shared builders and independent oracles for the test suite.

Every oracle here recomputes the expected result by a different route than
the library (explicit matrix products, brute-force reachability, raw JSON
walks), so tests never check an implementation against itself.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from statelens.detector import EpochStats, GcnModel, evaluate
from statelens.feature_extract import (
    EdgeTuple,
    EdgeType,
    NodeTuple,
    label_set_from_rules,
)
from statelens.ast_ingest import AstTree, parse_ast_json, read_document
from statelens.corpus import load_corpus, synth_generate
from statelens.errors import EmptyGraphError
from statelens.gcn_core import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CLASSES,
    DEFECTIVE,
    ForwardTrace,
    GcnParams,
    OptimizerState,
    TrainConfig,
    init_params,
    loss_and_grads,
)
from statelens.graph_pipeline import (
    ContractGraph,
    SparseOperator,
    Vocabulary,
    build_contract_graph,
    embed_nodes,
    normalize,
    optimize_graph,
)

LABEL_PAIRS = sorted(label_set_from_rules(), key=lambda p: (p[0], p[1].value))

CONTROL_TYPES = {"IfStatement", "ForStatement", "WhileStatement"}


def _contract_graph(kinds: np.ndarray, links: list[tuple[int, int]]) -> ContractGraph:
    """A ContractGraph whose node i has (type, category) LABEL_PAIRS[kinds[i]]
    and whose links are `links` (i < j), each also a directed AstChild edge."""
    n = len(kinds)
    node_ids = [100 + i for i in range(n)]
    tuples = []
    for i, k in enumerate(kinds.tolist()):
        n_type, category = LABEL_PAIRS[k]
        token = "Literal:string" if n_type == "Literal" else n_type  # an empty value tags as a string
        tuples.append(NodeTuple(n_id=node_ids[i], n_type=n_type, token=token, category=category))
    return ContractGraph(
        node_ids=node_ids,
        tuples=tuples,
        spans=[(i * 10, 5, 0) for i in range(n)],
        pairs=np.array(sorted(links), dtype=np.int64).reshape(-1, 2),
        edges=[EdgeTuple(e_s=node_ids[i], e_e=node_ids[j], e_t=EdgeType.AST_CHILD) for i, j in links],
    )


def random_contract_graph(rng: np.random.Generator, n_min=3, n_max=10, edge_p=0.35) -> ContractGraph:
    """A structurally valid random graph over real (type, category) pairs."""
    n = int(rng.integers(n_min, n_max + 1))
    kinds = rng.integers(0, len(LABEL_PAIRS), size=n)
    links = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_p]
    return _contract_graph(kinds, links)


def random_tree_graph(rng: np.random.Generator, n: int) -> ContractGraph:
    """A random tree over n nodes: node i > 0 links to a uniform earlier node."""
    kinds = rng.integers(0, len(LABEL_PAIRS), size=n)
    links = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return _contract_graph(kinds, links)


def dense_adjacency(graph: ContractGraph) -> np.ndarray:
    """The n x n symmetric 0/1 adjacency of a graph's undirected links."""
    adjacency = np.zeros((graph.n, graph.n))
    for i, j in graph.pairs.tolist():
        adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency


def random_label_subset(rng: np.random.Generator):
    mask = rng.random(len(LABEL_PAIRS)) < 0.6
    return frozenset(p for p, keep in zip(LABEL_PAIRS, mask) if keep)


def reference_optimize_graph(graph: ContractGraph, label_set) -> ContractGraph:
    """`optimize_graph` as a prune and a walk with no shortcut: nodes outside
    the label set go, then every survivor the walk over neighbour lists from
    the first survivor does not reach. `graph` itself when no node goes."""
    surviving = [(t.n_type, t.category) in label_set for t in graph.tuples]
    if not any(surviving):
        raise EmptyGraphError("label set pruned every node")
    neighbors: list[list[int]] = [[] for _ in range(graph.n)]
    for i, j in graph.pairs.tolist():
        if surviving[i] and surviving[j]:
            neighbors[i].append(j)
            neighbors[j].append(i)
    start = surviving.index(True)
    in_component = {start}
    stack = [start]
    while stack:
        for j in neighbors[stack.pop()]:
            if j not in in_component:
                in_component.add(j)
                stack.append(j)
    keep = sorted(in_component)
    if len(keep) == graph.n:
        return graph
    keep_ids = {graph.node_ids[i] for i in keep}
    remap = {old: new for new, old in enumerate(keep)}
    return ContractGraph(
        node_ids=[graph.node_ids[i] for i in keep],
        tuples=[graph.tuples[i] for i in keep],
        spans=[graph.spans[i] for i in keep],
        pairs=np.array(
            [(remap[i], remap[j]) for i, j in graph.pairs.tolist() if i in remap and j in remap],
            dtype=np.int64,
        ).reshape(-1, 2),
        edges=[e for e in graph.edges if e.e_s in keep_ids and e.e_e in keep_ids],
        label=graph.label,
    )


def brute_force_normalize(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Independent dense computation of (A+I, D^-1/2 (A+I) D^-1/2)."""
    n = adjacency.shape[0]
    a_hat = adjacency + np.identity(n)
    d_hat = np.diag(a_hat.sum(axis=1))
    d_inv_sqrt = np.diag(1.0 / np.sqrt(np.diag(d_hat)))
    return a_hat, d_inv_sqrt @ a_hat @ d_inv_sqrt


def brute_force_component(n: int, undirected_pairs: set[tuple[int, int]], start: int) -> set[int]:
    """Reachable set by explicit breadth-first expansion over an edge set."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for a, b in undirected_pairs:
                other = b if a == i else a if b == i else None
                if other is not None and other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


def random_normalized_graph(
    rng: np.random.Generator, n: int, dim: int, label: str | None = None
) -> ContractGraph:
    adjacency = (rng.random((n, n)) < 0.4).astype(float)
    adjacency = np.triu(adjacency, 1)
    adjacency = adjacency + adjacency.T
    _, s_hat = brute_force_normalize(adjacency)
    return ContractGraph(
        node_ids=list(range(n)),
        tuples=[],
        spans=[(0, 0, 0)] * n,
        pairs=np.empty((0, 2), np.int64),
        edges=[],
        features=rng.normal(size=(n, dim)),
        label=label,
        s_hat=s_hat,
    )


def normalized_contract(tree: AstTree, vocab: Vocabulary, label: str | None = None) -> ContractGraph:
    """One tree through the default rules to GCN-ready matrices: the chain
    `statelens detect` runs per file."""
    graph = optimize_graph(build_contract_graph(tree), label_set_from_rules())
    graph.label = label
    return normalize(embed_nodes(graph, vocab))


def generated_contracts(n_pairs: int, seed: int) -> list[tuple[str, str, AstTree]]:
    """`synth_generate`'s corpus read back through its manifest, as `train`
    reads it: (path, label, tree) per record in manifest order. The files are
    deleted before this returns."""
    with tempfile.TemporaryDirectory() as out_dir:
        synth_generate(n_pairs, seed=seed, out_dir=out_dir)
        return [
            (path, label, parse_ast_json(read_document(path), source_unit=path))
            for path, label in load_corpus(Path(out_dir) / "manifest.jsonl")
        ]


def one_shot_sparse_matmul(s: SparseOperator, h: np.ndarray) -> np.ndarray:
    """S @ H as one flattened bincount over every stored entry at once: the
    unblocked segment sum the blocked `SparseOperator.__matmul__` must match
    bit for bit."""
    n, d = s.shape[0], h.shape[1]
    weighted = h[s.indices]
    weighted *= s.data[:, None]
    slots = s.rows[:, None] * d + np.arange(d)
    return np.bincount(slots.ravel(), weights=weighted.ravel(), minlength=n * d).reshape(n, d)


def reference_top_nodes(
    model: GcnModel, graph: ContractGraph, trace: ForwardTrace, k: int
) -> list[tuple[int, tuple[int, int, int], float]]:
    """(node id, span, salience) of the top-k nodes by a Python sort on the
    key (-salience, index): ties go to the earlier node."""
    salience = (trace.h2 @ model.params.w_out + model.params.b_out)[:, DEFECTIVE].tolist()
    order = sorted(range(graph.n), key=lambda i: (-salience[i], i))[:k]
    return [(graph.node_ids[i], graph.spans[i], salience[i]) for i in order]


def params_of(w1, w2, w_out, b_out) -> GcnParams:
    """The parameters with these weights, concatenated into one fresh vector."""
    flat = np.concatenate([np.ravel(arr) for arr in (w1, w2, w_out, b_out)], dtype=np.float64)
    return GcnParams(flat, *np.shape(w1))


def random_params(rng: np.random.Generator, dim: int, hidden: int, scale=1.0) -> GcnParams:
    return params_of(
        w1=rng.normal(scale=scale, size=(dim, hidden)),
        w2=rng.normal(scale=scale, size=(hidden, hidden)),
        w_out=rng.normal(scale=scale, size=(hidden, 2)),
        b_out=rng.normal(scale=scale, size=2),
    )


def finite_difference_grads(
    params: GcnParams, graph: ContractGraph, label: str, l2: float, step: float = 1e-5
) -> GcnParams:
    """Central differences through the full loss, one parameter at a time."""

    def loss_only() -> float:
        return loss_and_grads(params, graph, label, l2)[0]

    flat = params.flat  # w1, w2, w_out and b_out are views into it
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        plus = loss_only()
        flat[i] = original - step
        minus = loss_only()
        flat[i] = original
        grad[i] = (plus - minus) / (2 * step)
    return GcnParams(grad, params.dim, params.hidden)


def max_relative_grad_error(analytic: GcnParams, numeric: GcnParams) -> float:
    a, b = analytic.flat, numeric.flat
    assert a.shape == b.shape
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# Allocating reference for training: every step builds fresh arrays, in the
# evaluation order the in-place gcn_core code must reproduce bit for bit.
# ---------------------------------------------------------------------------


def reference_forward(
    params: GcnParams, graph: ContractGraph, sx: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """The forward pass through numpy's `mean` and `np.max`."""
    s_hat = graph.s_hat
    sh0 = s_hat @ graph.features if sx is None else sx
    h1 = np.maximum(sh0 @ params.w1, 0.0)
    sh1 = s_hat @ h1
    h2 = np.maximum(sh1 @ params.w2, 0.0)
    pooled = h2.mean(axis=0)
    logits = pooled @ params.w_out + params.b_out
    exp = np.exp(logits - np.max(logits))
    probs = exp / exp.sum()
    return {
        "sh0": sh0, "h1": h1, "sh1": sh1, "h2": h2, "pooled": pooled, "logits": logits, "probs": probs
    }


def reference_loss_and_grads(
    params: GcnParams,
    graph: ContractGraph,
    label: str,
    l2_penalty: float = 0.0,
    sx: np.ndarray | None = None,
) -> tuple[float, GcnParams]:
    """Loss and a freshly concatenated gradient vector."""
    trace = reference_forward(params, graph, sx)
    target = CLASSES.index(label)
    probs = trace["probs"]
    loss = -float(np.log(probs[target])) + 0.5 * l2_penalty * float(params.flat @ params.flat)
    n = graph.features.shape[0]

    d_logits = probs.copy()
    d_logits[target] -= 1.0
    d_w_out = np.outer(trace["pooled"], d_logits)
    d_pooled = params.w_out @ d_logits
    d_z2 = (d_pooled / n) * (trace["h2"] > 0)
    d_w2 = trace["sh1"].T @ d_z2
    d_h1 = graph.s_hat @ (d_z2 @ params.w2.T)
    d_z1 = d_h1 * (trace["h1"] > 0)
    d_w1 = trace["sh0"].T @ d_z1

    grads = np.concatenate([d_w1.ravel(), d_w2.ravel(), d_w_out.ravel(), d_logits])
    if l2_penalty:
        grads = grads + l2_penalty * params.flat
    return loss, GcnParams(grads, params.dim, params.hidden)


def reference_optimizer_step(
    state: OptimizerState, params: GcnParams, grads: GcnParams, config: TrainConfig
) -> tuple[GcnParams, OptimizerState]:
    """Functional bias-corrected Adam: fresh params and fresh state."""
    lr = config.learning_rate
    p, g = params.flat, grads.flat
    t = state.step + 1
    m_prev = state.m if state.m is not None else np.zeros_like(p)
    v_prev = state.v if state.v is not None else np.zeros_like(p)
    m = ADAM_BETA1 * m_prev + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v_prev + (1 - ADAM_BETA2) * g * g
    bias1 = 1.0 - ADAM_BETA1**t
    bias2 = 1.0 - ADAM_BETA2**t
    updated = p - lr * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)
    return GcnParams(updated, params.dim, params.hidden), OptimizerState(step=t, m=m, v=v)


def reference_train(
    train_graphs: list[ContractGraph], test_graphs: list[ContractGraph], config: TrainConfig
) -> tuple[GcnParams, list[EpochStats]]:
    """`detector.train` on a given split, one fresh params/state per step."""
    params = init_params(int(train_graphs[0].features.shape[1]), config.hidden_width, config.seed)
    state = OptimizerState()
    rng = random.Random(config.seed)
    sx = [graph.s_hat @ graph.features for graph in train_graphs]
    history = []
    for epoch in range(1, config.epochs + 1):
        order = list(range(len(train_graphs)))
        rng.shuffle(order)
        total_loss = 0.0
        for i in order:
            graph = train_graphs[i]
            loss, grads = reference_loss_and_grads(
                params, graph, graph.label, config.l2_penalty, sx[i]
            )
            params, state = reference_optimizer_step(state, params, grads, config)
            total_loss += loss
        held_out = evaluate(GcnModel(params=params), test_graphs)
        train_loss = total_loss / len(train_graphs)
        history.append(EpochStats(epoch=epoch, train_loss=train_loss, held_out=held_out))
    return params, history


def brute_force_confusion(verdicts: list[str], labels: list[str]) -> tuple[int, int, int, int]:
    """Explicit per-pair counting, independent of Metrics.from_counts."""
    tp = sum(1 for v, l in zip(verdicts, labels) if v == "defective" and l == "defective")
    fp = sum(1 for v, l in zip(verdicts, labels) if v == "defective" and l == "clean")
    tn = sum(1 for v, l in zip(verdicts, labels) if v == "clean" and l == "clean")
    fn = sum(1 for v, l in zip(verdicts, labels) if v == "clean" and l == "defective")
    return tp, fp, tn, fn


def nested_ast_json(depth: int) -> str:
    """AST JSON text whose one expression is a chain of `depth` nested
    BinaryOperation nodes, written as text so building it never recurses."""
    head = "".join(
        f'{{"id": {10 + k}, "nodeType": "BinaryOperation", "leftExpression": ' for k in range(depth)
    )
    leaf = '{"id": 5, "nodeType": "Literal", "value": "1"}'
    return (
        '{"id": 1, "nodeType": "SourceUnit", "nodes": [{"id": 2, "nodeType": "ContractDefinition", '
        '"nodes": [{"id": 3, "nodeType": "ExpressionStatement", "expression": '
        + head + leaf + "}" * depth + "}]}]}"
    )


# ---------------------------------------------------------------------------
# Independent walkers over raw AST JSON (never using feature_extract).
# ---------------------------------------------------------------------------


def walk_json_nodes(obj):
    """Yield every nodeType-bearing object in a raw compact-AST document."""
    if isinstance(obj, dict):
        if "nodeType" in obj:
            yield obj
        for value in obj.values():
            yield from walk_json_nodes(value)
    elif isinstance(obj, list):
        for item in obj:
            yield from walk_json_nodes(item)


TREE_NODE_TYPES = ["SourceUnit", "ContractDefinition", "FunctionDefinition", "Block", "Identifier", "Literal"]


@st.composite
def random_tree_docs(draw) -> dict:
    """A compact-AST document of 1-12 nodes, ids 1..n in preorder, each a
    child of a random earlier node under its `nodes` list."""
    n = draw(st.integers(min_value=1, max_value=12))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) if i else None for i in range(n)]
    objs = []
    for i in range(n):
        obj = {"id": i + 1, "nodeType": draw(st.sampled_from(TREE_NODE_TYPES))}
        if draw(st.booleans()):
            obj["name"] = draw(st.text("abcxyz_", min_size=1, max_size=6))
        if draw(st.booleans()):
            obj["visibility"] = draw(st.sampled_from(["public", "internal"]))
        obj["src"] = f"{i * 3}:{draw(st.integers(0, 9))}:0"
        obj["nodes"] = []
        objs.append(obj)
    for i in range(1, n):
        objs[parents[i]]["nodes"].append(objs[i])
    return objs[0]


def reference_node_fields(obj: dict) -> tuple[dict[str, str], tuple[int, ...]]:
    """The attributes and child ids `parse_ast_json` must give one node
    object, by the flattening rules written out in full. Each value under a
    key other than id, nodeType, name and src is walked:
    - an object with a `nodeType` is a child;
    - a plain object's entries are walked under `key.subkey`;
    - a list's objects and lists are walked under the same key, in order,
      and then its non-null scalars, joined by spaces, become that key's
      value (if it has any);
    - any other non-null scalar is its text, booleans as `true`/`false`.
    A later write to a key replaces an earlier one."""
    attrs: dict[str, str] = {}
    children: list[int] = []

    def text(value) -> str:
        if value is True or value is False:
            return "true" if value else "false"
        return str(value)

    def visit(value, key: str) -> None:
        if isinstance(value, dict):
            if "nodeType" in value:
                children.append(value["id"])
            else:
                for sub_key, sub_value in value.items():
                    visit(sub_value, f"{key}.{sub_key}")
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, (dict, list)):
                    visit(item, key)
            words = [
                text(item) for item in value if item is not None and not isinstance(item, (dict, list))
            ]
            if words:
                attrs[key] = " ".join(words)
        elif value is not None:
            attrs[key] = text(value)

    for key, value in obj.items():
        if key not in ("id", "nodeType", "name", "src"):
            visit(value, key)
    return attrs, tuple(children)


def reference_token(tree: AstTree, node_id: int) -> str:
    """A node's vocabulary token: its type, or for a Literal `Literal:` and
    its `kind` attribute ('' when it has none)."""
    node = tree.nodes[node_id]
    if node.node_type != "Literal":
        return node.node_type
    return "Literal:" + node.attributes.get("kind", "")


def json_shape(obj) -> tuple:
    """Nested (nodeType, children-shapes) signature, ignoring names/ids/values."""
    children = []
    for key, value in obj.items():
        if key in ("id", "nodeType", "name", "src"):
            continue
        stack = [value]
        while stack:
            item = stack.pop(0)
            if isinstance(item, dict):
                if "nodeType" in item:
                    children.append(json_shape(item))
                else:
                    stack = list(item.values()) + stack
            elif isinstance(item, list):
                stack = list(item) + stack
    return (obj["nodeType"], tuple(children))


def is_defective_shaped(doc: dict) -> bool:
    """True when some public function writes contract state with no
    enclosing control statement. Pure JSON walk with its own parent logic;
    tolerates both raw documents (bool/int scalars) and reserialized trees
    (stringified scalars)."""

    def as_int(value):
        try:
            return int(value)
        except (TypeError, ValueError):
            return None

    state_ids = {
        node["id"]
        for node in walk_json_nodes(doc)
        if node["nodeType"] == "VariableDeclaration"
        and node.get("stateVariable") in (True, "true")
    }

    def assignment_writes_state(assignment: dict) -> bool:
        lhs = assignment.get("leftHandSide", {})
        for node in walk_json_nodes(lhs):
            if node["nodeType"] == "Identifier" and as_int(node.get("referencedDeclaration")) in state_ids:
                return True
        return False

    def scan(node, inside_control: bool) -> bool:
        """Any unguarded state write in this subtree?"""
        found = False
        if isinstance(node, dict):
            if node.get("nodeType") == "Assignment" and not inside_control:
                if assignment_writes_state(node):
                    return True
            nested_control = inside_control or node.get("nodeType") in CONTROL_TYPES
            for value in node.values():
                found = found or scan(value, nested_control)
        elif isinstance(node, list):
            for item in node:
                found = found or scan(item, inside_control)
        return found

    for node in walk_json_nodes(doc):
        if node["nodeType"] == "FunctionDefinition" and node.get("visibility") == "public":
            if scan(node.get("body", {}), inside_control=False):
                return True
    return False
