import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statelens import detector as det
from statelens import graph_pipeline
from statelens.ast_ingest import AstNode, parse_ast_json
from statelens.corpus import synth_generate
from statelens.errors import EmptyGraphError
from statelens.feature_extract import (
    DependencyCategory,
    EdgeTuple,
    EdgeType,
    NodeTuple,
    extract_node_tuples,
    label_set_from_rules,
)
from statelens.gcn_core import forward, loss_and_grads
from statelens.graph_pipeline import (
    DENSE_MAX_NODES,
    ContractGraph,
    SparseOperator,
    build_contract_graph,
    build_graph,
    build_vocabulary,
    embed_nodes,
    link_pairs,
    load_vocabulary,
    normalize,
    optimize_graph,
    save_vocabulary,
)

from helpers import (
    brute_force_component,
    brute_force_normalize,
    dense_adjacency,
    generated_contracts,
    nested_ast_json,
    normalized_contract,
    one_shot_sparse_matmul,
    random_contract_graph,
    random_label_subset,
    random_params,
    random_tree_graph,
    reference_optimize_graph,
)


def _tuple(n_id, n_type="Literal", category=DependencyCategory.EXPRESSION):
    """A tuple whose token is its type, or `Literal:number` for a Literal."""
    token = "Literal:number" if n_type == "Literal" else n_type
    return NodeTuple(n_id=n_id, n_type=n_type, token=token, category=category)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


def test_vocab_single_token_kind_has_size_two():
    docs = [[_tuple(1), _tuple(2)]]
    vocab = build_vocabulary(docs)
    assert vocab.word2idx == {"Literal:number": 1}
    assert vocab.dim == 2  # UNK + "Literal:number"


def _assert_one_hot(features: np.ndarray, columns: list[int]) -> None:
    """Row i holds exactly one 1.0, in column columns[i], and 0.0 elsewhere."""
    expected = np.zeros_like(features)
    expected[np.arange(len(columns)), columns] = 1.0
    assert features.tobytes() == expected.tobytes()


def test_vocab_embedding_deterministic():
    graph = _chain_graph()
    a, b = build_vocabulary([graph.tuples]), build_vocabulary([graph.tuples])
    assert a.word2idx == b.word2idx and a.fingerprint() == b.fingerprint()
    features = embed_nodes(graph, a).features
    assert features.tobytes() == embed_nodes(graph, b).features.tobytes()
    _assert_one_hot(features, [a.word2idx[t.token] for t in graph.tuples])


def test_vocab_order_independent():
    docs = [
        [_tuple(1, "IfStatement", DependencyCategory.CONTROL), _tuple(2)],
        [_tuple(3, "Assignment"), _tuple(4, "Assignment")],
    ]
    shuffled = [list(reversed(docs[1])), list(reversed(docs[0]))]
    assert build_vocabulary(docs).word2idx == build_vocabulary(shuffled).word2idx


def test_vocab_frequency_then_lexicographic():
    docs = [[_tuple(1, "Assignment"), _tuple(2, "Assignment"), _tuple(3, "IfStatement", DependencyCategory.CONTROL)]]
    vocab = build_vocabulary(docs)
    assert vocab.word2idx[docs[0][0].token] == 1  # most frequent first
    assert vocab.word2idx[docs[0][2].token] == 2


def test_vocab_embedding_bounds():
    rng = np.random.default_rng(3)
    graph = random_contract_graph(rng, n_min=30, n_max=30)
    vocab = build_vocabulary([graph.tuples[:10]])  # the other nodes may hold unseen tokens
    out = embed_nodes(graph, vocab)
    assert out.features.shape == (graph.n, vocab.dim) == (30, 1 + len(vocab.word2idx))
    _assert_one_hot(out.features, [vocab.word2idx.get(t.token, 0) for t in graph.tuples])
    assert any(t.token not in vocab.word2idx for t in graph.tuples)


def _tokens(*nodes: dict) -> list[str]:
    """The tokens of `nodes`, each a node object without an id, under one SourceUnit."""
    doc = {"id": 0, "nodeType": "SourceUnit", "nodes": [{"id": i + 1, **node} for i, node in enumerate(nodes)]}
    return [t.token for t in extract_node_tuples(parse_ast_json(json.dumps(doc)))]


def _literal(kind: str, value: str | None, hex_value: str, type_string: str) -> dict:
    """A Literal as solc's compact AST writes it: `value` is null for a hex
    string that is not valid UTF-8."""
    return {"nodeType": "Literal", "kind": kind, "value": value, "hexValue": hex_value, "src": "0:1:0",
            "typeDescriptions": {"typeString": type_string}}


def test_token_literal_uses_type_tag():
    literals = [
        _literal("number", "5", "35", "int_const 5"),
        _literal("number", "0xff", "30786666", "int_const 255"),
        _literal("bool", "true", "74727565", "bool"),
        _literal("string", "hello", "68656c6c6f", 'literal_string "hello"'),
        _literal("string", "123", "313233", 'literal_string "123"'),  # reads as a number
        _literal("string", "true", "74727565", 'literal_string "true"'),  # reads as a bool
        _literal("hexString", None, "ff", 'literal_string hex"ff"'),
        _literal("unicodeString", "\u00e9", "c3a9", 'literal_string "\u00e9"'),
    ]
    assert _tokens(*literals) == [
        "Literal:number", "Literal:number", "Literal:bool", "Literal:string",
        "Literal:string", "Literal:string", "Literal:hexString", "Literal:unicodeString",
    ]
    assert _tokens({"nodeType": "Literal", "value": "5"}) == ["Literal:"]  # no kind
    named = [_tokens({"nodeType": "FunctionDefinition", "name": name}) for name in ("f", "\ud800other")]
    assert named[0] == named[1] == ["FunctionDefinition"]


def test_vocab_save_load_fingerprint(tmp_path):
    vocab = build_vocabulary([[_tuple(1), _tuple(2, "Assignment")]])
    path = tmp_path / "vocab.json"
    save_vocabulary(path, vocab)
    loaded = load_vocabulary(path)
    assert loaded.word2idx == vocab.word2idx
    assert loaded.fingerprint() == vocab.fingerprint()


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------


def _tiny_tree_and_graph():
    from statelens.ast_ingest import parse_ast_json

    doc = {
        "id": 1,
        "nodeType": "SourceUnit",
        "nodes": [
            {
                "id": 2,
                "nodeType": "ContractDefinition",
                "nodes": [{"id": 3, "nodeType": "VariableDeclaration", "name": "x"}],
            }
        ],
    }
    return parse_ast_json(json.dumps(doc))


def test_build_graph_single_node():
    tree = _tiny_tree_and_graph()
    tuples = extract_node_tuples(tree)
    graph = build_graph(tree, tuples, [])
    assert graph.n == 1
    assert dense_adjacency(graph).tolist() == [[0.0]]


def test_build_graph_symmetrizes_edges():
    tree = _tiny_tree_and_graph()
    tuples = [
        _tuple(3, "VariableDeclaration", DependencyCategory.DECLARATION),
        _tuple(2, "ContractDefinition", DependencyCategory.DECLARATION),
    ]
    edges = [EdgeTuple(e_s=3, e_e=2, e_t=EdgeType.AST_CHILD)]
    graph = build_graph(tree, tuples, edges)
    assert dense_adjacency(graph).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert graph.pairs.tolist() == [[0, 1]]


def test_build_graph_empty_raises():
    tree = _tiny_tree_and_graph()
    with pytest.raises(EmptyGraphError):
        build_graph(tree, [], [])


def test_proxy_graph_adjacency_symmetric(proxy_tree):
    graph = build_contract_graph(proxy_tree)
    adjacency = dense_adjacency(graph)
    assert np.array_equal(adjacency, adjacency.T)
    assert graph.n == len(extract_node_tuples(proxy_tree))
    calls = [e for e in graph.edges if e.e_t is EdgeType.FUNC_CALL]
    i, j = graph.node_ids.index(calls[0].e_s), graph.node_ids.index(calls[0].e_e)
    assert adjacency[i, j] == 1.0 and adjacency[j, i] == 1.0


def test_build_graph_links_are_sorted_unique_edge_endpoints(proxy_tree):
    graph = build_contract_graph(proxy_tree)
    index = {node_id: i for i, node_id in enumerate(graph.node_ids)}
    expected = {
        (min(index[e.e_s], index[e.e_e]), max(index[e.e_s], index[e.e_e]))
        for e in graph.edges
        if e.e_s != e.e_e
    }
    assert [tuple(link) for link in graph.pairs.tolist()] == sorted(expected)
    assert graph.pairs.dtype == np.int64


# ---------------------------------------------------------------------------
# optimize_graph
# ---------------------------------------------------------------------------


def _chain_graph() -> ContractGraph:
    """a -- b -- c with distinct types so pruning can target b."""
    tuples = [
        _tuple(1, "VariableDeclaration", DependencyCategory.DECLARATION),
        _tuple(2, "Assignment", DependencyCategory.EXPRESSION),
        _tuple(3, "IfStatement", DependencyCategory.CONTROL),
    ]
    edges = [
        EdgeTuple(e_s=1, e_e=2, e_t=EdgeType.AST_CHILD),
        EdgeTuple(e_s=2, e_e=3, e_t=EdgeType.AST_CHILD),
    ]
    return ContractGraph(
        node_ids=[1, 2, 3],
        tuples=tuples,
        spans=[(0, 1, 0)] * 3,
        pairs=np.array([[0, 1], [1, 2]]),
        edges=edges,
    )


def test_optimize_identity_with_full_label_set():
    graph = _chain_graph()
    full = frozenset((t.n_type, t.category) for t in graph.tuples)
    out = optimize_graph(graph, full)
    assert out.node_ids == graph.node_ids
    assert np.array_equal(dense_adjacency(out), dense_adjacency(graph))
    assert out.edges == graph.edges
    assert out is graph  # nothing pruned, so nothing copied


def test_600_level_ast_gives_601_node_graph():
    """600 nested BinaryOperations and the Literal at the bottom are
    categorized; the SourceUnit, contract and statement around them are not."""
    tree = parse_ast_json(nested_ast_json(600))
    graph = optimize_graph(build_contract_graph(tree), label_set_from_rules())
    assert graph.n == 601
    assert len(graph.pairs) == 600


def test_optimize_empty_label_set():
    with pytest.raises(EmptyGraphError):
        optimize_graph(_chain_graph(), frozenset())


def test_optimize_chain_keeps_first_component():
    graph = _chain_graph()
    without_b = frozenset(
        {
            ("VariableDeclaration", DependencyCategory.DECLARATION),
            ("IfStatement", DependencyCategory.CONTROL),
        }
    )
    out = optimize_graph(graph, without_b)
    assert out.node_ids == [1]  # {a, c} survive pruning; DFS keeps a's component
    assert dense_adjacency(out).tolist() == [[0.0]]
    assert out.edges == []


def test_optimize_survivors_match_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(100):
        graph = random_contract_graph(rng)
        label_set = random_label_subset(rng)
        survivors = [
            i for i, t in enumerate(graph.tuples) if (t.n_type, t.category) in label_set
        ]
        if not survivors:
            with pytest.raises(EmptyGraphError):
                optimize_graph(graph, label_set)
            continue
        out = optimize_graph(graph, label_set)
        adjacency = dense_adjacency(graph)
        pairs = {
            (i, int(j))
            for i in survivors
            for j in np.flatnonzero(adjacency[i])
            if int(j) in survivors
        }
        expected = brute_force_component(graph.n, pairs, survivors[0]) & set(survivors)
        assert set(out.node_ids) == {graph.node_ids[i] for i in expected}


def test_optimize_idempotent():
    rng = np.random.default_rng(12)
    for _ in range(50):
        graph = random_contract_graph(rng)
        label_set = random_label_subset(rng)
        try:
            once = optimize_graph(graph, label_set)
        except EmptyGraphError:
            continue
        twice = optimize_graph(once, label_set)
        assert twice.node_ids == once.node_ids
        assert np.array_equal(dense_adjacency(twice), dense_adjacency(once))
        assert twice.edges == once.edges


def test_optimize_never_adds():
    rng = np.random.default_rng(13)
    for _ in range(50):
        graph = random_contract_graph(rng)
        label_set = random_label_subset(rng)
        try:
            out = optimize_graph(graph, label_set)
        except EmptyGraphError:
            continue
        assert set(out.node_ids) <= set(graph.node_ids)
        assert len(out.edges) <= len(graph.edges)
        assert dense_adjacency(out).sum() <= dense_adjacency(graph).sum()


def _assert_prunes_like_the_reference(graph: ContractGraph, label_set) -> None:
    """`optimize_graph` gives what the shortcut-free prune and walk gives,
    and returns its input itself exactly when it keeps every node."""
    try:
        expected = reference_optimize_graph(graph, label_set)
    except EmptyGraphError:
        with pytest.raises(EmptyGraphError):
            optimize_graph(graph, label_set)
        return
    out = optimize_graph(graph, label_set)
    assert out.node_ids == expected.node_ids
    assert out.tuples == expected.tuples
    assert out.spans == expected.spans
    assert np.array_equal(out.pairs, expected.pairs) and out.pairs.shape == expected.pairs.shape
    assert out.edges == expected.edges
    assert (out is graph) == (out.n == graph.n)


@given(
    seed=st.integers(0, 2**32 - 1),
    edge_p=st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]),
    tree=st.booleans(),
    every_label=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_optimize_matches_the_reference_walk(seed, edge_p, tree, every_label):
    """Connected and disconnected random graphs, under every label or a
    random subset of them."""
    rng = np.random.default_rng(seed)
    if tree:
        graph = random_tree_graph(rng, int(rng.integers(1, 15)))
    else:
        graph = random_contract_graph(rng, n_min=1, n_max=12, edge_p=edge_p)
    label_set = label_set_from_rules() if every_label else random_label_subset(rng)
    _assert_prunes_like_the_reference(graph, label_set)


@given(seed=st.integers(0, 10**6), every_label=st.booleans())
@settings(max_examples=40, deadline=None)
def test_optimize_matches_the_reference_walk_on_generated_contracts(seed, every_label):
    rng = np.random.default_rng(seed)
    label_set = label_set_from_rules() if every_label else random_label_subset(rng)
    for _, _, tree in generated_contracts(1, seed=seed):
        _assert_prunes_like_the_reference(build_contract_graph(tree), label_set)


def test_per_node_records_are_slotted():
    for record in (AstNode, NodeTuple, EdgeTuple):
        assert "__slots__" in vars(record), record.__name__


# ---------------------------------------------------------------------------
# embed_nodes
# ---------------------------------------------------------------------------


def test_embed_unseen_tokens_hit_unk_row():
    graph = _chain_graph()
    vocab = build_vocabulary([[_tuple(9, "FunctionCall", DependencyCategory.FUNCTION)]])
    out = embed_nodes(graph, vocab)
    assert out.features.shape == (3, 2)
    _assert_one_hot(out.features, [0, 0, 0])


def test_embed_known_token_exact_row():
    graph = _chain_graph()
    vocab = build_vocabulary([graph.tuples])
    out = embed_nodes(graph, vocab)
    assert out.features.shape == (3, 4)
    _assert_one_hot(out.features, [vocab.word2idx[t.token] for t in graph.tuples])


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def _with_features(graph: ContractGraph) -> ContractGraph:
    """`graph` with random 4-wide features, for tests of S and the products with it."""
    return replace(graph, features=np.random.default_rng(0).uniform(-0.5, 0.5, size=(graph.n, 4)))


def test_normalize_single_node_identity():
    graph = _with_features(
        ContractGraph(
            node_ids=[1],
            tuples=[_tuple(1)],
            spans=[(0, 0, 0)],
            pairs=np.zeros((0, 2), dtype=np.int64),
            edges=[],
        )
    )
    out = normalize(graph)
    assert out.a_hat.tolist() == [[1.0]]
    assert out.s_hat.tolist() == [[1.0]]


def test_normalize_two_node_half_matrix():
    graph = _with_features(
        ContractGraph(
            node_ids=[1, 2],
            tuples=[_tuple(1), _tuple(2, "Assignment")],
            spans=[(0, 0, 0)] * 2,
            pairs=np.array([[0, 1]]),
            edges=[],
        )
    )
    out = normalize(graph)
    assert np.allclose(out.s_hat, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalize_matches_brute_force_and_spectrum():
    rng = np.random.default_rng(21)
    for _ in range(100):
        graph = _with_features(random_contract_graph(rng, n_min=1, n_max=8))
        out = normalize(graph)
        a_hat, s_expected = brute_force_normalize(dense_adjacency(graph))
        assert np.array_equal(out.a_hat, a_hat)
        assert np.max(np.abs(out.s_hat - s_expected)) < 1e-12
        assert np.array_equal(out.s_hat, out.s_hat.T)
        assert np.all(out.s_hat >= 0) and np.all(out.s_hat <= 1)
        degrees = out.a_hat.sum(axis=1)
        assert np.allclose(np.diag(out.s_hat), 1.0 / degrees)
        eigenvalues = np.linalg.eigvalsh(out.s_hat)
        assert np.all(eigenvalues >= -1 - 1e-12) and np.all(eigenvalues <= 1 + 1e-12)


# ---------------------------------------------------------------------------
# normalize above DENSE_MAX_NODES: S as a SparseOperator
# ---------------------------------------------------------------------------


def _large_tree(seed: int = 31, n: int = 600) -> ContractGraph:
    return _with_features(random_tree_graph(np.random.default_rng(seed), n))


def _densified(graph: ContractGraph) -> ContractGraph:
    """The same graph with S multiplied out into a dense array."""
    return replace(graph, s_hat=graph.s_hat @ np.eye(graph.n))


def _permuted(graph: ContractGraph, perm: np.ndarray) -> ContractGraph:
    """Node k of the result is node perm[k] of `graph`."""
    position = np.empty_like(perm)
    position[perm] = np.arange(len(perm))
    moved = position[graph.pairs]
    links = sorted(zip(moved.min(axis=1).tolist(), moved.max(axis=1).tolist()))
    return ContractGraph(
        node_ids=[graph.node_ids[i] for i in perm],
        tuples=[graph.tuples[i] for i in perm],
        spans=[graph.spans[i] for i in perm],
        pairs=np.array(links, dtype=np.int64),
        edges=graph.edges,
        features=graph.features[perm],
    )


def test_normalize_switches_to_operator_above_crossover():
    rng = np.random.default_rng(30)
    at = normalize(_with_features(random_tree_graph(rng, DENSE_MAX_NODES)))
    above = normalize(_with_features(random_tree_graph(rng, DENSE_MAX_NODES + 1)))
    assert isinstance(at.s_hat, np.ndarray)
    assert isinstance(above.s_hat, SparseOperator)


def test_normalize_large_graph_returns_small_operator():
    graph = _large_tree()
    n = graph.n
    out = normalize(graph)
    assert isinstance(out.s_hat, SparseOperator)
    assert out.s_hat.shape == (n, n) and out.n == n
    assert out.s_hat.nbytes < n * n * 8 / 10
    assert out.a_hat.nbytes < n * n * 8 / 10


@pytest.mark.parametrize("n", [1, 2, 47, DENSE_MAX_NODES, DENSE_MAX_NODES + 1, 700])
def test_dense_and_sparse_operators_carry_the_same_bits(monkeypatch, n):
    graph = _with_features(random_tree_graph(np.random.default_rng(n), n))
    monkeypatch.setattr(graph_pipeline, "DENSE_MAX_NODES", n)
    dense = normalize(graph)
    monkeypatch.setattr(graph_pipeline, "DENSE_MAX_NODES", 0)
    sparse = normalize(graph)
    assert isinstance(dense.s_hat, np.ndarray) and isinstance(sparse.s_hat, SparseOperator)
    eye = np.eye(n)
    assert (sparse.s_hat @ eye).tobytes() == dense.s_hat.tobytes()
    assert (sparse.a_hat @ eye).tobytes() == dense.a_hat.tobytes()


def test_sparse_operator_matches_brute_force():
    graph = _large_tree()
    out = normalize(graph)
    dense = out.s_hat @ np.eye(graph.n)
    a_hat, expected = brute_force_normalize(dense_adjacency(graph))
    assert np.max(np.abs(dense - expected)) <= 1e-12
    assert np.array_equal(dense, dense.T)
    assert np.array_equal(out.a_hat @ np.eye(graph.n), a_hat)


def test_sparse_forward_matches_dense_s():
    rng = np.random.default_rng(32)
    sparse = normalize(_large_tree())
    dense = _densified(sparse)
    params = random_params(rng, dim=sparse.features.shape[1], hidden=5, scale=0.5)
    assert abs(forward(params, sparse).probability - forward(params, dense).probability) <= 1e-12
    assert np.max(np.abs(forward(params, sparse).h2 - forward(params, dense).h2)) <= 1e-12
    model = det.GcnModel(params=params)
    top_sparse, top_dense = (
        det.build_report(model, graph, contract="g", model_fingerprint=model.fingerprint()).top_nodes
        for graph in (sparse, dense)
    )
    saliences_sparse = np.array([node.salience for node in top_sparse])
    saliences_dense = np.array([node.salience for node in top_dense])
    assert np.max(np.abs(saliences_sparse - saliences_dense)) <= 1e-12
    _, grads_sparse = loss_and_grads(params, sparse, "defective", 5e-4)
    _, grads_dense = loss_and_grads(params, dense, "defective", 5e-4)
    assert np.max(np.abs(grads_sparse.flat - grads_dense.flat)) <= 1e-12


def test_sparse_forward_permutation_invariant():
    rng = np.random.default_rng(33)
    graph = _large_tree()
    params = random_params(rng, dim=graph.features.shape[1], hidden=5, scale=0.5)
    base = forward(params, normalize(graph)).probability
    for _ in range(5):
        permuted = normalize(_permuted(graph, rng.permutation(graph.n)))
        assert isinstance(permuted.s_hat, SparseOperator)
        assert abs(forward(params, permuted).probability - base) <= 1e-10


def _assert_blocked_product_bit_identical(s_hat: SparseOperator, h: np.ndarray) -> None:
    assert isinstance(s_hat, SparseOperator)
    blocked = s_hat @ h
    assert blocked.dtype == np.float64 and blocked.shape == h.shape
    assert blocked.tobytes() == one_shot_sparse_matmul(s_hat, h).tobytes()


@pytest.mark.parametrize("budget", [graph_pipeline.SPARSE_BLOCK_ELEMENTS, 64])
@pytest.mark.parametrize("width", [1, 7, 32, 64, 65])
def test_blocked_product_bit_identical_to_one_shot(monkeypatch, width, budget):
    monkeypatch.setattr(graph_pipeline, "SPARSE_BLOCK_ELEMENTS", budget)  # 64: many small blocks
    s_hat = normalize(_large_tree()).s_hat
    h = np.random.default_rng(width).normal(size=(s_hat.shape[0], width))
    _assert_blocked_product_bit_identical(s_hat, h)


def _star(n: int) -> ContractGraph:
    return ContractGraph(
        node_ids=list(range(n)),
        tuples=[],
        spans=[(0, 0, 0)] * n,
        pairs=link_pairs(n, [(0, j) for j in range(1, n)]),
        edges=[],
        features=np.random.default_rng(n).normal(size=(n, 64)),
    )


def test_blocked_product_hub_row_over_the_budget():
    n = graph_pipeline.SPARSE_BLOCK_ELEMENTS // 64 + 2  # the hub's row alone is over budget
    out = normalize(_star(n))
    assert np.diff(out.s_hat.row_ptr)[0] * 64 > graph_pipeline.SPARSE_BLOCK_ELEMENTS
    _assert_blocked_product_bit_identical(out.s_hat, out.features)
    _assert_blocked_product_bit_identical(out.s_hat, out.features[:, :32])


def test_blocked_product_just_above_the_dense_size():
    out = normalize(_with_features(random_tree_graph(np.random.default_rng(34), DENSE_MAX_NODES + 1)))
    _assert_blocked_product_bit_identical(out.s_hat, out.features)


def test_blocked_product_on_a_merged_unit(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from inputs import merge_source_units

    synth_generate(20, seed=35, out_dir=tmp_path)
    docs = [json.loads(p.read_text()) for p in sorted(tmp_path.glob("*.ast.json"))]
    tree = parse_ast_json(json.dumps(merge_source_units(docs)), source_unit="merged.sol")
    graph = optimize_graph(build_contract_graph(tree), label_set_from_rules())
    out = normalize(embed_nodes(graph, build_vocabulary([graph.tuples])))
    assert out.n > DENSE_MAX_NODES
    _assert_blocked_product_bit_identical(out.s_hat, out.features)
    hidden = np.maximum(np.random.default_rng(35).normal(size=(out.n, 32)), 0.0)  # ReLU output
    _assert_blocked_product_bit_identical(out.s_hat, hidden)


# ---------------------------------------------------------------------------
# full pipeline determinism and serialization
# ---------------------------------------------------------------------------


def test_pipeline_bit_identical(proxy_tree):
    vocab = build_vocabulary([extract_node_tuples(proxy_tree)])
    a = normalized_contract(proxy_tree, vocab, label="defective")
    b = normalized_contract(proxy_tree, vocab, label="defective")
    assert a.features.tobytes() == b.features.tobytes()
    assert a.s_hat.tobytes() == b.s_hat.tobytes()
    assert (a.node_ids, a.spans, a.label) == (b.node_ids, b.spans, b.label)
