import fnmatch
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statelens.ast_ingest import parse_ast_json
from statelens.errors import EmptyGraphError, SchemaViolationError
from statelens.feature_extract import (
    DependencyCategory,
    EdgeTuple,
    EdgeType,
    Rule,
    RuleTable,
    default_rules,
    extract_edges,
    extract_node_tuples,
    label_set_from_rules,
    parse_rules,
)
from statelens.graph_pipeline import build_graph, build_vocabulary, embed_nodes, normalize

from helpers import generated_contracts, random_tree_docs, reference_token, walk_json_nodes


@pytest.mark.parametrize(
    "node_type,expected",
    [
        ("VariableDeclaration", DependencyCategory.DECLARATION),
        ("EventDefinition", DependencyCategory.DECLARATION),
        ("BinaryOperation", DependencyCategory.EXPRESSION),
        ("Assignment", DependencyCategory.EXPRESSION),
        ("Literal", DependencyCategory.EXPRESSION),
        ("IfStatement", DependencyCategory.CONTROL),
        ("WhileStatement", DependencyCategory.CONTROL),
        ("Return", DependencyCategory.CONTROL),
        ("FunctionDefinition", DependencyCategory.FUNCTION),
        ("FunctionCall", DependencyCategory.FUNCTION),
        ("ModifierInvocation", DependencyCategory.FUNCTION),
    ],
)
def test_categorize_by_type(node_type, expected):
    assert default_rules().category(node_type, lambda: {}) is expected


@pytest.mark.parametrize("node_type", ["PragmaDirective", "SourceUnit", "Block", "ParameterList"])
def test_uncategorized_types(node_type):
    assert default_rules().category(node_type, lambda: {}) is None


def test_identifier_needs_reference_kind():
    table = default_rules()
    assert table.category("Identifier", lambda: {}) is None
    assert table.category("Identifier", lambda: {}, ref_kind="variable") is DependencyCategory.DATA
    assert table.category("Identifier", lambda: {}, ref_kind="function") is DependencyCategory.FUNCTION
    assert table.category("Identifier", lambda: {}, ref_kind="modifier") is DependencyCategory.FUNCTION
    assert table.category("Identifier", lambda: {}, ref_kind="event") is None


def test_rule_file_parsing_and_errors():
    rules = parse_rules("Foo* bar=1 -> Control\n# comment\n\nLiteral -> Expression\n")
    assert rules[0].pattern == "Foo*"
    assert rules[0].attrs == (("bar", "1"),)
    assert rules[0].category is DependencyCategory.CONTROL
    with pytest.raises(SchemaViolationError):
        parse_rules("Foo Control")  # no arrow
    with pytest.raises(SchemaViolationError):
        parse_rules("Foo -> Nonsense")
    with pytest.raises(SchemaViolationError):
        parse_rules("Foo badpredicate -> Control")


def test_rule_table_audit():
    """Default table: five categories only, and no node can match two
    conflicting rules (duplicate patterns must differ in their predicates)."""
    rules = default_rules()
    assert {r.category for r in rules} <= set(DependencyCategory)
    seen: dict[tuple, DependencyCategory] = {}
    for rule in rules:
        key = (rule.pattern, rule.attrs)
        assert key not in seen, f"duplicate rule {key}"
        seen[key] = rule.category
    # attribute-free patterns are unique, so first-match is the only match
    bare = [r.pattern for r in rules if not r.attrs]
    assert len(bare) == len(set(bare))


def test_label_set_covers_rule_table():
    label_set = label_set_from_rules()
    assert ("VariableDeclaration", DependencyCategory.DECLARATION) in label_set
    assert ("Identifier", DependencyCategory.DATA) in label_set
    assert ("Identifier", DependencyCategory.FUNCTION) in label_set
    assert len(label_set) == 21


@given(
    node_type=st.sampled_from(["Identifier", "Literal", "IfStatement", "Unknown", "Assignment"]),
    attrs=st.dictionaries(st.sampled_from(["ref_kind", "kind", "operator"]), st.text("abc", max_size=3), max_size=2),
)
@settings(max_examples=80)
def test_categorize_is_pure(node_type, attrs):
    first = default_rules().category(node_type, lambda: dict(attrs))
    second = default_rules().category(node_type, lambda: dict(attrs))
    assert first is second


def test_rule_table_candidates_stop_at_first_rule_without_predicates():
    table = RuleTable(parse_rules("Foo k=1 -> Control\nF* -> Data\nFoo -> Expression\nBar -> Function\n"))
    assert [r.category for r in table.candidates("Foo")] == [DependencyCategory.CONTROL, DependencyCategory.DATA]
    assert table.candidates("Baz") == ()
    assert list(table) == list(table.rules)


def test_default_rules_is_a_compiled_table_in_file_order():
    table = default_rules()
    assert isinstance(table, RuleTable)
    assert [r.pattern for r in table][:4] == ["Identifier", "Identifier", "Identifier", "VariableDeclaration"]


def test_custom_rule_table_resolves_ref_kind():
    rules = RuleTable(parse_rules("Identifier ref_kind=event -> Declaration\n"))
    assert rules.category("Identifier", lambda: {}, ref_kind="event") is DependencyCategory.DECLARATION
    doc = (
        '{"id": 1, "nodeType": "SourceUnit", "nodes": [{"id": 2, "nodeType": "EventDefinition"}, '
        '{"id": 3, "nodeType": "Identifier", "referencedDeclaration": 2}]}'
    )
    tuples = extract_node_tuples(parse_ast_json(doc), rules)
    assert [(t.n_id, t.category) for t in tuples] == [(3, DependencyCategory.DECLARATION)]


_TYPE_CHARS = "ABC"
_PATTERN_PIECES = ["A", "B", "C", "*", "?", "[AB]", "[!A]", "[B-C]"]
_VALUES = ["x", "y", "variable", "function"]


@st.composite
def rule_tables(draw):
    rules = []
    for _ in range(draw(st.integers(0, 8))):
        pattern = "".join(draw(st.lists(st.sampled_from(_PATTERN_PIECES), min_size=1, max_size=3)))
        attrs = draw(
            st.lists(st.tuples(st.sampled_from(["k", "ref_kind"]), st.sampled_from(_VALUES)), max_size=2)
        )
        rules.append(Rule(pattern=pattern, attrs=tuple(attrs), category=draw(st.sampled_from(DependencyCategory))))
    return rules


nodes_with_ref_kind = st.tuples(
    st.text(_TYPE_CHARS, min_size=1, max_size=3),
    # `ref_kind` may also be a literal attribute of the node
    st.dictionaries(st.sampled_from(["k", "ref_kind", "other"]), st.sampled_from(_VALUES), max_size=3),
    st.none() | st.sampled_from(_VALUES),
)


def _reference_category(rules, node_type, attributes, ref_kind):
    """The first rule, over every rule in order, whose pattern matches the
    type and whose every predicate holds."""
    if ref_kind is not None:
        attributes = {**attributes, "ref_kind": ref_kind}
    for rule in rules:
        if fnmatch.fnmatchcase(node_type, rule.pattern) and all(
            attributes.get(key) == value for key, value in rule.attrs
        ):
            return rule.category
    return None


@given(rules=rule_tables(), nodes=st.lists(nodes_with_ref_kind, min_size=1, max_size=12))
@settings(max_examples=300)
def test_compiled_table_matches_rule_by_rule_first_match(rules, nodes):
    table = RuleTable(rules)  # one table for every node, so later nodes hit its per-type cache
    for node_type, attributes, ref_kind in nodes:
        expected = _reference_category(rules, node_type, attributes, ref_kind)
        calls = []
        assert table.category(node_type, lambda: calls.append(1) or attributes, ref_kind) is expected
        # the attributes are built at most once, and only for a predicate ref_kind does not answer
        answered = all(key == "ref_kind" and ref_kind is not None for rule in rules for key, _ in rule.attrs)
        assert len(calls) <= (0 if answered else 1)


def test_tuples_empty_for_pragma_only():
    doc = '{"id": 1, "nodeType": "SourceUnit", "nodes": [{"id": 2, "nodeType": "PragmaDirective"}]}'
    assert extract_node_tuples(parse_ast_json(doc)) == []


def test_tuples_proxy_fixture(proxy_tree):
    tuples = extract_node_tuples(proxy_tree)
    functions = [
        t for t in tuples
        if t.n_type == "FunctionDefinition" and proxy_tree.nodes[t.n_id].name == "safeTransferFrom"
    ]
    assert len(functions) == 1
    assert functions[0].category is DependencyCategory.FUNCTION
    ids = [t.n_id for t in tuples]
    assert len(ids) == len(set(ids))
    assert all(t.n_id in proxy_tree.nodes for t in tuples)


# Compiler-style compact AST for `contract C { uint x = 5; }`.
STATE_VAR_DOC = json.dumps(
    {
        "absolutePath": "c.sol",
        "id": 5,
        "nodeType": "SourceUnit",
        "src": "0:24:0",
        "nodes": [
            {
                "id": 4,
                "nodeType": "ContractDefinition",
                "name": "C",
                "src": "0:24:0",
                "nodes": [
                    {
                        "id": 3,
                        "nodeType": "VariableDeclaration",
                        "name": "x",
                        "src": "13:10:0",
                        "stateVariable": True,
                        "visibility": "internal",
                        "typeName": {"id": 1, "name": "uint", "nodeType": "ElementaryTypeName", "src": "13:4:0"},
                        "value": {
                            "id": 2,
                            "nodeType": "Literal",
                            "src": "22:1:0",
                            "kind": "number",
                            "value": "5",
                            "typeDescriptions": {"typeString": "int_const 5"},
                        },
                    }
                ],
            }
        ],
    }
)


def test_tuple_value_from_initializer():
    tree = parse_ast_json(STATE_VAR_DOC)
    decl = next(t for t in extract_node_tuples(tree) if t.n_type == "VariableDeclaration")
    assert tree.nodes[decl.n_id].name == "x"
    assert decl.category is DependencyCategory.DECLARATION


def test_tuples_in_dfs_preorder():
    tree = parse_ast_json(STATE_VAR_DOC)
    tuples = extract_node_tuples(tree)
    assert [t.n_id for t in tuples] == [3, 2]  # declaration before its literal child


def _assignment_doc() -> str:
    """Compact AST for `contract C { uint x; uint y; function f() public { x = y + 1; } }`."""
    return json.dumps(
        {
            "id": 20,
            "nodeType": "SourceUnit",
            "nodes": [
                {
                    "id": 19,
                    "nodeType": "ContractDefinition",
                    "name": "C",
                    "nodes": [
                        {"id": 1, "nodeType": "VariableDeclaration", "name": "x", "stateVariable": True},
                        {"id": 2, "nodeType": "VariableDeclaration", "name": "y", "stateVariable": True},
                        {
                            "id": 18,
                            "nodeType": "FunctionDefinition",
                            "name": "f",
                            "visibility": "public",
                            "parameters": {"id": 3, "nodeType": "ParameterList", "parameters": []},
                            "body": {
                                "id": 17,
                                "nodeType": "Block",
                                "statements": [
                                    {
                                        "id": 16,
                                        "nodeType": "ExpressionStatement",
                                        "expression": {
                                            "id": 15,
                                            "nodeType": "Assignment",
                                            "operator": "=",
                                            "leftHandSide": {
                                                "id": 11,
                                                "nodeType": "Identifier",
                                                "name": "x",
                                                "referencedDeclaration": 1,
                                            },
                                            "rightHandSide": {
                                                "id": 14,
                                                "nodeType": "BinaryOperation",
                                                "operator": "+",
                                                "leftExpression": {
                                                    "id": 12,
                                                    "nodeType": "Identifier",
                                                    "name": "y",
                                                    "referencedDeclaration": 2,
                                                },
                                                "rightExpression": {
                                                    "id": 13,
                                                    "nodeType": "Literal",
                                                    "kind": "number",
                                                    "value": "1",
                                                },
                                            },
                                        },
                                    }
                                ],
                            },
                        },
                    ],
                }
            ],
        }
    )


def test_assignment_data_dependency_edge():
    doc = _assignment_doc()
    tree = parse_ast_json(doc)
    tuples = extract_node_tuples(tree)
    edges = extract_edges(tree, tuples)

    # independent oracle: find the RHS identifier and LHS identifier in raw JSON
    nodes = {n["id"]: n for n in walk_json_nodes(json.loads(doc))}
    assignment = next(n for n in nodes.values() if n["nodeType"] == "Assignment")
    lhs_id = assignment["leftHandSide"]["id"]
    rhs_ids = [
        n["id"] for n in walk_json_nodes(assignment["rightHandSide"]) if n["nodeType"] == "Identifier"
    ]
    assert rhs_ids == [12]
    assert EdgeTuple(e_s=12, e_e=lhs_id, e_t=EdgeType.DATA_DEP) in edges


def test_decl_ref_edges():
    tree = parse_ast_json(_assignment_doc())
    edges = extract_edges(tree, extract_node_tuples(tree))
    assert EdgeTuple(e_s=11, e_e=1, e_t=EdgeType.DECL_REF) in edges
    assert EdgeTuple(e_s=12, e_e=2, e_t=EdgeType.DECL_REF) in edges


def _guarded_call_doc() -> str:
    """Compact AST for `contract C { address owner; modifier onlyOwner() { _; }
    function check() internal {} function f() public onlyOwner { check();
    owner = msg.sender; C.owner; z; } }`, where the MemberAccess `C.owner`
    refers to the contract itself and the Identifier `z` to its own id."""

    def ident(node_id: int, name: str, ref: int) -> dict:
        return {"id": node_id, "nodeType": "Identifier", "name": name, "referencedDeclaration": ref}

    def statement(node_id: int, expression: dict) -> dict:
        return {"id": node_id, "nodeType": "ExpressionStatement", "expression": expression}

    body = [
        statement(12, {"id": 13, "nodeType": "FunctionCall", "expression": ident(14, "check", 7), "arguments": []}),
        statement(15, {
            "id": 16, "nodeType": "Assignment", "operator": "=", "leftHandSide": ident(17, "owner", 3),
            "rightHandSide": {"id": 18, "nodeType": "MemberAccess", "memberName": "sender",
                              "expression": ident(19, "msg", -15)},
        }),
        statement(21, {"id": 20, "nodeType": "MemberAccess", "memberName": "owner", "referencedDeclaration": 2,
                       "expression": ident(24, "C", 2)}),
        statement(23, ident(22, "z", 22)),
    ]
    members = [
        {"id": 3, "nodeType": "VariableDeclaration", "name": "owner", "stateVariable": True},
        {"id": 4, "nodeType": "ModifierDefinition", "name": "onlyOwner",
         "body": {"id": 5, "nodeType": "Block", "statements": [{"id": 6, "nodeType": "PlaceholderStatement"}]}},
        {"id": 7, "nodeType": "FunctionDefinition", "name": "check", "visibility": "internal"},
        {"id": 8, "nodeType": "FunctionDefinition", "name": "f", "visibility": "public",
         "modifiers": [{"id": 9, "nodeType": "ModifierInvocation", "modifierName": ident(10, "onlyOwner", 4)}],
         "body": {"id": 11, "nodeType": "Block", "statements": body}},
    ]
    contract = {"id": 2, "nodeType": "ContractDefinition", "name": "C", "nodes": members}
    return json.dumps({"id": 1, "nodeType": "SourceUnit", "nodes": [contract]})


def test_edges_of_a_modifier_guard_and_an_internal_call():
    """Every edge, in order: the modifier's name refers to its definition
    and the internal call reaches its callee. No edge touches the
    uncategorized contract (20 -> 2), the builtin `msg` (19 -> 17), the
    self-referring `z` (22 -> 22), or links the first node to itself."""
    tree = parse_ast_json(_guarded_call_doc())
    tuples = extract_node_tuples(tree)
    assert [t.n_id for t in tuples] == [3, 4, 7, 8, 9, 10, 13, 14, 16, 17, 18, 20]
    assert tuples[5].category is DependencyCategory.FUNCTION  # the modifier's name
    edges = [(e.e_s, e.e_e, e.e_t.value) for e in extract_edges(tree, tuples)]
    assert edges == [
        (3, 4, "AstChild"), (3, 7, "AstChild"), (3, 8, "AstChild"),
        (8, 9, "AstChild"), (8, 13, "AstChild"), (8, 16, "AstChild"), (8, 20, "AstChild"),
        (9, 10, "AstChild"), (10, 4, "DeclRef"),
        (13, 7, "FuncCall"), (13, 14, "AstChild"), (14, 7, "DeclRef"),
        (16, 17, "AstChild"), (16, 18, "AstChild"), (17, 3, "DeclRef"),
    ]


def test_function_call_edge_resolves(proxy_tree):
    tuples = extract_node_tuples(proxy_tree)
    edges = extract_edges(proxy_tree, tuples)
    calls = [e for e in edges if e.e_t is EdgeType.FUNC_CALL]
    assert len(calls) == 1
    callee = proxy_tree.nodes[calls[0].e_e]
    assert callee.node_type == "FunctionDefinition"
    assert callee.name == "execute"


def test_empty_body_function_has_no_edges():
    doc = json.dumps(
        {
            "id": 1,
            "nodeType": "SourceUnit",
            "nodes": [
                {
                    "id": 2,
                    "nodeType": "ContractDefinition",
                    "nodes": [
                        {
                            "id": 3,
                            "nodeType": "FunctionDefinition",
                            "name": "f",
                            "body": {"id": 4, "nodeType": "Block", "statements": []},
                        }
                    ],
                }
            ],
        }
    )
    tree = parse_ast_json(doc)
    tuples = extract_node_tuples(tree)
    assert [t.n_type for t in tuples] == ["FunctionDefinition"]
    assert extract_edges(tree, tuples) == []


def test_control_flow_edges_reach_branch_heads():
    doc = json.dumps(
        {
            "id": 10,
            "nodeType": "SourceUnit",
            "nodes": [
                {
                    "id": 9,
                    "nodeType": "ContractDefinition",
                    "nodes": [
                        {"id": 1, "nodeType": "VariableDeclaration", "name": "x", "stateVariable": True},
                        {
                            "id": 8,
                            "nodeType": "FunctionDefinition",
                            "name": "f",
                            "body": {
                                "id": 7,
                                "nodeType": "Block",
                                "statements": [
                                    {
                                        "id": 6,
                                        "nodeType": "IfStatement",
                                        "condition": {
                                            "id": 2,
                                            "nodeType": "Identifier",
                                            "name": "x",
                                            "referencedDeclaration": 1,
                                        },
                                        "trueBody": {
                                            "id": 5,
                                            "nodeType": "Block",
                                            "statements": [
                                                {
                                                    "id": 4,
                                                    "nodeType": "Return",
                                                    "expression": {
                                                        "id": 3,
                                                        "nodeType": "Literal",
                                                        "kind": "number",
                                                        "value": "1",
                                                    },
                                                }
                                            ],
                                        },
                                    }
                                ],
                            },
                        },
                    ],
                }
            ],
        }
    )
    tree = parse_ast_json(doc)
    edges = extract_edges(tree, extract_node_tuples(tree))
    branch_heads = {e.e_e for e in edges if e.e_t is EdgeType.CONTROL_FLOW and e.e_s == 6}
    assert branch_heads == {2, 4}  # condition identifier and first node of the body


def test_edges_sorted_and_deterministic(proxy_tree):
    tuples = extract_node_tuples(proxy_tree)
    first = extract_edges(proxy_tree, tuples)
    second = extract_edges(proxy_tree, tuples)
    assert first == second
    keys = [(e.e_s, e.e_e, e.e_t.value) for e in first]
    assert keys == sorted(keys)


def test_no_dangling_edge_endpoints(proxy_tree):
    tuples = extract_node_tuples(proxy_tree)
    ids = {t.n_id for t in tuples}
    for edge in extract_edges(proxy_tree, tuples):
        assert edge.e_s in ids and edge.e_e in ids


# ---------------------------------------------------------------------------
# Edge invariants: what `build_graph`, `normalize` and the GCN rely on
# without checking it again.
# ---------------------------------------------------------------------------

# Types that give every edge kind: declarations and functions to refer to,
# assignments (DataDep), branches (ControlFlow), calls (FuncCall). Identifier
# and Assignment come twice: DataDep, the rarest kind to draw, needs an
# Identifier that refers to a declaration below an Assignment's right side.
_EDGE_SOURCE_TYPES = [
    "Identifier", "Identifier", "Assignment", "Assignment", "VariableDeclaration",
    "FunctionDefinition", "FunctionCall", "IfStatement", "Block",
]


@st.composite
def _referencing_docs(draw) -> dict:
    """A `random_tree_docs` document retyped below its root, where each
    Identifier and some other nodes name a `referencedDeclaration`: a
    declaration or function in the document, the node itself, or an id
    that is absent."""
    doc = draw(random_tree_docs())
    objs = list(walk_json_nodes(doc))
    for obj in objs[1:]:
        obj["nodeType"] = draw(st.sampled_from(_EDGE_SOURCE_TYPES))
    declared = [o["id"] for o in objs if o["nodeType"] in ("VariableDeclaration", "FunctionDefinition")]
    for obj in objs[1:]:
        if obj["nodeType"] == "Identifier" or draw(st.booleans()):
            obj["referencedDeclaration"] = draw(st.sampled_from([*declared, obj["id"], len(objs) + 1]))
    return doc


def _check_edge_invariants(tree) -> set[EdgeType]:
    """Assert what later stages trust of `extract_edges`; return the kinds seen."""
    tuples = extract_node_tuples(tree)
    edges = extract_edges(tree, tuples)
    ids = {t.n_id for t in tuples}
    keys = [(e.e_s, e.e_e, e.e_t) for e in edges]
    assert all(s != e for s, e, _ in keys), "self-loop"
    assert all(s in ids and e in ids for s, e, _ in keys), "endpoint outside the tuples"
    assert len(set(keys)) == len(keys), "duplicate edge"
    if not tuples:
        with pytest.raises(EmptyGraphError):
            build_graph(tree, tuples, edges)
        return set()
    vocab = build_vocabulary([tuples])
    normalized = normalize(embed_nodes(build_graph(tree, tuples, edges), vocab))
    assert normalized.s_hat.shape == (len(tuples), len(tuples)) == (normalized.features.shape[0],) * 2
    return {e.e_t for e in edges}


@st.composite
def _every_edge_kind_docs(draw) -> dict:
    """A `random_tree_docs` scaffold with these shapes placed under random
    nodes of it, so that every edge kind occurs: an Assignment whose left
    side and right-side subtree hold Identifiers referring to a
    VariableDeclaration (DataDep, DeclRef), a FunctionCall whose Identifier
    child refers to a FunctionDefinition (FuncCall), and an IfStatement with
    a categorized node under it (ControlFlow)."""
    doc = draw(random_tree_docs())
    scaffold = list(walk_json_nodes(doc))
    ids = iter(range(len(scaffold) + 1, 10**6))

    def node(node_type: str, *children: dict, **fields) -> dict:
        return {"id": next(ids), "nodeType": node_type, **fields, "nodes": list(children)}

    def wrapped(inner: dict) -> dict:  # under 0-2 random wrappers
        for wrapper in draw(st.lists(st.sampled_from(["BinaryOperation", "UnaryOperation", "Block"]), max_size=2)):
            inner = node(wrapper, inner)
        return inner

    def refer(target: dict) -> dict:
        return node("Identifier", referencedDeclaration=target["id"])

    declaration, function = node("VariableDeclaration", name="x"), node("FunctionDefinition", name="f")
    shapes = [
        declaration,
        function,
        node("Assignment", refer(declaration), wrapped(refer(declaration))),
        node("FunctionCall", refer(function)),
        node("IfStatement", wrapped(node(draw(st.sampled_from(["Literal", "Return", "BinaryOperation"]))))),
    ]
    for shape in shapes:
        siblings = draw(st.sampled_from(scaffold))["nodes"]
        siblings.insert(draw(st.integers(0, len(siblings))), shape)
    return doc


@given(st.one_of(random_tree_docs(), _referencing_docs()), _every_edge_kind_docs())
@settings(max_examples=150, deadline=None)
def test_edges_of_random_documents_keep_the_invariants(doc, every_kind_doc):
    _check_edge_invariants(parse_ast_json(json.dumps(doc)))
    assert _check_edge_invariants(parse_ast_json(json.dumps(every_kind_doc))) == set(EdgeType)


def test_edges_of_generated_contracts_and_the_proxy_keep_the_invariants(proxy_tree):
    trees = [proxy_tree, *(tree for _, _, tree in generated_contracts(20, seed=7))]
    assert set().union(*map(_check_edge_invariants, trees)) == set(EdgeType)  # every kind checked


# ---------------------------------------------------------------------------
# Tokens: every categorized node's token is the one `reference_token` gives.
# ---------------------------------------------------------------------------

_LITERAL_VALUES = ["", " 5 ", "0xff", "0XAB", "TRUE", "false", "hello", "1e3", "nan", "-2.5", "0x"]
_LITERAL_KINDS = [None, "", "bool", "number", "string", "hexString", "unicodeString"]


def _check_tokens(tree) -> None:
    tuples = extract_node_tuples(tree)
    assert [t.token for t in tuples] == [reference_token(tree, t.n_id) for t in tuples]


@st.composite
def _valued_docs(draw) -> dict:
    """A `random_tree_docs` or `_referencing_docs` document where some nodes
    hold a scalar `value`, some of them empty, and some a `kind` (None
    leaves it absent)."""
    doc = draw(st.one_of(random_tree_docs(), _referencing_docs()))
    for obj in walk_json_nodes(doc):
        if draw(st.booleans()):
            obj["value"] = draw(st.sampled_from(_LITERAL_VALUES))
        kind = draw(st.sampled_from(_LITERAL_KINDS))
        if kind is not None:
            obj["kind"] = kind
    return doc


@given(_valued_docs())
@settings(max_examples=150, deadline=None)
def test_tokens_of_random_documents_follow_the_reference_rule(doc):
    _check_tokens(parse_ast_json(json.dumps(doc)))


def test_tokens_of_generated_contracts_and_the_proxy_follow_the_reference_rule(proxy_tree):
    for tree in [proxy_tree, *(tree for _, _, tree in generated_contracts(20, seed=42))]:
        _check_tokens(tree)
