import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from statelens.ast_ingest import AstNode, AstTree, parse_ast_json, subtree_preorder, validate_tree
from statelens.feature_extract import referenced_declaration
from statelens.errors import EmptyDocumentError, MalformedJsonError, SchemaViolationError

from helpers import TREE_NODE_TYPES, nested_ast_json, random_tree_docs, reference_node_fields, walk_json_nodes

MINIMAL = '{"id": 1, "nodeType": "SourceUnit", "nodes": [{"id": 2, "nodeType": "ContractDefinition", "name": "C"}]}'


def test_minimal_document_two_nodes():
    tree = parse_ast_json(MINIMAL)
    assert len(tree) == 2
    assert tree.nodes[tree.root_id].node_type == "SourceUnit"
    assert tree.nodes[2].node_type == "ContractDefinition"
    assert tree.nodes[2].name == "C"


def test_proxy_fixture_has_public_transfer_function(proxy_tree):
    functions = [
        n
        for n in proxy_tree.nodes.values()
        if n.node_type == "FunctionDefinition" and n.name == "safeTransferFrom"
    ]
    assert len(functions) == 1
    assert functions[0].attributes["visibility"] == "public"


def test_empty_object_is_schema_violation():
    with pytest.raises(SchemaViolationError):
        parse_ast_json("{}")
    with pytest.raises(SchemaViolationError) as err:  # a root without nodeType, worded like any node
        parse_ast_json('{"id": 1, "nodes": []}', source_unit="u.json")
    assert str(err.value) == "u.json: nodeType must be a non-empty string"


@pytest.mark.parametrize("document", ["", "   \n\t"])
def test_empty_document(document):
    with pytest.raises(EmptyDocumentError):
        parse_ast_json(document)


def test_malformed_json_reports_byte_offset():
    with pytest.raises(MalformedJsonError, match="invalid JSON at byte 36: "):
        parse_ast_json('{"id": 1, "nodeType": "SourceUnit", ')


def test_missing_id_rejected():
    with pytest.raises(SchemaViolationError, match="id"):
        parse_ast_json('{"nodeType": "SourceUnit"}')


def test_duplicate_id_rejected():
    doc = '{"id": 1, "nodeType": "SourceUnit", "nodes": [{"id": 1, "nodeType": "PragmaDirective"}]}'
    with pytest.raises(SchemaViolationError, match="duplicate"):
        parse_ast_json(doc)


def test_non_object_root_rejected():
    with pytest.raises(SchemaViolationError):
        parse_ast_json("[1, 2, 3]")


# 1500 levels exceed the JSON decoder's recursion limit.
@pytest.mark.parametrize("depth", [1500])
def test_too_deep_nesting_is_schema_violation(depth):
    with pytest.raises(SchemaViolationError, match="nested too deeply"):
        parse_ast_json(nested_ast_json(depth))


def test_moderate_nesting_parses():
    tree = parse_ast_json(nested_ast_json(100))
    assert sum(n.node_type == "BinaryOperation" for n in tree.nodes.values()) == 100


def test_600_level_nesting_parses():
    """The tree is built with an explicit stack, so any depth the JSON
    decoder accepts parses: 600 nested BinaryOperations plus the root,
    contract, statement and literal."""
    tree = parse_ast_json(nested_ast_json(600))
    assert len(tree) == 604
    assert sum(n.node_type == "BinaryOperation" for n in tree.nodes.values()) == 600
    assert [n.id for n in subtree_preorder(tree, tree.root_id)] == list(tree.nodes)


def test_node_count_matches_nodetype_objects(proxy_ast_text):
    expected = sum(1 for _ in walk_json_nodes(json.loads(proxy_ast_text)))
    tree = parse_ast_json(proxy_ast_text)
    assert len(tree) == expected


def test_child_order_preserved():
    doc = json.dumps(
        {
            "id": 1,
            "nodeType": "SourceUnit",
            "nodes": [
                {"id": 5, "nodeType": "PragmaDirective"},
                {"id": 3, "nodeType": "ContractDefinition"},
                {"id": 4, "nodeType": "ImportDirective"},
            ],
        }
    )
    tree = parse_ast_json(doc)
    assert tree.nodes[tree.root_id].children == (5, 3, 4)


def test_scalar_attributes_captured():
    doc = json.dumps(
        {
            "id": 1,
            "nodeType": "VariableDeclaration",
            "name": "x",
            "stateVariable": True,
            "typeDescriptions": {"typeString": "uint256"},
        }
    )
    node = parse_ast_json(doc).nodes[1]
    assert node.attributes["stateVariable"] == "true"
    assert node.attributes["typeDescriptions.typeString"] == "uint256"


def _doc_with_src(src) -> str:
    return json.dumps({"id": 1, "nodeType": "SourceUnit", "src": src})


@pytest.mark.parametrize(
    "src,span",
    [("12:34:0", (12, 34, 0)), ("0:0:-1", (0, 0, -1)), ("+3: 4 :1_0", (3, 4, 10)), (None, (0, 0, 0))],
)
def test_src_fields_read_as_int_reads_them(src, span):
    assert parse_ast_json(_doc_with_src(src)).nodes[1].src_span == span


# "²" (superscript two) is a digit to str.isdigit but not to int().
@pytest.mark.parametrize("src", ["²:1:0", "1:2", "1:2:3:4", "a:1:0", "1::0", "-1:2:0", "1:-2:0", 7, ["1:2:0"]])
def test_bad_src_is_schema_violation(src):
    with pytest.raises(SchemaViolationError, match="src"):
        parse_ast_json(_doc_with_src(src))


def _contract_with(*members) -> str:
    contract = {"id": 2, "nodeType": "ContractDefinition", "nodes": list(members)}
    return json.dumps({"id": 1, "nodeType": "SourceUnit", "nodes": [contract]})


def test_error_names_the_path_of_the_bad_node():
    with pytest.raises(SchemaViolationError) as err:
        parse_ast_json(_contract_with({"id": 3, "nodeType": ""}), source_unit="u.json")
    assert str(err.value) == "u.json/SourceUnit[1]/ContractDefinition[2]: nodeType must be a non-empty string"


@pytest.mark.parametrize(
    "members",
    [
        # a bad src below a bad src
        [{"id": 3, "nodeType": "Block", "src": "x:1:0", "nodes": [{"id": 4, "nodeType": "Return", "src": "y:1:0"}]}],
        # a bad src, then a bad id in the next sibling
        [{"id": 3, "nodeType": "Block", "src": "x:1:0"}, {"id": True, "nodeType": "Return"}],
        # a bad id below a bad src
        [{"id": 3, "nodeType": "Block", "src": "x:1:0", "nodes": [{"id": 2, "nodeType": "Return"}]}],
    ],
)
def test_errors_come_in_preorder(members):
    """Of several faults, the first in preorder is reported: here the bad
    src of the Block, met before anything below it or after it."""
    with pytest.raises(SchemaViolationError) as err:
        parse_ast_json(_contract_with(*members), source_unit="u")
    assert str(err.value) == "u/SourceUnit[1]/ContractDefinition[2]: non-integer src component in 'x:1:0'"


def test_parser_records_each_nodes_parent(proxy_tree):
    derived = {child: node.id for node in proxy_tree.nodes.values() for child in node.children}
    assert proxy_tree.parents == derived
    assert len(derived) == len(proxy_tree) - 1
    assert all(child in proxy_tree.nodes[parent].children for child, parent in derived.items())


def test_validate_parse_output_is_clean(proxy_tree):
    assert validate_tree(proxy_tree) == []


def test_validate_dangling_child():
    node = AstNode(id=1, node_type="SourceUnit", src_span=(0, 0, 0), children=(99,), obj={})
    tree = AstTree(root_id=1, nodes={1: node}, parents={})
    diags = validate_tree(tree)
    assert [d.code for d in diags] == ["dangling-child"]
    assert diags[0].node_id == 1


def test_validate_duplicate_id():
    a = AstNode(id=7, node_type="SourceUnit", src_span=(0, 0, 0), children=(8,), obj={})
    b = AstNode(id=7, node_type="PragmaDirective", src_span=(0, 0, 0), children=(), obj={})
    tree = AstTree(root_id=7, nodes={7: a, 8: b}, parents={})
    duplicates = [d for d in validate_tree(tree) if d.code == "duplicate-id"]
    assert len(duplicates) == 1
    assert duplicates[0].node_id == 7


def test_validate_unreachable_and_multi_parent():
    root = AstNode(id=1, node_type="SourceUnit", src_span=(0, 0, 0), children=(2, 2), obj={})
    child = AstNode(id=2, node_type="ContractDefinition", src_span=(0, 0, 0), children=(), obj={})
    orphan = AstNode(id=3, node_type="PragmaDirective", src_span=(0, 0, 0), children=(), obj={})
    tree = AstTree(root_id=1, nodes={1: root, 2: child, 3: orphan}, parents={2: 1})
    codes = {d.code for d in validate_tree(tree)}
    assert "multiple-parents" in codes
    assert "unreachable-node" in codes


# ---------------------------------------------------------------------------
# Parsing property: the tree holds exactly the document's nodes.
# ---------------------------------------------------------------------------


def _signature(tree: AstTree) -> list[tuple]:
    return [
        (n.id, n.node_type, n.name, n.src_span, n.children, n.attributes)
        for n in subtree_preorder(tree, tree.root_id)
    ]


def _document_signature(doc: dict) -> list[tuple]:
    """What `_signature` must give for a `random_tree_docs` document, read
    off its raw JSON."""
    return [
        (
            obj["id"],
            obj["nodeType"],
            obj.get("name"),
            tuple(int(part) for part in obj["src"].split(":")),
            tuple(child["id"] for child in obj["nodes"]),
            {"visibility": obj["visibility"]} if "visibility" in obj else {},
        )
        for obj in walk_json_nodes(doc)
    ]


@given(random_tree_docs())
@settings(max_examples=60)
def test_parse_matches_random_document(doc):
    tree = parse_ast_json(json.dumps(doc))
    assert _signature(tree) == _document_signature(doc)
    assert validate_tree(tree) == []
    # the invariant AstTree documents: `nodes` in preorder, `parents` from `children`
    assert list(tree.nodes) == [n.id for n in subtree_preorder(tree, tree.root_id)]
    assert tree.parents == {c: n.id for n in tree.nodes.values() for c in n.children}


# ---------------------------------------------------------------------------
# Flattening property: attributes and children of every node, for attribute
# values of every JSON shape, match the rules written out in helpers.
# ---------------------------------------------------------------------------

_SCALARS = st.one_of(
    st.integers(-3, 3), st.booleans(), st.none(), st.floats(-2, 2), st.text("ab ", max_size=3)
)
_ATTRIBUTE_KEYS = st.sampled_from(
    ["nodes", "body", "value", "typeDescriptions", "k", "referencedDeclaration", "kind"]
)


@st.composite
def _node_object(draw, depth: int) -> dict:
    obj = {"nodeType": draw(st.sampled_from(TREE_NODE_TYPES))}
    if draw(st.booleans()):  # any JSON value: a node object under `name` is not a child
        obj["name"] = draw(_json_value(depth + 1))
    for key in draw(st.lists(_ATTRIBUTE_KEYS, max_size=3, unique=True)):
        obj[key] = draw(_json_value(depth + 1))
    return obj


@st.composite
def _json_value(draw, depth: int):
    """Scalars, node objects, lists of node objects only (empty too), and
    plain objects or lists that mix node objects, scalars, plain objects and
    nested lists."""
    kinds = ["scalar", "scalar list"]
    if depth < 4:
        kinds += ["node", "node list", "mixed list", "plain"]
    kind = draw(st.sampled_from(kinds))
    if kind == "scalar":
        return draw(_SCALARS)
    if kind == "scalar list":
        return draw(st.lists(_SCALARS, max_size=3))
    if kind == "node":
        return draw(_node_object(depth))
    if kind == "node list":
        return draw(st.lists(_node_object(depth), max_size=3))
    if kind == "mixed list":
        return draw(st.lists(_json_value(depth + 1), min_size=1, max_size=4))
    plain_keys = st.sampled_from(["a", "b", "id"])  # "id" is reserved only on a node object
    return draw(st.dictionaries(plain_keys, _json_value(depth + 1), max_size=3))


@st.composite
def attribute_docs(draw) -> dict:
    """A document whose nodes carry attribute values of every JSON shape;
    ids are numbered in document order once it is drawn."""
    doc = json.loads(json.dumps(draw(_node_object(0))))  # no object appears twice
    for number, obj in enumerate(list(walk_json_nodes(doc)), start=1):
        obj["id"] = number
    return doc


def _int_or_none(text: str | None) -> int | None:
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


@given(attribute_docs())
@example({  # the JSON `true` is no reference, though Python's bool is an int
    "id": 1, "nodeType": "SourceUnit", "referencedDeclaration": True, "nodes": [
        {"id": 2, "nodeType": "Identifier", "referencedDeclaration": "+2"},
        {"id": 3, "nodeType": "Identifier", "referencedDeclaration": [3], "name": {"id": 4, "nodeType": "Block"}},
    ],
})
@settings(max_examples=100, deadline=None)
def test_parse_flattens_attributes_like_the_reference(doc):
    tree = parse_ast_json(json.dumps(doc))
    by_id = {obj["id"]: obj for obj in walk_json_nodes(doc)}
    preorder, stack = [], [doc["id"]]  # the tree the reference's children make
    while stack:
        preorder.append(stack.pop())
        stack += reversed(reference_node_fields(by_id[preorder[-1]])[1])
    assert list(tree.nodes) == preorder
    for obj in by_id.values():  # a node object under a reserved key is never a node
        for key in ("id", "nodeType", "name", "src"):
            assert not {o["id"] for o in walk_json_nodes(obj.get(key))} & set(tree.nodes)
    for node_id in preorder:
        node, obj = tree.nodes[node_id], by_id[node_id]
        attributes, children = reference_node_fields(obj)
        assert (node.attributes, node.children) == (attributes, children)
        name = obj.get("name")
        assert node.name == (name if isinstance(name, str) else None)
        assert referenced_declaration(node) == _int_or_none(attributes.get("referencedDeclaration"))
