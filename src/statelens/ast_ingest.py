"""Load, validate, and index compiler-emitted AST JSON.

The input format is the compact AST a Solidity compiler emits per source
unit: a single JSON object in which every node carries an integer ``id``
and a string ``nodeType``, and children appear as nested objects (under
keys such as ``nodes``, ``body``, ``statements``, ``expression``, ...).
Parsing does not assume a fixed key set; any nested object bearing a
``nodeType`` becomes a child, in document order, so new compiler dialects
pass through unchanged. Node types outside the classification rules are
kept verbatim and simply ignored downstream.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from .errors import EmptyDocumentError, MalformedJsonError, SchemaViolationError

# Keys handled structurally rather than stored as attributes.
_RESERVED_KEYS = frozenset(("id", "nodeType", "name", "src"))


@dataclass(slots=True)  # one per AST node: 5x cheaper to build slotted than frozen
class AstNode:
    id: int
    node_type: str
    name: str | None
    attributes: dict[str, str]
    src_span: tuple[int, int, int]  # (byte offset, byte length, file index)
    children: tuple[int, ...]


@dataclass(frozen=True)
class AstTree:
    """A tree as `parse_ast_json` builds it: `nodes` holds every node
    reachable from the root, in preorder, and `parents` maps each non-root
    node's id to its parent's. `validate_tree` checks trees built any
    other way."""

    root_id: int
    nodes: dict[int, AstNode]
    parents: dict[int, int]
    source_unit: str = "<memory>"

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Diagnostic:
    """One invariant violation found by validate_tree."""

    code: str
    node_id: int | None
    message: str


def _format_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_src(raw: Any, path: str) -> tuple[int, int, int]:
    if raw is None:
        return (0, 0, 0)
    if not isinstance(raw, str):
        raise SchemaViolationError(f"{path}: src must be a string, got {type(raw).__name__}")
    parts = raw.split(":")
    if len(parts) != 3:
        raise SchemaViolationError(f"{path}: src must look like 'offset:length:file', got {raw!r}")
    try:
        span = (int(parts[0]), int(parts[1]), int(parts[2]))
    except ValueError:
        raise SchemaViolationError(f"{path}: non-integer src component in {raw!r}") from None
    if span[0] < 0 or span[1] < 0:
        raise SchemaViolationError(f"{path}: negative src span {raw!r}")
    return span


def _collect(value: Any, key: str, attrs: dict[str, str], child_objs: list[dict]) -> None:
    """Walk one JSON value, splitting it into scalar attributes and child nodes."""
    if isinstance(value, dict):
        if "nodeType" in value:
            child_objs.append(value)
        else:
            for sub_key, sub_value in value.items():
                _collect(sub_value, f"{key}.{sub_key}", attrs, child_objs)
    elif isinstance(value, list):
        scalars = []
        for item in value:
            if isinstance(item, (dict, list)):
                _collect(item, key, attrs, child_objs)
            elif item is not None:
                scalars.append(_format_scalar(item))
        if scalars:
            attrs[key] = " ".join(scalars)
    elif value is not None:
        attrs[key] = _format_scalar(value)


def _error_path(source_unit: str, nodes: dict[int, AstNode], parents: dict[int, int], parent_id) -> str:
    """Where a node sits, for error messages: the source unit, then
    `/nodeType[id]` for each ancestor from the root down to `parent_id`."""
    steps = []
    while parent_id is not None:
        node = nodes[parent_id]
        steps.append(f"/{node.node_type}[{node.id}]")
        parent_id = parents.get(parent_id)
    return source_unit + "".join(reversed(steps))


def _build_nodes(data: dict, source_unit: str) -> tuple[dict[int, AstNode], dict[int, int]]:
    """Nodes in preorder, and each non-root node's parent id, built with an
    explicit stack so nesting depth costs no interpreter recursion.

    A node is made when it is first reached, its children named by the ids
    of their JSON objects; a child whose id is bad raises when the walk
    reaches it. A bad `src` is reported once the node's subtree is done,
    so every error is raised in the same order the node-by-node recursive
    build would raise it.
    """
    nodes: dict[int, AstNode] = {}
    parents: dict[int, int] = {}
    bad_src: dict[int, Any] = {}
    stack: list[tuple[dict | None, int | None]] = [(data, None)]
    while stack:
        obj, parent_id = stack.pop()
        if obj is None:  # the subtree of node `parent_id` is built; its src is not valid
            path = _error_path(source_unit, nodes, parents, parents.get(parent_id))
            _parse_src(bad_src[parent_id], path)
        node_type = obj.get("nodeType")
        if not isinstance(node_type, str) or not node_type:
            path = _error_path(source_unit, nodes, parents, parent_id)
            raise SchemaViolationError(f"{path}: nodeType must be a non-empty string")
        node_id = obj.get("id")
        if not isinstance(node_id, int) or isinstance(node_id, bool):
            path = _error_path(source_unit, nodes, parents, parent_id)
            raise SchemaViolationError(f"{path}: missing or non-integer id on {node_type}")
        if node_id in nodes:
            path = _error_path(source_unit, nodes, parents, parent_id)
            raise SchemaViolationError(f"{path}: duplicate id {node_id}")

        attrs: dict[str, str] = {}
        child_objs: list[dict] = []
        for key, value in obj.items():
            if key in _RESERVED_KEYS:
                continue
            kind = type(value)  # json.loads yields exact types
            if kind is str:  # the common cases inline; `_collect` does the rest
                attrs[key] = value
            elif kind is dict and "nodeType" in value:
                child_objs.append(value)
            elif kind is list and all(type(item) is dict and "nodeType" in item for item in value):
                child_objs += value  # a list of node objects, or an empty one: taken whole
            else:
                _collect(value, key, attrs, child_objs)

        raw_src = obj.get("src")
        try:
            span = _parse_src(raw_src, source_unit)
        except SchemaViolationError:  # raised again, with its path, after the subtree
            span = (0, 0, 0)
            bad_src[node_id] = raw_src
            stack.append((None, node_id))
        raw_name = obj.get("name")
        nodes[node_id] = AstNode(  # positional: about a quarter cheaper than by keyword
            node_id,
            node_type,
            raw_name if isinstance(raw_name, str) else None,
            attrs,
            span,
            tuple([child.get("id") for child in child_objs]),
        )
        if parent_id is not None:
            parents[node_id] = parent_id
        stack += [(child, node_id) for child in reversed(child_objs)]
    return nodes, parents


def read_document(path: str | Path) -> str:
    """The text of a UTF-8 file. Undecodable bytes raise MalformedJsonError
    naming the offset of the first one; OSError propagates."""
    with open(path, "rb") as file:
        data = file.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedJsonError(
            f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}", offset=exc.start
        ) from None


def parse_ast_json(document: str, source_unit: str = "<memory>") -> AstTree:
    """Parse one compact-AST JSON document into an AstTree.

    Every JSON object bearing a ``nodeType`` becomes exactly one node;
    nesting order decides the child order, and `nodes` holds them in
    preorder. Raises EmptyDocumentError, MalformedJsonError (with byte
    offset), or SchemaViolationError (also for a document nested deeper
    than the JSON decoder accepts).
    """
    if not document or not document.strip():
        raise EmptyDocumentError(f"{source_unit}: empty document")
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(
            f"{source_unit}: invalid JSON at byte {exc.pos}: {exc.msg}", offset=exc.pos
        ) from None
    except RecursionError:
        raise SchemaViolationError(f"{source_unit}: JSON nested too deeply to parse") from None
    if not isinstance(data, dict):
        raise SchemaViolationError(f"{source_unit}: document root must be a JSON object")
    if "nodeType" not in data:
        raise SchemaViolationError(f"{source_unit}: document root has no nodeType")
    try:
        nodes, parents = _build_nodes(data, source_unit)
    except RecursionError:  # attribute values (not nodes) nested past the limit
        raise SchemaViolationError(f"{source_unit}: AST nested too deeply to parse") from None
    return AstTree(root_id=data["id"], nodes=nodes, parents=parents, source_unit=source_unit)


def subtree_preorder(tree: AstTree, node_id: int) -> Iterator[AstNode]:
    """DFS preorder over the subtree at `node_id`, following child order."""
    stack = [node_id]
    while stack:
        node = tree.nodes.get(stack.pop())
        if node is None:
            continue
        yield node
        stack.extend(reversed(node.children))


def validate_tree(tree: AstTree) -> list[Diagnostic]:
    """Check every tree invariant; returns one diagnostic per violation."""
    diags: list[Diagnostic] = []

    id_counts: dict[int, int] = {}
    for node in tree.nodes.values():
        id_counts[node.id] = id_counts.get(node.id, 0) + 1
    duplicated = {i for i, c in id_counts.items() if c > 1}
    for dup in sorted(duplicated):
        diags.append(Diagnostic("duplicate-id", dup, f"{id_counts[dup]} nodes share id {dup}"))
    for key, node in tree.nodes.items():
        if key != node.id and node.id not in duplicated:
            diags.append(
                Diagnostic("id-mismatch", key, f"node stored under key {key} carries id {node.id}")
            )

    if tree.root_id not in tree.nodes:
        diags.append(Diagnostic("missing-root", tree.root_id, "root id not present in nodes"))
        return diags

    parent_count: dict[int, int] = {}
    for node in tree.nodes.values():
        for child in node.children:
            if child not in tree.nodes:
                diags.append(
                    Diagnostic("dangling-child", node.id, f"child id {child} has no node")
                )
            else:
                parent_count[child] = parent_count.get(child, 0) + 1

    for node_id, count in sorted(parent_count.items()):
        if count > 1:
            diags.append(Diagnostic("multiple-parents", node_id, f"{count} parents"))
    if parent_count.get(tree.root_id):
        diags.append(Diagnostic("rooted-root", tree.root_id, "root appears as a child"))

    reachable: set[int] = set()
    stack = [tree.root_id]
    while stack:
        current = stack.pop()
        if current in reachable or current not in tree.nodes:
            continue
        reachable.add(current)
        stack.extend(tree.nodes[current].children)
    for node_id in sorted(set(tree.nodes) - reachable):
        diags.append(Diagnostic("unreachable-node", node_id, "not reachable from root"))

    for node in tree.nodes.values():
        offset, length, _ = node.src_span
        if offset < 0 or length < 0:
            diags.append(Diagnostic("negative-span", node.id, f"span {node.src_span}"))

    return diags
