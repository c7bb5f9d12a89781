"""Load, validate, and index compiler-emitted AST JSON.

The input format is the compact AST a Solidity compiler emits per source
unit: a single JSON object in which every node carries an integer ``id``
and a string ``nodeType``, and children appear as nested objects (under
keys such as ``nodes``, ``body``, ``statements``, ``expression``, ...).
Parsing does not assume a fixed key set; any nested object bearing a
``nodeType`` becomes a child, in document order, so new compiler dialects
pass through unchanged. Node types outside the classification rules are
kept verbatim and simply ignored downstream. Each node keeps the JSON
object it was decoded from; its attributes are flattened out of that
object only when a rule reads them, never during the parse.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from .errors import EmptyDocumentError, MalformedJsonError, SchemaViolationError

# Keys handled structurally rather than stored as attributes.
_RESERVED_KEYS = frozenset(("id", "nodeType", "name", "src"))


# One per AST node: slotted, not frozen, since a frozen dataclass sets each
# field through object.__setattr__.
@dataclass(slots=True)
class AstNode:
    """A node of the tree and `obj`, the JSON object it was decoded from.
    Its attributes are the scalars of `obj` under every key but id,
    nodeType, name and src, flattened by `_collect` when read."""

    id: int
    node_type: str
    src_span: tuple[int, int, int]  # (byte offset, byte length, file index)
    children: tuple[int, ...]
    obj: dict[str, Any] = field(repr=False)

    @property
    def name(self) -> str | None:
        """`obj`'s name when it is a string."""
        raw = self.obj.get("name")
        return raw if isinstance(raw, str) else None

    @property
    def attributes(self) -> dict[str, str]:
        attrs: dict[str, str] = {}
        for key, value in self.obj.items():
            if key not in _RESERVED_KEYS:
                _collect(value, key, attrs)
        return attrs


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


def _src_fault(raw: Any) -> str:
    """Why `raw`, a `src` value other than None, names no span; the caller
    puts the node's path before it."""
    if not isinstance(raw, str):
        return f"src must be a string, got {type(raw).__name__}"
    parts = raw.split(":")
    if len(parts) != 3:
        return f"src must look like 'offset:length:file', got {raw!r}"
    try:
        [int(part) for part in parts]
    except ValueError:
        return f"non-integer src component in {raw!r}"
    return f"negative src span {raw!r}"


def _collect(value: Any, key: str, attrs: dict[str, str]) -> None:
    """Flatten one JSON value into `attrs` under `key`: a plain object's
    entries go under `key.subkey`, a list's scalars are joined by spaces,
    and a node object is a child, not an attribute."""
    if isinstance(value, dict):
        if "nodeType" not in value:
            for sub_key, sub_value in value.items():
                _collect(sub_value, f"{key}.{sub_key}", attrs)
    elif isinstance(value, list):
        scalars = []
        for item in value:
            if isinstance(item, (dict, list)):
                _collect(item, key, attrs)
            elif item is not None:
                scalars.append(_format_scalar(item))
        if scalars:
            attrs[key] = " ".join(scalars)
    elif value is not None:
        attrs[key] = _format_scalar(value)


def _find_children(value: dict | list, found: list[dict]) -> None:
    """Append the node objects in one JSON object or list, in document
    order: the search enters plain objects and lists, not node objects."""
    for item in value.values() if type(value) is dict else value:
        kind = type(item)  # json.loads makes exact dicts and lists
        if kind is dict:
            if "nodeType" in item:
                found.append(item)
            else:
                _find_children(item, found)
        elif kind is list:
            _find_children(item, found)


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
    of their JSON objects. Each fault raises where the walk meets it, so a
    file with several reports the first in preorder.
    """
    nodes: dict[int, AstNode] = {}
    parents: dict[int, int] = {}
    stack: list[tuple[dict, int | None]] = [(data, None)]
    while stack:
        obj, parent_id = stack.pop()
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

        child_objs: list[dict] = []
        for key, value in obj.items():
            kind = type(value)  # json.loads makes exact dicts and lists
            if (kind is dict or kind is list) and key not in _RESERVED_KEYS:
                if kind is dict and "nodeType" in value:
                    child_objs.append(value)
                else:
                    _find_children(value, child_objs)

        src = obj.get("src")
        if src is None:
            span = (0, 0, 0)
        else:
            try:
                offset, length, file_index = src.split(":")
                span = (int(offset), int(length), int(file_index))
                if span[0] < 0 or span[1] < 0:
                    raise ValueError
            except (AttributeError, ValueError):  # the path is built only for a bad src
                path = _error_path(source_unit, nodes, parents, parent_id)
                raise SchemaViolationError(f"{path}: {_src_fault(src)}") from None
        nodes[node_id] = AstNode(  # positional: about a quarter cheaper than by keyword
            node_id, node_type, span, tuple([child.get("id") for child in child_objs]), obj
        )
        if parent_id is not None:
            parents[node_id] = parent_id
        stack += [(child, node_id) for child in reversed(child_objs)]
    return nodes, parents


def read_document(path: str | Path) -> str:
    """The text of a UTF-8 file. Undecodable bytes raise MalformedJsonError
    naming the byte of the first one; OSError propagates."""
    with open(path, "rb") as file:
        data = file.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedJsonError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from None


def parse_ast_json(document: str, source_unit: str = "<memory>") -> AstTree:
    """Parse one compact-AST JSON document into an AstTree.

    Every JSON object bearing a ``nodeType`` becomes exactly one node;
    nesting order decides the child order, and `nodes` holds them in
    preorder. Raises EmptyDocumentError, MalformedJsonError (naming the
    byte), or SchemaViolationError (also for a document nested deeper
    than the JSON decoder accepts, or an integer longer than it reads).
    """
    if not document or not document.strip():
        raise EmptyDocumentError(f"{source_unit}: empty document")
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise MalformedJsonError(f"{source_unit}: invalid JSON at byte {exc.pos}: {exc.msg}") from None
    except RecursionError:
        raise SchemaViolationError(f"{source_unit}: JSON nested too deeply to parse") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise SchemaViolationError(f"{source_unit}: JSON integer too long to parse") from None
    if not isinstance(data, dict):
        raise SchemaViolationError(f"{source_unit}: document root must be a JSON object")
    try:
        nodes, parents = _build_nodes(data, source_unit)
    except RecursionError:  # attribute values (not nodes) nested past the limit
        raise SchemaViolationError(f"{source_unit}: AST nested too deeply to parse") from None
    return AstTree(root_id=data["id"], nodes=nodes, parents=parents, source_unit=source_unit)


def subtree_preorder(tree: AstTree, node_id: int) -> Iterator[AstNode]:
    """DFS preorder over the subtree at `node_id`, following child order.
    A child id missing from `tree.nodes` raises KeyError; `validate_tree`
    reports one in a tree that `parse_ast_json` did not build."""
    stack = [node_id]
    while stack:
        node = tree.nodes[stack.pop()]
        yield node
        stack.extend(reversed(node.children))


def validate_tree(tree: AstTree) -> list[Diagnostic]:
    """Check every tree invariant; returns one diagnostic per violation."""
    diags: list[Diagnostic] = []

    id_counts = Counter(node.id for node in tree.nodes.values())
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

    parent_count: Counter[int] = Counter()
    for node in tree.nodes.values():
        for child in node.children:
            if child not in tree.nodes:
                diags.append(
                    Diagnostic("dangling-child", node.id, f"child id {child} has no node")
                )
            else:
                parent_count[child] += 1

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
