"""Every exception class in `statelens.errors` must be raised somewhere in
the package: a class that only deleted code raised fails here instead of
lingering as a promise no code keeps. And README's table of diagnostic codes
must list exactly the codes the CLI can emit, read from the source."""

import ast
import re
from pathlib import Path

import statelens.errors
from statelens.errors import StateLensError

SRC = Path(statelens.errors.__file__).parent
README = SRC.parents[1] / "README.md"


def _trees() -> list[ast.AST]:
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]


def _error_classes() -> dict[str, type]:
    return {
        name: value
        for name, value in vars(statelens.errors).items()
        if isinstance(value, type) and issubclass(value, StateLensError) and value is not StateLensError
    }


def _raised_names() -> set[str]:
    names = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised_in_src():
    defined = set(_error_classes())
    assert defined, "no error classes found"
    assert sorted(defined - _raised_names()) == []


def _emitted_codes() -> set[str]:
    """The code of each error class (its `code`, else its name), each `code=`
    literal passed to an error class, and the two codes `_diagnostic` gives
    an exception that is not a StateLensError."""
    classes = _error_classes()
    codes = {"io-error", "internal-error", *(cls.code or name for name, cls in classes.items())}
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in classes or node.func.id == "StateLensError":
                    code = next((k.value for k in node.keywords if k.arg == "code"), None)
                    if node.func.id == "StateLensError":  # the base class names no fault
                        assert code is not None, ast.unparse(node)
                    if code is not None:
                        assert isinstance(code, ast.Constant), ast.unparse(node)
                        codes.add(code.value)
    return codes


def _readme_codes() -> set[str]:
    return set(re.findall(r"^\| `([^`]+)` \|", README.read_text(encoding="utf-8"), flags=re.MULTILINE))


def test_readme_code_table_lists_every_code_the_cli_can_emit():
    emitted = _emitted_codes()
    assert {"too-small", "degenerate-corpus", "SchemaViolationError"} <= emitted
    assert _readme_codes() == emitted
