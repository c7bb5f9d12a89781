"""Every exception class in `statelens.errors` must be raised somewhere in
the package: a class that only deleted code raised fails here instead of
lingering as a promise no code keeps."""

import ast
from pathlib import Path

import statelens.errors

SRC = Path(statelens.errors.__file__).parent


def _raised_names() -> set[str]:
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_class_is_raised_in_src():
    defined = {
        name
        for name, value in vars(statelens.errors).items()
        if isinstance(value, type) and issubclass(value, statelens.errors.StateLensError)
        and value is not statelens.errors.StateLensError
    }
    assert defined, "no error classes found"
    assert sorted(defined - _raised_names()) == []
