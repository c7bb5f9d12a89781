"""Exception types shared across the statelens pipeline."""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class StateLensError(Exception):
    """Base class for every error raised by this package. The CLI reports one
    as a diagnostic with `code` (None: the class name) and `path` (the file at
    fault, if known), and exits with `exit_code`."""

    code: str | None = None
    exit_code = 2

    def __init__(self, message: str, *, code: str | None = None, path: str | None = None):
        super().__init__(message)
        self.code = code or self.code
        self.path = path


@contextmanager
def in_file(path: str | Path) -> Iterator[None]:
    """Name `path` on a StateLensError raised inside that names no file yet."""
    try:
        yield
    except StateLensError as exc:
        exc.path = exc.path or str(path)
        raise


class EmptyDocumentError(StateLensError):
    """Input document is empty or whitespace only."""


class MalformedJsonError(StateLensError):
    """Input is not well-formed JSON (or not UTF-8); the message names the byte."""


class SchemaViolationError(StateLensError):
    """JSON is well formed but does not follow the compact AST schema."""


class EmptyGraphError(StateLensError):
    """A contract produced no graph nodes; the contract is skipped, not fatal."""


class DegenerateCorpusError(StateLensError):
    """Training corpus contains only one class."""

    code = "degenerate-corpus"
    exit_code = 3


class TrainingDivergedError(StateLensError):
    """Training reached a loss or a weight that is not finite."""

    code = "diverged"


class BadLabelError(StateLensError):
    """A manifest record carries a label outside {defective, clean}."""
