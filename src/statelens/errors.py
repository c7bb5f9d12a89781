"""Exception types shared across the statelens pipeline."""

from __future__ import annotations


class StateLensError(Exception):
    """Base class for every error raised by this package."""


class EmptyDocumentError(StateLensError):
    """Input document is empty or whitespace only."""


class MalformedJsonError(StateLensError):
    """Input is not well-formed JSON; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class SchemaViolationError(StateLensError):
    """JSON is well formed but does not follow the compact AST schema."""


class EmptyCorpusError(StateLensError):
    """A corpus-level operation received no usable input."""


class EmptyGraphError(StateLensError):
    """A contract produced no graph nodes; the contract is skipped, not fatal."""


class ShapeMismatchError(StateLensError):
    """Matrix operands have incompatible shapes."""


class DegenerateCorpusError(StateLensError):
    """Training corpus contains only one class."""


class EmptyTestSetError(StateLensError):
    """Evaluation was asked to run on an empty test set."""


class MissingFileError(StateLensError):
    """A referenced file does not exist."""


class BadLabelError(StateLensError):
    """A manifest record carries a label outside {defective, clean}."""


class TooSmallError(StateLensError):
    """A corpus is too small to split."""
