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


class EmptyGraphError(StateLensError):
    """A contract produced no graph nodes; the contract is skipped, not fatal."""


class DegenerateCorpusError(StateLensError):
    """Training corpus contains only one class."""


class TrainingDivergedError(StateLensError):
    """Training reached a loss or a weight that is not finite."""


class MissingFileError(StateLensError):
    """A referenced file does not exist."""


class BadLabelError(StateLensError):
    """A manifest record carries a label outside {defective, clean}."""
