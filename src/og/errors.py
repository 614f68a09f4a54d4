"""Exception types shared across the package."""


class OgError(Exception):
    """Base class for every error this package raises deliberately."""


class PositionError(OgError):
    """A term variant is not allowed in the statement position it was given."""


class DanglingSidError(OgError):
    """A statement identifier was referenced but is absent from the store."""


class NotFoundError(OgError):
    """The addressed statement, vertex, or edge does not exist."""


class ReferencedSidError(OgError):
    """Deletion refused: other statements still reference this sid."""


class SidCollisionError(OgError):
    """The same sid arrived twice with different statement content."""


class AmbiguousTargetError(OgError):
    """A content pattern matched more than one statement under ErrorIfMultiple."""


class UnknownEndpointError(OgError):
    """An edge names a vertex that does not exist."""


class UnsupportedValueError(OgError):
    """A value cannot be represented on the property-graph side."""


class WrongDatatypeError(OgError):
    """The operation needs a literal of a different datatype."""


class BadTemplateError(OgError):
    """An identifier template is malformed or produced an invalid IRI."""


class NestingOverflowError(OgError):
    """Quoted-triple nesting exceeded the configured depth bound."""


class NamespaceError(OgError, ValueError):
    """A namespace does not turn a local identifier into an absolute IRI."""


class ParseError(OgError):
    """Input text was rejected by a parser.

    Carries the 1-based line (and column when known) of the offending token.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
