"""Exception hierarchy shared across the package."""


class GajdChaseError(Exception):
    """Base class for all errors raised by this package."""


class SchemeError(GajdChaseError):
    """An operation received relations or constraints over incompatible attribute sets."""


class NotHypertreeError(GajdChaseError):
    """A constraint's edge set admits no tree construction ordering.

    Carries the witness: a set of edge indices none of which is a twig
    within that set.
    """

    def __init__(self, message: str, witness: tuple[int, ...]):
        super().__init__(message)
        self.witness = witness


class InvalidCertificateError(GajdChaseError):
    """A tree construction certificate failed validation against its hypergraph."""


class ChaseRowLimitError(GajdChaseError):
    """The chase exceeded the configured row cap before reaching a fixpoint."""

    def __init__(self, message: str, limit: int):
        super().__init__(message)
        self.limit = limit


class DomainTooLargeError(GajdChaseError):
    """The requested joint table exceeds the oracle's desk-scale cell budget."""


class ProblemParseError(GajdChaseError):
    """A problem file failed to parse; carries the offending position."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ZeroDenominatorWarning(UserWarning):
    """A symbolic expression was evaluated against a joint with a zero marginal."""
