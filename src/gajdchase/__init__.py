"""Implication testing for generalized acyclic join dependencies.

The symbolic side decides whether a set of dependencies implies a target by
chasing the target's tableau; the numeric side cross-validates verdicts on
small, strictly positive probability distributions.

The top level holds the implication test and the exception classes; every
other name is imported from its layer module (`hypergraph`, `prelation`,
`symbolic`, `tableau`, `chase`, `oracle`, `cli`).
"""

from .chase import JRule, Verdict, implies
from .errors import (
    ChaseRowLimitError,
    DomainTooLargeError,
    GajdChaseError,
    InvalidCertificateError,
    NotHypertreeError,
    ProblemParseError,
    SchemeError,
    ZeroDenominatorWarning,
)
from .prelation import Gajd

__version__ = "0.1.0"

__all__ = [
    "ChaseRowLimitError",
    "DomainTooLargeError",
    "Gajd",
    "GajdChaseError",
    "InvalidCertificateError",
    "JRule",
    "NotHypertreeError",
    "ProblemParseError",
    "SchemeError",
    "Verdict",
    "ZeroDenominatorWarning",
    "implies",
]
