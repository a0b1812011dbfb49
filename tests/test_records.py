"""The package's value records: named tuples with no generated code, equal and hashed by value, immutable.

Only `cli.ProblemFile` stays a dataclass, since callers rebuild it with
`dataclasses.replace`.  Every other record on the `implies` path is a
`typing.NamedTuple`, or a plain class for the mutable `Verdict`.
"""

import dataclasses
import importlib
import inspect

import pytest

from gajdchase.chase import AtomRewrite, ChaseStep, JRule, Verdict, implies
from gajdchase.cli import Query
from gajdchase.hypergraph import AttributeSet, Hypergraph, HypertreeCertificate, NotHypertree, find_certificate
from gajdchase.prelation import DomainSpec, Gajd
from gajdchase.symbolic import MarginalAtom, RationalExpression, Variable

MODULES = ("chase", "cli", "hypergraph", "prelation", "symbolic", "tableau")


def test_only_the_problem_file_is_a_dataclass():
    found = []
    for name in MODULES:
        module = importlib.import_module(f"gajdchase.{name}")
        for attr, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == module.__name__ and dataclasses.is_dataclass(value):
                found.append(f"{name}.{attr}")
    assert found == ["cli.ProblemFile"]


def chain4():
    target = Gajd.from_edges([["A1", "A2"], ["A2", "A3"], ["A3", "A4"]])
    c1 = Gajd.from_edges([["A1", "A2"], ["A2", "A3", "A4"]])
    c2 = Gajd.from_edges([["A1", "A2", "A3"], ["A3", "A4"]])
    return target, [JRule("C1", c1), JRule("C2", c2)]


def positive():
    target, rules = chain4()
    return implies(rules, target)


def atom(*cells):
    return MarginalAtom(AttributeSet([v.column for v in cells]), cells)


# Each maker builds a fresh value from scratch, so two calls give equal, distinct records.
HASHED = {
    "Variable": lambda: Variable(False, 4, "A4"),
    "MarginalAtom": lambda: atom(Variable(True, 1, "A1"), Variable(False, 2, "A2")),
    "RationalExpression": lambda: RationalExpression.of(
        [atom(Variable(True, 1, "A1"), Variable(True, 2, "A2"))], [atom(Variable(True, 2, "A2"))]
    ),
    "JRule": lambda: chain4()[1][0],
    "ChaseStep": lambda: positive().trace.steps[0],
    "AtomRewrite": lambda: positive().rewrites[0],
    "Query": lambda: Query(chain4()[0], ("C1", "C2")),
    "HypertreeCertificate": lambda: HypertreeCertificate((0, 1, 2), (None, 0, 1)),
    "NotHypertree": lambda: NotHypertree((0, 1, 2)),
    "Gajd": lambda: chain4()[0],
}


@pytest.mark.parametrize("name", HASHED)
def test_equal_values_are_equal_hashed_records(name):
    a, b = HASHED[name](), HASHED[name]()
    assert a is not b and type(a).__name__ == name
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)


@pytest.mark.parametrize("name", HASHED)
def test_hashed_records_reject_assignment(name):
    record = HASHED[name]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = None


def test_found_and_given_certificates_are_equal():
    h = Hypergraph([["A", "B"], ["B", "C"], ["C", "D"]])
    found = find_certificate(h)
    assert found == HypertreeCertificate((0, 1, 2), (None, 0, 1))
    assert Gajd(h) == Gajd(h, HypertreeCertificate((0, 1, 2), (None, 0, 1)))


def test_variable_is_the_tuple_of_its_fields():
    # So it is looked up as is among a tableau's variable codes.
    assert Variable(True, 1, "A1") == (True, 1, "A1") and hash(Variable(True, 1, "A1")) == hash((True, 1, "A1"))


def test_domain_spec_compares_its_domains_and_is_immutable():
    a, b = DomainSpec.with_sizes(["A", "B"], {"A": 3}), DomainSpec({"A": ("0", "1", "2"), "B": ("0", "1")})
    assert a == b and a != DomainSpec.uniform(["A", "B"])
    assert a.scheme == AttributeSet(["A", "B"])
    with pytest.raises(TypeError):
        hash(a)  # its domains are a dict
    with pytest.raises(AttributeError):
        a.domains = {}


def test_verdict_is_unhashable_and_equal_by_its_fields():
    verdict = positive()
    same = Verdict(verdict.holds, verdict.trace, verdict.closure_trace)
    assert same == verdict and same != positive()
    with pytest.raises(TypeError):
        hash(verdict)
    assert same.factorization.render() == "phi(a1,a2)*phi(a2,a3)*phi(a3,a4)/(phi(a2)*phi(a3))"
