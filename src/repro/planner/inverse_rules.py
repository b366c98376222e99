"""Inverse-rule style Datalog plans (Duschka–Levy / Li–Chang baseline).

The classical way to compute the *maximally contained answer* of a query
under access limitations is a recursive Datalog plan: compute the accessible
constants of every domain, retrieve every accessible fact, and evaluate the
query over the accessible part.  This module assembles such a plan from the
accessible-part program of :mod:`repro.datalog.accessible` plus one rule per
query (or per disjunct for positive queries), and executes it against a
hidden instance — which yields the *complete obtainable answer*, the yardstick
against which the dynamic strategies are compared.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.data import Configuration, Instance
from repro.datalog import (
    Literal,
    Program,
    Rule,
    accessible_part,
    accessible_program,
    relation_predicate,
)
from repro.exceptions import QueryError
from repro.queries import ConjunctiveQuery, PositiveQuery, evaluate
from repro.schema import Schema

__all__ = ["query_plan_program", "maximally_contained_answers"]

_ANSWER_PREDICATE = "answer__"


def query_plan_program(query, schema: Schema) -> Program:
    """The Datalog plan: accessible-part rules plus one rule per disjunct."""
    program = accessible_program(schema)
    if isinstance(query, ConjunctiveQuery):
        disjuncts = (query,)
    elif isinstance(query, PositiveQuery):
        disjuncts = query.to_ucq()
    else:
        raise QueryError(f"unsupported query type {type(query)!r}")
    head = Literal(_ANSWER_PREDICATE, tuple(query.free_variables))
    for disjunct in disjuncts:
        body = tuple(
            Literal(relation_predicate(atom.relation.name), atom.terms)
            for atom in disjunct.atoms
        )
        program.add(Rule(head, body))
    return program


def maximally_contained_answers(
    query,
    hidden_instance: Instance,
    configuration: Configuration,
) -> FrozenSet[Tuple[object, ...]]:
    """The complete answer obtainable through the access methods.

    Evaluates the query over the accessible part of the hidden instance —
    the facts that *some* sequence of well-formed accesses can reveal,
    starting from the configuration.  For Boolean queries the result is
    ``frozenset({()})`` (true) or ``frozenset()`` (false).
    """
    reachable = accessible_part(hidden_instance, configuration)
    return evaluate(query, reachable)
