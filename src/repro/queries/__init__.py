"""Query languages and evaluation: CQs, positive queries, homomorphisms,
classical containment, certain answers."""

from repro.queries.atoms import Atom
from repro.queries.certain import certain_answers, is_certain
from repro.queries.containment import contained_in, cq_contained_in, ucq_contained_in
from repro.queries.cq import ConjunctiveQuery
from repro.queries.evaluation import (
    Query,
    evaluate,
    evaluate_boolean,
    holds_through,
    satisfying_assignments,
)
from repro.queries.homomorphism import (
    CanonicalInstance,
    canonical_instance,
    find_homomorphism,
    find_homomorphisms,
    freeze_query,
    has_homomorphism,
)
from repro.queries.parser import parse_atom, parse_cq, parse_pq, parse_query
from repro.queries.pq import AndNode, AtomNode, OrNode, PositiveQuery
from repro.queries.terms import Variable, constants_in, is_variable, variables_in

__all__ = [
    "Variable",
    "is_variable",
    "variables_in",
    "constants_in",
    "Atom",
    "ConjunctiveQuery",
    "PositiveQuery",
    "AtomNode",
    "AndNode",
    "OrNode",
    "Query",
    "evaluate",
    "evaluate_boolean",
    "holds_through",
    "satisfying_assignments",
    "CanonicalInstance",
    "canonical_instance",
    "freeze_query",
    "find_homomorphism",
    "find_homomorphisms",
    "has_homomorphism",
    "contained_in",
    "cq_contained_in",
    "ucq_contained_in",
    "certain_answers",
    "is_certain",
    "parse_atom",
    "parse_cq",
    "parse_pq",
    "parse_query",
]
