"""Executable versions of the reductions of Section 3.

* Proposition 3.3 — containment under access limitations reduces to the
  complement of long-term relevance: :func:`containment_to_ltr` builds, from
  ``(Q1, Q2, Conf)``, a query ``Q' = ((∃x A(x)) ∨ Q2) ∧ Q1`` over a schema
  extended with a fresh relation ``A`` carrying a Boolean access, such that
  ``Q1 ⊑ Q2`` iff the access ``A(c)?`` is *not* LTR for ``Q'``.
* Proposition 3.4 — long-term relevance of a Boolean access reduces to the
  complement of containment: :func:`ltr_to_containment` builds, from
  ``(Q, access, Conf)``, a rewriting ``Q'`` using an inaccessible ``IsBind``
  relation such that the access is LTR for ``Q`` iff ``Q' ̸⊑ Q``.

Both reductions are used by the dependent-access LTR procedures and are
exercised round-trip in the test suite and in
``benchmarks/bench_reductions.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data import Configuration
from repro.exceptions import QueryError
from repro.queries import ConjunctiveQuery, PositiveQuery
from repro.queries.atoms import Atom
from repro.queries.pq import AndNode, AtomNode, OrNode, PQNode
from repro.queries.terms import Variable
from repro.schema import AbstractDomain, Access, AccessMethod, Attribute, Relation, Schema

__all__ = [
    "ContainmentToLTR",
    "LTRToContainment",
    "containment_to_ltr",
    "ltr_to_containment",
]


def _as_pq(query) -> PositiveQuery:
    if isinstance(query, PositiveQuery):
        return query
    if isinstance(query, ConjunctiveQuery):
        return PositiveQuery.from_cq(query)
    raise QueryError(f"unsupported query type {type(query)!r}")


@dataclass(frozen=True)
class ContainmentToLTR:
    """The output of the Proposition 3.3 reduction."""

    schema: Schema
    configuration: Configuration
    query: PositiveQuery
    access: Access

    def ltr_answer_means_non_containment(self) -> bool:
        """Documentation helper: ``True`` — LTR of the access ⇔ non-containment."""
        return True


def containment_to_ltr(
    query1,
    query2,
    configuration: Configuration,
    schema: Schema,
    *,
    witness_relation_name: str = "A__reduction",
    witness_constant: object = "c__reduction",
) -> ContainmentToLTR:
    """Proposition 3.3: reduce ``Q1 ⊑ Q2`` to non-LTR of a fresh Boolean access.

    The fresh relation ``A`` receives an *independent* Boolean access method so
    that the probe access ``A(c)?`` is always well-formed — the proof only
    needs the access to be performable and initially unanswered.
    """
    pq1 = _as_pq(query1)
    pq2 = _as_pq(query2)
    if not pq1.is_boolean or not pq2.is_boolean:
        raise QueryError("the Proposition 3.3 reduction applies to Boolean queries")
    if schema.has_relation(witness_relation_name):
        raise QueryError(
            f"relation {witness_relation_name!r} already exists in the schema"
        )

    witness_domain = AbstractDomain(f"{witness_relation_name}__domain")
    witness_relation = Relation(
        witness_relation_name, (Attribute("value", witness_domain),)
    )
    witness_method = AccessMethod(
        f"{witness_relation_name}__access",
        witness_relation,
        (0,),
        dependent=False,
    )
    extended_schema = schema.extend([witness_relation], [witness_method])

    extended_configuration = Configuration(extended_schema)
    for fact in configuration.facts():
        extended_configuration.add_fact(fact)
    for value, domain in configuration.seed_constants:
        extended_configuration.add_constant(value, domain)

    witness_variable = Variable("x__reduction")
    witness_atom = Atom(witness_relation, (witness_variable,))
    rewritten = PositiveQuery(
        AndNode(
            (
                OrNode((AtomNode(witness_atom), pq2.root)),
                pq1.root,
            )
        ),
        (),
        f"{pq1.name}_prop33",
    )
    probe = Access(witness_method, (witness_constant,))
    return ContainmentToLTR(extended_schema, extended_configuration, rewritten, probe)


@dataclass(frozen=True)
class LTRToContainment:
    """The output of the Proposition 3.4 reduction."""

    schema: Schema
    configuration: Configuration
    contained_query: PositiveQuery
    containing_query: PositiveQuery

    def non_containment_means_ltr(self) -> bool:
        """Documentation helper: ``True`` — non-containment ⇔ LTR of the access."""
        return True


def _rewrite_with_isbind(
    node: PQNode, access: Access, isbind_relation: Relation
) -> PQNode:
    if isinstance(node, AtomNode):
        atom = node.atom
        if atom.relation.name != access.relation.name:
            return node
        input_terms = tuple(
            atom.terms[place] for place in access.method.input_places
        )
        isbind_atom = Atom(isbind_relation, input_terms)
        return OrNode((node, AtomNode(isbind_atom)))
    if isinstance(node, AndNode):
        return AndNode(
            tuple(
                _rewrite_with_isbind(child, access, isbind_relation)
                for child in node.children
            )
        )
    if isinstance(node, OrNode):
        return OrNode(
            tuple(
                _rewrite_with_isbind(child, access, isbind_relation)
                for child in node.children
            )
        )
    raise QueryError(f"unknown node type {type(node)!r}")  # pragma: no cover


def ltr_to_containment(
    query,
    access: Access,
    configuration: Configuration,
    schema: Schema,
    *,
    isbind_relation_name: str = "IsBind__reduction",
) -> LTRToContainment:
    """Proposition 3.4: reduce LTR of a Boolean access to non-containment.

    Adds an inaccessible relation ``IsBind`` holding exactly the binding,
    rewrites every occurrence of the accessed relation ``R(i, o)`` into
    ``R(i, o) ∨ IsBind(i)``, and returns the pair of queries whose
    non-containment (starting from the extended configuration) is equivalent
    to long-term relevance of the access.
    """
    pq = _as_pq(query)
    if not pq.is_boolean:
        raise QueryError("the Proposition 3.4 reduction applies to Boolean queries")
    if schema.has_relation(isbind_relation_name):
        raise QueryError(
            f"relation {isbind_relation_name!r} already exists in the schema"
        )

    method = access.method
    attributes = tuple(
        Attribute(f"b{i}", method.relation.domain_of(place))
        for i, place in enumerate(method.input_places)
    )
    isbind_relation = Relation(isbind_relation_name, attributes)
    extended_schema = schema.extend([isbind_relation], [])

    extended_configuration = Configuration(extended_schema)
    for fact in configuration.facts():
        extended_configuration.add_fact(fact)
    for value, domain in configuration.seed_constants:
        extended_configuration.add_constant(value, domain)
    extended_configuration.add(isbind_relation_name, access.binding)

    rewritten_root = _rewrite_with_isbind(pq.root, access, isbind_relation)
    contained = PositiveQuery(rewritten_root, (), f"{pq.name}_prop34")
    containing = PositiveQuery(pq.root, (), pq.name)
    return LTRToContainment(
        extended_schema, extended_configuration, contained, containing
    )
