"""The small-arity tractable case (Section 6, Theorem 6.1).

When every relation has arity at most two, every access method is dependent,
and the query is connected, long-term relevance is decidable in polynomial
space.  The proof re-arranges a witness path into at most ``|Q|`` linear
*chains* — sequences of accesses in which each access's input is the output
of the previous one — plus at most ``|Q|`` extra facts that introduce no new
element, and explores an automaton over chain "types".

This module exposes :func:`is_ltr_small_arity`, which checks the structural
preconditions of Theorem 6.1 and then runs the direct witness search of
:func:`repro.core.longterm_dependent.is_ltr_direct` with budgets derived from
the chain bound (at most ``chain_length_bound`` support facts, i.e. chain
links, per witness).  The point of the wrapper is twofold: it documents and
enforces the hypotheses of the theorem, and it gives the benchmark for the
small-arity case an explicit knob corresponding to the chain length explored.
"""

from __future__ import annotations


from repro.data import Configuration
from repro.exceptions import QueryError
from repro.queries import ConjunctiveQuery, PositiveQuery
from repro.core.containment import ContainmentOptions
from repro.core.longterm_dependent import is_ltr_direct
from repro.schema import Access, Schema

__all__ = ["check_small_arity_preconditions", "is_ltr_small_arity"]


def check_small_arity_preconditions(query, schema: Schema) -> None:
    """Raise :class:`~repro.exceptions.QueryError` unless Theorem 6.1 applies."""
    if schema.max_arity() > 2:
        raise QueryError(
            "Theorem 6.1 requires every relation to have arity at most 2; "
            f"the schema has maximum arity {schema.max_arity()}"
        )
    if not schema.all_dependent():
        raise QueryError("Theorem 6.1 requires every access method to be dependent")
    if isinstance(query, ConjunctiveQuery) and not query.is_connected():
        raise QueryError("Theorem 6.1 requires a connected query")
    if isinstance(query, PositiveQuery):
        for disjunct in query.to_ucq():
            if not disjunct.is_connected():
                raise QueryError(
                    "Theorem 6.1 requires every disjunct of the query to be connected"
                )


def is_ltr_small_arity(
    query,
    access: Access,
    configuration: Configuration,
    schema: Schema,
    *,
    chain_length_bound: int = 6,
    max_plans_per_assignment: int = 64,
) -> bool:
    """Long-term relevance in the small-arity case.

    ``chain_length_bound`` bounds the number of chain links (support facts)
    explored per candidate witness; Theorem 6.1 guarantees a witness whose
    chains visit each state of the chain automaton at most once, so in the
    benchmark workloads a small bound is exact.
    """
    check_small_arity_preconditions(query, schema)
    options = ContainmentOptions(
        max_support_facts=chain_length_bound,
        max_plans_per_assignment=max_plans_per_assignment,
    )
    return is_ltr_direct(query, access, configuration, schema, options=options)
