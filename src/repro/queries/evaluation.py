"""Query evaluation over fact stores (instances, configurations, canonical
instances).

Evaluation of conjunctive queries is a homomorphism search; positive queries
are evaluated structurally (so no DNF blow-up is paid at evaluation time).
Both Boolean and non-Boolean queries are supported; non-Boolean evaluation
returns the set of answer tuples, i.e. the projections of the satisfying
assignments onto the free variables.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Set, Tuple, Union

from repro.data.instance import Fact
from repro.exceptions import QueryError
from repro.queries.atoms import Atom
from repro.queries.cq import ConjunctiveQuery
from repro.queries.homomorphism import FactStore, find_homomorphisms, has_homomorphism
from repro.queries.pq import AndNode, AtomNode, OrNode, PQNode, PositiveQuery
from repro.queries.terms import Variable, is_variable

__all__ = [
    "Query",
    "evaluate_boolean",
    "evaluate",
    "holds_through",
    "satisfying_assignments",
]

Query = Union[ConjunctiveQuery, PositiveQuery]


# --------------------------------------------------------------------------- #
# Conjunctive queries
# --------------------------------------------------------------------------- #
def _cq_assignments(
    query: ConjunctiveQuery,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
    limit: Optional[int] = None,
) -> Iterator[Dict[Variable, object]]:
    yield from find_homomorphisms(query.atoms, data, partial, limit)


# --------------------------------------------------------------------------- #
# Positive queries: structural evaluation
# --------------------------------------------------------------------------- #
def _node_assignments(
    node: PQNode,
    data: FactStore,
    assignment: Dict[Variable, object],
) -> Iterator[Dict[Variable, object]]:
    """Yield assignments (extending ``assignment``) that satisfy ``node``.

    Disjunction yields the union of the children's assignments; conjunction
    threads assignments left to right.  Duplicates may be produced; callers
    deduplicate when materialising answer sets.
    """
    if isinstance(node, AtomNode):
        yield from find_homomorphisms([node.atom], data, assignment)
    elif isinstance(node, AndNode):
        def conjoin(index: int, current: Dict[Variable, object]) -> Iterator[Dict[Variable, object]]:
            if index == len(node.children):
                yield current
                return
            for extended in _node_assignments(node.children[index], data, current):
                yield from conjoin(index + 1, extended)

        yield from conjoin(0, assignment)
    elif isinstance(node, OrNode):
        for child in node.children:
            yield from _node_assignments(child, data, assignment)
    else:  # pragma: no cover - defensive
        raise QueryError(f"unknown positive-query node type: {type(node)!r}")


def satisfying_assignments(
    query: Query,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
    limit: Optional[int] = None,
) -> Iterator[Dict[Variable, object]]:
    """Enumerate satisfying assignments of a CQ or PQ over ``data``."""
    if isinstance(query, ConjunctiveQuery):
        yield from _cq_assignments(query, data, partial, limit)
        return
    if isinstance(query, PositiveQuery):
        produced = 0
        for assignment in _node_assignments(query.root, data, dict(partial or {})):
            yield assignment
            produced += 1
            if limit is not None and produced >= limit:
                return
        return
    raise QueryError(f"unsupported query type: {type(query)!r}")


# --------------------------------------------------------------------------- #
# Public evaluation API
# --------------------------------------------------------------------------- #
def evaluate_boolean(
    query: Query,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
) -> bool:
    """Whether a Boolean query (or a query read as Boolean) holds in ``data``."""
    for _ in satisfying_assignments(query, data, partial, limit=1):
        return True
    return False


def _unify(atom: Atom, values: Tuple[object, ...]) -> Optional[Dict[Variable, object]]:
    """The assignment making ``atom`` ground to ``values``, or ``None``."""
    if len(values) != len(atom.terms):
        return None
    seed: Dict[Variable, object] = {}
    for term, value in zip(atom.terms, values):
        if is_variable(term):
            if seed.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return seed


def holds_through(query: Query, data, delta: Iterable[Fact]) -> bool:
    """Whether ``query`` (read as Boolean) holds on ``data`` grown by ``delta``.

    Precondition: ``query`` is false on ``data`` itself.  A monotone query
    that becomes true must then use a new fact, so a conjunctive query is
    answered through the delta: every new fact is unified with every atom of
    its relation, and only those seeds are extended, over ``data ∪ delta``,
    to the remaining atoms (the semi-naive "delta literal first" join).
    With no seed the answer is ``False``; for a one-atom query any seed
    means ``True``.  A positive query is evaluated as a whole on the union.

    ``data`` is an :class:`~repro.data.instance.Instance` (typically a
    configuration).  The union is its
    :meth:`~repro.data.instance.Instance.extended_view`, so nothing is
    copied, and ``data`` is unchanged when the call returns or raises.
    """
    new = [fact for fact in delta if not data.contains(fact.relation, fact.values)]
    if not new:
        return False
    if isinstance(query, PositiveQuery):
        with data.extended_view(new) as union:
            return evaluate_boolean(query, union)
    if not isinstance(query, ConjunctiveQuery):
        raise QueryError(f"unsupported query type: {type(query)!r}")
    atoms = query.atoms
    seeds = []
    for fact in new:
        for index, atom in enumerate(atoms):
            if atom.relation.name != fact.relation:
                continue
            seed = _unify(atom, fact.values)
            if seed is None:
                continue
            if len(atoms) == 1:
                return True
            seeds.append((atoms[:index] + atoms[index + 1:], seed))
    if not seeds:
        return False
    with data.extended_view(new) as union:
        return any(has_homomorphism(rest, union, seed) for rest, seed in seeds)


def evaluate(
    query: Query,
    data: FactStore,
    partial: Optional[Mapping[Variable, object]] = None,
) -> FrozenSet[Tuple[object, ...]]:
    """Evaluate a query and return its answer set.

    Boolean queries return ``frozenset({()})`` when true and ``frozenset()``
    when false, mirroring relational-algebra conventions.
    """
    free = query.free_variables
    answers: Set[Tuple[object, ...]] = set()
    for assignment in satisfying_assignments(query, data, partial):
        try:
            answers.add(tuple(assignment[variable] for variable in free))
        except KeyError as missing:
            raise QueryError(
                f"unsafe query {query.name!r}: free variable {missing} is not "
                f"bound by every disjunct"
            ) from None
        if not free:
            break
    return frozenset(answers)
