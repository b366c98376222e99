"""Query generators: chain, star, and random conjunctive/positive queries."""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.exceptions import QueryError
from repro.queries import ConjunctiveQuery, PositiveQuery
from repro.queries.atoms import Atom
from repro.queries.pq import AndNode, AtomNode, OrNode
from repro.queries.terms import Variable
from repro.schema import Schema

__all__ = ["chain_query", "star_query", "random_cq", "random_pq"]


def chain_query(schema: Schema, length: int, prefix: str = "L") -> ConjunctiveQuery:
    """``L1(x0, x1) ∧ L2(x1, x2) ∧ ... ∧ Ln(x_{n-1}, x_n)`` over a chain schema."""
    atoms: List[Atom] = []
    for index in range(1, length + 1):
        relation = schema.relation(f"{prefix}{index}")
        atoms.append(
            Atom(relation, (Variable(f"x{index - 1}"), Variable(f"x{index}")))
        )
    return ConjunctiveQuery(tuple(atoms), (), f"chain{length}")


def star_query(
    schema: Schema, relation_names: Sequence[str], center: str = "hub"
) -> ConjunctiveQuery:
    """A star: every relation shares its first variable with the others."""
    atoms: List[Atom] = []
    hub = Variable(center)
    for index, name in enumerate(relation_names):
        relation = schema.relation(name)
        terms = [hub] + [
            Variable(f"s{index}_{place}") for place in range(1, relation.arity)
        ]
        if relation.arity == 0:
            terms = []
        atoms.append(Atom(relation, tuple(terms[: relation.arity])))
    return ConjunctiveQuery(tuple(atoms), (), "star")


def random_cq(
    schema: Schema,
    *,
    atoms: int = 3,
    variables: int = 4,
    constant_probability: float = 0.15,
    value_pool: int = 4,
    seed: int = 0,
) -> ConjunctiveQuery:
    """A random Boolean conjunctive query respecting the domain discipline.

    Variables are typed on first use; later uses only re-employ a variable at
    places of the same abstract domain, so the query always satisfies the
    paper's requirement that shared variables have consistent domains.
    """
    rng = random.Random(seed)
    accessible = [relation for relation in schema.relations]
    if not accessible:
        raise QueryError("cannot generate a query over an empty schema")
    variable_pool = [Variable(f"v{i}") for i in range(variables)]
    variable_domains: dict = {}
    generated: List[Atom] = []
    for _ in range(atoms):
        relation = accessible[rng.randrange(len(accessible))]
        terms = []
        for place in range(relation.arity):
            domain = relation.domain_of(place)
            if rng.random() < constant_probability:
                if domain.is_enumerated:
                    pool = sorted(domain.values or (), key=repr)
                else:
                    pool = [f"{domain.name.lower()}{i}" for i in range(value_pool)]
                terms.append(pool[rng.randrange(len(pool))])
                continue
            compatible = [
                variable
                for variable in variable_pool
                if variable_domains.get(variable, domain) == domain
            ]
            variable = compatible[rng.randrange(len(compatible))] if compatible else None
            if variable is None:
                variable = Variable(f"v{len(variable_pool)}")
                variable_pool.append(variable)
            variable_domains[variable] = domain
            terms.append(variable)
        generated.append(Atom(relation, tuple(terms)))
    return ConjunctiveQuery(tuple(generated), (), f"rand{seed}")


def random_pq(
    schema: Schema,
    *,
    disjuncts: int = 2,
    atoms_per_disjunct: int = 2,
    variables: int = 4,
    seed: int = 0,
) -> PositiveQuery:
    """A random Boolean positive query: a disjunction of small conjunctions."""
    rng = random.Random(seed)
    branches = []
    for index in range(disjuncts):
        disjunct = random_cq(
            schema,
            atoms=atoms_per_disjunct,
            variables=variables,
            seed=seed * 31 + index,
        )
        # Rename apart so that variables of different disjuncts (which may
        # have been typed with different domains) do not clash.
        disjunct = disjunct.rename_apart(f"_d{index}")
        branches.append(
            AndNode(tuple(AtomNode(atom) for atom in disjunct.atoms))
            if len(disjunct.atoms) > 1
            else AtomNode(disjunct.atoms[0])
        )
    root = OrNode(tuple(branches)) if len(branches) > 1 else branches[0]
    return PositiveQuery(root, (), f"randpq{seed}")
