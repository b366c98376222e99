"""Boolean coding gadgets (used throughout the hardness proofs).

Several constructions of the paper "code Boolean operations in relations": a
two-valued domain ``B = {0, 1}`` together with inaccessible relations
``And``, ``Or``, ``Eq`` holding the truth tables of the corresponding
operators, and a unary relation ``P`` holding ``1``.  Conjunctive queries can
then express disjunctive conditions by chaining these relations (the trick
behind Proposition 3.3's CQ case and Theorem 5.1's ``BOOLCONS``).

This module builds the gadget into a :class:`~repro.schema.SchemaBuilder`
and produces the corresponding configuration facts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.data import Fact
from repro.queries.atoms import Atom
from repro.queries.terms import Term, Variable
from repro.schema import Relation, Schema, SchemaBuilder

__all__ = [
    "BOOLEAN_DOMAIN_NAME",
    "add_boolean_gadget",
    "boolean_gadget_facts",
    "or_chain_atoms",
    "and_chain_atoms",
]

BOOLEAN_DOMAIN_NAME = "B"

_TRUTH_TABLES: Dict[str, Tuple[Tuple[int, int, int], ...]] = {
    "And": ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)),
    "Or": ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)),
    "Eq": ((0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1)),
}


def add_boolean_gadget(builder: SchemaBuilder, prefix: str = "") -> Dict[str, Relation]:
    """Declare the Boolean domain and the ``And``/``Or``/``Eq``/``P`` relations.

    The relations get **no access methods**: their content is fixed by the
    configuration, exactly as in the paper's reductions.  Returns the declared
    relations keyed by their un-prefixed names.
    """
    builder.domain(BOOLEAN_DOMAIN_NAME, values=(0, 1))
    relations: Dict[str, Relation] = {}
    for operator in ("And", "Or", "Eq"):
        relations[operator] = builder.relation(
            f"{prefix}{operator}",
            [("left", BOOLEAN_DOMAIN_NAME), ("right", BOOLEAN_DOMAIN_NAME), ("result", BOOLEAN_DOMAIN_NAME)],
        )
    relations["P"] = builder.relation(f"{prefix}P", [("value", BOOLEAN_DOMAIN_NAME)])
    return relations


def boolean_gadget_facts(prefix: str = "") -> Tuple[Fact, ...]:
    """The configuration facts of the gadget: truth tables plus ``P(1)``."""
    facts: List[Fact] = []
    for operator, rows in _TRUTH_TABLES.items():
        for row in rows:
            facts.append(Fact(f"{prefix}{operator}", row))
    facts.append(Fact(f"{prefix}P", (1,)))
    return tuple(facts)


def or_chain_atoms(
    schema: Schema,
    inputs: Sequence[Term],
    result: Variable,
    variable_prefix: str = "or",
    prefix: str = "",
) -> Tuple[Atom, ...]:
    """Atoms computing ``result = inputs[0] ∨ inputs[1] ∨ ...`` with ``Or``.

    For a single input the chain degenerates to ``Eq(input, input, result)``...
    no — it uses ``Or(input, input, result)``, which has the same effect.
    """
    return _chain_atoms(schema, f"{prefix}Or", inputs, result, variable_prefix)


def and_chain_atoms(
    schema: Schema,
    inputs: Sequence[Term],
    result: Variable,
    variable_prefix: str = "and",
    prefix: str = "",
) -> Tuple[Atom, ...]:
    """Atoms computing ``result = inputs[0] ∧ inputs[1] ∧ ...`` with ``And``."""
    return _chain_atoms(schema, f"{prefix}And", inputs, result, variable_prefix)


def _chain_atoms(
    schema: Schema,
    relation_name: str,
    inputs: Sequence[Term],
    result: Variable,
    variable_prefix: str,
) -> Tuple[Atom, ...]:
    relation = schema.relation(relation_name)
    if not inputs:
        raise ValueError("a Boolean chain needs at least one input")
    if len(inputs) == 1:
        return (Atom(relation, (inputs[0], inputs[0], result)),)
    atoms: List[Atom] = []
    accumulator: Term = inputs[0]
    for index, term in enumerate(inputs[1:]):
        is_last = index == len(inputs) - 2
        target: Term = result if is_last else Variable(f"{variable_prefix}_{index}")
        atoms.append(Atom(relation, (accumulator, term, target)))
        accumulator = target
    return tuple(atoms)
