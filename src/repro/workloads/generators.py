"""Synthetic schema, instance, and configuration generators.

The paper has no data sets (it is a theory paper), so the benchmarks and
property tests run on synthetic workloads.  All generators are deterministic
given their ``seed`` so that benchmark runs are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.data import Configuration, Instance
from repro.schema import Schema, SchemaBuilder

__all__ = [
    "GeneratedWorkload",
    "random_schema",
    "random_instance",
    "random_configuration",
    "chain_schema",
]


@dataclass(frozen=True)
class GeneratedWorkload:
    """A generated schema together with a hidden instance and a configuration."""

    schema: Schema
    instance: Instance
    configuration: Configuration


def random_schema(
    *,
    relations: int = 4,
    max_arity: int = 3,
    domains: int = 2,
    dependent_ratio: float = 0.5,
    methods_per_relation: int = 1,
    seed: int = 0,
) -> Schema:
    """A random schema with one or more access methods per relation."""
    rng = random.Random(seed)
    builder = SchemaBuilder()
    domain_names = [f"D{i}" for i in range(domains)]
    for name in domain_names:
        builder.domain(name)
    for index in range(relations):
        arity = rng.randint(1, max_arity)
        attributes = [
            (f"a{j}", domain_names[rng.randrange(domains)]) for j in range(arity)
        ]
        relation = builder.relation(f"R{index}", attributes)
        for method_index in range(methods_per_relation):
            input_count = rng.randint(0, arity)
            inputs = sorted(rng.sample(range(arity), input_count))
            builder.access(
                f"m{index}_{method_index}",
                relation,
                inputs=inputs,
                dependent=rng.random() < dependent_ratio,
            )
    return builder.build()


def random_instance(
    schema: Schema,
    *,
    tuples_per_relation: int = 6,
    value_pool: int = 8,
    seed: int = 0,
) -> Instance:
    """A random instance drawing values from a small per-domain pool."""
    rng = random.Random(seed)
    instance = Instance(schema)
    for relation in schema.relations:
        for _ in range(tuples_per_relation):
            values = []
            for attribute in relation.attributes:
                if attribute.domain.is_enumerated:
                    pool: Sequence[object] = sorted(
                        attribute.domain.values or (), key=repr
                    )
                else:
                    pool = [f"{attribute.domain.name.lower()}{i}" for i in range(value_pool)]
                values.append(pool[rng.randrange(len(pool))])
            instance.add(relation.name, tuple(values))
    return instance


def random_configuration(
    instance: Instance,
    *,
    fraction: float = 0.3,
    seed: int = 0,
) -> Configuration:
    """A random sub-instance of ``instance`` (a consistent configuration)."""
    rng = random.Random(seed)
    configuration = Configuration.empty(instance.schema)
    for fact in instance.facts():
        if rng.random() < fraction:
            configuration.add_fact(fact)
    return configuration


def chain_schema(
    length: int,
    *,
    dependent: bool = True,
    domain_name: str = "D",
) -> Schema:
    """A schema of binary relations ``L1 ... Ln`` chained by access patterns.

    Each ``Li`` has one access method bound on its first attribute, so
    answering a chain query requires feeding the output of one access into
    the next — the canonical dependent-access workload.
    """
    builder = SchemaBuilder()
    builder.domain(domain_name)
    for index in range(1, length + 1):
        relation = builder.relation(
            f"L{index}", [("src", domain_name), ("dst", domain_name)]
        )
        builder.access(
            f"accL{index}", relation, inputs=["src"], dependent=dependent
        )
    return builder.build()
