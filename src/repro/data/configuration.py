"""Configurations: the knowledge accumulated by past accesses (Section 2).

A *configuration* ``Conf`` for an instance ``I`` is a sub-instance of ``I``:
for every relation, a subset of its tuples.  A configuration is *consistent*
with any instance that contains it.  For monotone (positive) queries, a
Boolean query is *certain* at ``Conf`` exactly when it already holds in
``Conf`` itself, because ``Conf`` is the minimal consistent instance; the
certain-answer machinery in :mod:`repro.queries.certain` relies on this.

A configuration also knows which constants of the query are available; the
paper assumes "all constants appearing in the query are present in the
configuration", which is modelled by :meth:`Configuration.with_constants`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ConsistencyError
from repro.data.indexing import fact_hash
from repro.data.instance import Fact, Instance
from repro.schema import AbstractDomain, Schema

__all__ = ["Configuration"]


class Configuration(Instance):
    """A configuration: an instance plus a set of known constants.

    In addition to ground facts, a configuration carries *seed constants*
    (value, domain) pairs — constants that are known without being part of any
    fact yet, such as the constants occurring in the query.  Seed constants
    participate in the active domain and can therefore be used as inputs to
    dependent accesses, exactly as the paper prescribes.
    """

    def __init__(
        self,
        schema: Schema,
        facts: Union[Mapping[str, Iterable[Sequence[object]]], Iterable[Fact], None] = None,
        constants: Iterable[Tuple[object, AbstractDomain]] = (),
    ) -> None:
        self._constants: set = set()
        self._constants_hash = 0
        self._combined_adom: Optional[FrozenSet[Tuple[object, AbstractDomain]]] = None
        super().__init__(schema, facts)
        for value, domain in constants:
            self.add_constant(value, domain)

    # ------------------------------------------------------------------ #
    # Seed constants
    # ------------------------------------------------------------------ #
    @property
    def seed_constants(self) -> FrozenSet[Tuple[object, AbstractDomain]]:
        """Constants known to the configuration independently of any fact."""
        return frozenset(self._constants)

    def add_constant(self, value: object, domain: AbstractDomain) -> None:
        """Declare ``value`` (of ``domain``) as known to the configuration."""
        pair = (value, domain)
        if pair not in self._constants:
            self._constants.add(pair)
            self._constants_hash ^= fact_hash(domain.name, (value,))
            self._combined_adom = None
            self._pools_cache = None

    def with_constants(
        self, constants: Iterable[Tuple[object, AbstractDomain]]
    ) -> "Configuration":
        """Return a copy of the configuration with extra seed constants."""
        clone = self.copy()
        for value, domain in constants:
            clone.add_constant(value, domain)
        return clone

    # ------------------------------------------------------------------ #
    # Overrides
    # ------------------------------------------------------------------ #
    def active_domain(self) -> FrozenSet[Tuple[object, AbstractDomain]]:
        """Active domain of the facts plus the seed constants."""
        combined = self._combined_adom
        if combined is None:
            combined = super().active_domain() | self._constants
            self._combined_adom = combined
        return combined

    def _invalidate_adom(self) -> None:
        super()._invalidate_adom()
        self._combined_adom = None

    def fingerprint(self) -> Tuple[int, int, int]:
        """Content fingerprint covering facts and seed constants."""
        size, content = super().fingerprint()
        return (size, content, self._constants_hash)

    def wire_constants(self) -> Tuple[Tuple[object, AbstractDomain], ...]:
        """The seed constants in deterministic order (the wire format)."""
        return tuple(sorted(self._constants, key=repr))

    def __reduce__(self):
        # Extends the compact Instance wire format with the seed constants;
        # see :meth:`repro.data.instance.Instance.__reduce__`.
        return (
            self.__class__,
            (self.schema, self.wire_facts(), self.wire_constants()),
        )

    def copy(self) -> "Configuration":
        """A deep copy (sharing the schema)."""
        clone = Configuration(self.schema)
        self._copy_storage_into(clone)
        clone._constants = set(self._constants)
        clone._constants_hash = self._constants_hash
        clone._combined_adom = self._combined_adom
        return clone

    def union(self, other: Instance) -> "Configuration":
        """A new configuration with the facts (and constants) of both operands."""
        merged = self.copy()
        for fact in other.facts():
            merged.add_fact(fact)
        if isinstance(other, Configuration):
            for value, domain in other._constants:
                merged.add_constant(value, domain)
        return merged

    def extended_with(self, facts: Iterable[Fact]) -> "Configuration":
        """A new configuration with extra facts added (non-destructive).

        This deep-copies every tuple set and index.  Callers that only
        evaluate on the grown configuration should use
        :meth:`~repro.data.instance.Instance.extended_view` (or
        :func:`~repro.queries.evaluation.holds_through`) instead and skip
        the copy.
        """
        clone = self.copy()
        clone.add_all(facts)
        return clone

    # ------------------------------------------------------------------ #
    # Consistency
    # ------------------------------------------------------------------ #
    def is_consistent_with(self, instance: Instance) -> bool:
        """Whether this configuration is a sub-instance of ``instance``."""
        return self.issubset(instance)

    def check_consistent_with(self, instance: Instance) -> None:
        """Raise :class:`~repro.exceptions.ConsistencyError` if inconsistent."""
        if not self.is_consistent_with(instance):
            missing = [fact for fact in self.facts() if fact not in instance]
            raise ConsistencyError(
                f"configuration is not consistent with the instance; "
                f"{len(missing)} fact(s) of the configuration are absent, "
                f"e.g. {missing[0]!r}"
            )

    @staticmethod
    def empty(schema: Schema) -> "Configuration":
        """The empty configuration over ``schema``."""
        return Configuration(schema)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__repr__()
        return base.replace("Instance", "Configuration", 1)
