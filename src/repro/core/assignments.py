"""Enumeration of candidate variable assignments for the decision procedures.

The procedures for immediate and long-term relevance (Propositions 4.1 and
4.5) guess mappings of the query variables into the active domain of the
configuration extended with a bounded number of fresh constants.  This module
centralises that enumeration:

* a variable of an *infinite* domain ranges over the active-domain values of
  its domain plus a pool of fresh values (one shared pool per domain, as many
  values as requested);
* a variable of an *enumerated* domain ranges over the full enumeration (any
  value may appear in an instance consistent with the configuration).

The long-term relevance searches enumerate through a
:class:`SubgoalClassifier`, which sorts every subgoal into *absorbed*,
*first* or *later* as soon as it is ground, so a branch whose grounded
subgoals cannot start a witness path is cut before its remaining variables
are expanded.
"""

from __future__ import annotations

import itertools
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.data import Configuration, Fact
from repro.chase.fresh import FreshConstants
from repro.queries.terms import Variable, is_variable
from repro.schema import AbstractDomain

__all__ = [
    "SubgoalClassifier",
    "candidate_values",
    "compatible_with_access",
    "iter_assignments",
    "iter_witness_assignments",
]

#: Labels :class:`SubgoalClassifier` gives a ground subgoal.
ABSORBED, FIRST, LATER = 1, 2, 3


def compatible_with_access(atom, access) -> bool:
    """Whether a subgoal could be witnessed by the access (Proposition 3.5)."""
    if atom.relation.name != access.relation.name:
        return False
    for place, bound_value in access.binding_by_place.items():
        term = atom.terms[place]
        if not is_variable(term) and term != bound_value:
            return False
    return True


class SubgoalClassifier:
    """Where a ground subgoal of a long-term relevance witness comes from.

    A ground subgoal is *absorbed* when the configuration already holds it,
    *first* when the probed access can return it (its relation is the
    accessed one and it agrees with the binding), *later* when its relation
    has an access method, and infeasible (``None``) otherwise; the labels are
    tried in that order.  Only the binding-compatible subgoals
    (``compatible``) can be *first*.  With an access, a witness needs at
    least one *first* subgoal, so :func:`iter_witness_assignments` cuts a
    branch once every compatible subgoal is ground and none of them is
    *first*; without one (``compatible`` is ``None``) nothing is required.
    """

    def __init__(self, atoms, configuration: Configuration, schema, access=None):
        self._relations = tuple(atom.relation.name for atom in atoms)
        self._has_access = tuple(schema.has_access(name) for name in self._relations)
        self._configuration = configuration
        self._access = access
        self.compatible: Optional[Tuple[int, ...]] = None
        if access is not None:
            self.compatible = tuple(
                index
                for index, atom in enumerate(atoms)
                if compatible_with_access(atom, access)
            )

    def __call__(self, atom_index: int, values: Tuple[object, ...]) -> Optional[int]:
        relation = self._relations[atom_index]
        if self._configuration.contains(relation, values):
            return ABSORBED
        access = self._access
        if access is not None and relation == access.relation.name and access.matches(values):
            return FIRST
        return LATER if self._has_access[atom_index] else None

    def starts(self, labels: Sequence[Optional[int]]) -> bool:
        """Whether some compatible subgoal is witnessed by the first access."""
        return any(labels[index] == FIRST for index in self.compatible)

    def facts(self, labels, grounded) -> Tuple[Tuple[Fact, ...], Tuple[Fact, ...]]:
        """The ``(first_facts, later_facts)`` of a fully ground disjunct."""
        first: List[Fact] = []
        later: List[Fact] = []
        for relation, label, values in zip(self._relations, labels, grounded):
            if label == FIRST:
                first.append(Fact(relation, values))
            elif label == LATER:
                later.append(Fact(relation, values))
        return tuple(first), tuple(later)


def candidate_values(
    domain: AbstractDomain,
    configuration: Configuration,
    fresh_values: Sequence[object] = (),
) -> Tuple[object, ...]:
    """Candidate values a variable of ``domain`` may take in a witness."""
    if domain.is_enumerated:
        return tuple(sorted(domain.values or (), key=repr))
    adom_values = sorted(
        {value for value, dom in configuration.active_domain() if dom == domain},
        key=repr,
    )
    return tuple(adom_values) + tuple(fresh_values)


def iter_assignments(
    variables: Sequence[Variable],
    variable_domains: Mapping[Variable, AbstractDomain],
    configuration: Configuration,
    *,
    fresh_per_domain: int = 1,
    max_assignments: Optional[int] = None,
) -> Iterator[Dict[Variable, object]]:
    """Enumerate assignments of ``variables`` into active-domain and fresh values.

    ``fresh_per_domain`` controls how many distinct fresh values per abstract
    domain are made available; one suffices for immediate relevance (the
    identification argument of Proposition 4.1), while long-term relevance
    uses as many as there are variables of the domain so that distinct
    variables can take distinct fresh values.
    """
    fresh = FreshConstants(
        {value for value, _ in configuration.active_domain()}
    )
    fresh_pools: Dict[str, Tuple[object, ...]] = {}
    pools: List[Tuple[object, ...]] = []
    for variable in variables:
        domain = variable_domains[variable]
        if domain.name not in fresh_pools and not domain.is_enumerated:
            fresh_pools[domain.name] = fresh.several(domain, fresh_per_domain)
        pool = candidate_values(
            domain, configuration, fresh_pools.get(domain.name, ())
        )
        if not pool:
            return
        pools.append(pool)

    produced = 0
    for combination in itertools.product(*pools):
        yield dict(zip(variables, combination))
        produced += 1
        if max_assignments is not None and produced >= max_assignments:
            return


def iter_witness_assignments(
    atoms,
    variable_domains: Mapping[Variable, AbstractDomain],
    configuration: Configuration,
    access=None,
    *,
    schema=None,
    fresh_per_domain: int = 1,
    max_assignments: Optional[int] = None,
    prefer_fresh: bool = False,
    preferred_values: Sequence[object] = (),
    atom_feasible: Optional[Callable[[int, Tuple[object, ...]], bool]] = None,
    classifier: Optional[SubgoalClassifier] = None,
) -> Iterator[object]:
    """Enumerate assignments restricted to *useful* active-domain values.

    A witness (for immediate relevance, long-term relevance, or
    non-containment) only benefits from mapping a variable ``x`` to an
    active-domain value ``v`` when ``v`` can actually participate in a
    witnessed subgoal through ``x``: either ``v`` occurs in a configuration
    fact at one of the places where ``x`` occurs, or ``v`` is a binding value
    of the probed access at an input place where ``x`` occurs.  Any other
    active-domain value is interchangeable with a fresh constant, so the
    enumeration skips it.  Variables of enumerated domains still range over
    the whole enumeration.

    When ``schema`` is supplied (long-term relevance and containment, where
    witnesses may produce new facts), a variable occurring at an *input place*
    of some dependent access method additionally ranges over every
    active-domain value of its abstract domain: binding a dependent input to
    an already-known constant is how a witness avoids support chains.

    Two further reductions keep the enumeration small without losing any
    witness the flat cartesian product would find:

    * **canonical fresh values** — distinct fresh constants of one abstract
      domain are interchangeable (none occurs in the configuration, the
      binding, or the query), so assignments are enumerated up to renaming of
      the fresh pool: a variable may reuse a fresh value already taken by an
      earlier variable of its domain, or take the *next* unused one, never an
      arbitrary member of the pool.  Every witness of the full product maps to
      exactly one canonical representative, so verdicts are unchanged while
      the fresh branching drops from ``k^n`` to the number of set partitions;
    * **per-atom pruning** — when ``atom_feasible`` is supplied, every atom is
      grounded as soon as the last of its variables is assigned and the
      callback decides whether the branch can still contribute a witness
      (``atom_feasible(atom_index, ground_values)``); infeasible branches are
      cut before the remaining variables are expanded;
    * **subgoal classification** — a ``classifier``
      (:class:`SubgoalClassifier`) takes the place of ``atom_feasible``: each
      atom is labelled as soon as it is ground, an infeasible one cuts the
      branch, and so does a branch whose binding-compatible subgoals are all
      ground without one the first access witnesses (when no subgoal is
      compatible, nothing is enumerated at all).  Each surviving candidate is
      yielded as its grounded ``(first_facts, later_facts)`` instead of as an
      assignment, in the order the unpruned enumeration would reach it.

    ``max_assignments`` caps the number of candidates *yielded*, so with a
    classifier it counts only the ones that survive the cuts.

    This restriction keeps the guessing step polynomial in the configuration
    for a fixed query (the data-complexity claims of Propositions 4.1, 4.5,
    and 5.7) while preserving the witnesses the unrestricted enumeration
    would find.
    """
    atoms = tuple(atoms)
    variables: List[Variable] = []
    for atom in atoms:
        for variable in atom.variables:
            if variable not in variables:
                variables.append(variable)

    useful: Dict[Variable, set] = {variable: set() for variable in variables}
    binding_by_place = access.binding_by_place if access is not None else {}
    seed_constants = getattr(configuration, "seed_constants", frozenset())
    for atom in atoms:
        rows = configuration.tuples(atom.relation.name)
        for place, term in enumerate(atom.terms):
            if term not in useful:
                continue
            for row in rows:
                useful[term].add(row[place])
            if (
                access is not None
                and atom.relation.name == access.relation.name
                and place in binding_by_place
            ):
                useful[term].add(binding_by_place[place])
    # Seed constants (query constants, known identifiers) occur in no fact but
    # can still be required as dependent-access inputs in a witness.
    for variable in variables:
        domain = variable_domains[variable]
        for value, constant_domain in seed_constants:
            if constant_domain == domain:
                useful[variable].add(value)

    if schema is not None:
        adom = configuration.active_domain()
        input_place_variables = set()
        for atom in atoms:
            if not schema.has_relation(atom.relation.name):
                continue
            input_places = set()
            for method in schema.methods_for(atom.relation.name):
                if method.dependent:
                    input_places.update(method.input_places)
            for place in input_places:
                term = atom.terms[place]
                if term in useful:
                    input_place_variables.add(term)
        for variable in input_place_variables:
            domain = variable_domains[variable]
            for value, value_domain in adom:
                if value_domain == domain:
                    useful[variable].add(value)

    fresh = FreshConstants({value for value, _ in configuration.active_domain()})
    fresh_pools: Dict[str, Tuple[object, ...]] = {}
    known_pools: List[Optional[Tuple[object, ...]]] = []
    for variable in variables:
        domain = variable_domains[variable]
        if domain.is_enumerated:
            pool: Tuple[object, ...] = tuple(sorted(domain.values or (), key=repr))
            if preferred_values:
                front = tuple(v for v in preferred_values if v in pool)
                if front:
                    pool = front + tuple(v for v in pool if v not in front)
            if not pool:
                return
            known_pools.append(((), pool))
        else:
            if domain.name not in fresh_pools:
                fresh_pools[domain.name] = fresh.several(domain, fresh_per_domain)
            known = tuple(sorted(useful[variable], key=repr))
            # ``preferred_values`` (e.g. the output values of the probed
            # access) are hoisted in front of *everything*, including the
            # fresh choices interleaved below; the split is kept explicit so
            # ``prefer_fresh`` can order the remainder.
            preferred_front: Tuple[object, ...] = ()
            if preferred_values:
                preferred_front = tuple(v for v in preferred_values if v in known)
                if preferred_front:
                    known = tuple(v for v in known if v not in preferred_front)
            known_pools.append((preferred_front, known))

    # Compile each atom into slot descriptors so grounding a branch costs a
    # list walk instead of per-term hash lookups, and record at which depth
    # (index of its last variable in ``variables``) each atom becomes ground.
    variable_index = {variable: index for index, variable in enumerate(variables)}
    enumerated_flags = [variable_domains[v].is_enumerated for v in variables]
    domain_names = [variable_domains[v].name for v in variables]
    compiled: List[Tuple[Tuple[Tuple[int, object], ...], int]] = []
    for atom in atoms:
        slots = tuple(
            (variable_index[term], None) if is_variable(term) else (-1, term)
            for term in atom.terms
        )
        last_depth = max(
            (variable_index[term] for term in atom.terms if is_variable(term)),
            default=-1,
        )
        compiled.append((slots, last_depth))

    def ground(slots: Tuple[Tuple[int, object], ...], chosen: List[object]):
        return tuple(
            chosen[index] if index >= 0 else constant for index, constant in slots
        )

    check = classifier if classifier is not None else atom_feasible
    # The current label and ground values of every atom on the branch.
    labels: List[object] = [None] * len(compiled)
    grounded: List[object] = [None] * len(compiled)
    atoms_at_depth: Dict[int, List[int]] = {}
    if check is not None:
        for atom_index, (slots, last_depth) in enumerate(compiled):
            if last_depth >= 0:
                atoms_at_depth.setdefault(last_depth, []).append(atom_index)
                continue
            values = ground(slots, [])
            labels[atom_index] = label = check(atom_index, values)
            grounded[atom_index] = values
            if not label:
                return
    # The depth at which the last binding-compatible subgoal becomes ground.
    gate_depth: Optional[int] = None
    if classifier is not None and classifier.compatible is not None:
        if not classifier.compatible:
            return
        gate_depth = max(compiled[index][1] for index in classifier.compatible)
        if gate_depth == -1 and not classifier.starts(labels):
            return

    total = len(variables)
    chosen: List[object] = [None] * total
    used_fresh: Dict[str, int] = {name: 0 for name in fresh_pools}
    produced = 0

    def expand(depth: int) -> Iterator[object]:
        nonlocal produced
        if depth == total:
            if classifier is not None:
                yield classifier.facts(labels, grounded)
            else:
                yield dict(zip(variables, chosen))
            produced += 1
            return
        preferred_front, known = known_pools[depth]
        if enumerated_flags[depth]:
            choices: Sequence[Tuple[object, bool]] = [
                (value, False) for value in known
            ]
        else:
            name = domain_names[depth]
            pool = fresh_pools[name]
            used = used_fresh[name]
            # Canonical fresh choices: every fresh value an earlier variable
            # already uses, plus at most one yet-unused value.
            fresh_choices = [(value, False) for value in pool[:used]]
            if used < len(pool):
                fresh_choices.append((pool[used], True))
            front_choices = [(value, False) for value in preferred_front]
            known_choices = [(value, False) for value in known]
            # ``prefer_fresh`` flips the enumeration order so witnesses built
            # from facts *outside* the configuration are tried first; the
            # preferred values stay in front either way.  With
            # ``max_assignments=None`` the reordering cannot affect the
            # verdict (the same set is enumerated); under a finite budget it
            # changes which prefix is searched, trading one incompleteness
            # frontier for another — soundness is unaffected either way.
            if prefer_fresh:
                choices = front_choices + fresh_choices + known_choices
            else:
                choices = front_choices + known_choices + fresh_choices
        if not choices:
            return
        completed = atoms_at_depth.get(depth)
        for value, is_new_fresh in choices:
            if max_assignments is not None and produced >= max_assignments:
                return
            chosen[depth] = value
            if is_new_fresh:
                used_fresh[domain_names[depth]] += 1
            feasible = True
            if completed:
                for atom_index in completed:
                    values = ground(compiled[atom_index][0], chosen)
                    labels[atom_index] = label = check(atom_index, values)
                    grounded[atom_index] = values
                    if not label:
                        feasible = False
                        break
                if feasible and depth == gate_depth:
                    feasible = classifier.starts(labels)
            if feasible:
                yield from expand(depth + 1)
            if is_new_fresh:
                used_fresh[domain_names[depth]] -= 1

    yield from expand(0)
