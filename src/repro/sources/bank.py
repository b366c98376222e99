"""The bank scenario of the paper's introduction.

Relations::

    Employee(EmpId, Title, LastName, FirstName, OffId)
    Office(OffId, StreetAddress, State, Phone)
    Approval(State, Offering)
    Manager(EmpId, EmpId)

Web forms (access methods)::

    EmpOffAcc     Employee by EmpId     (returns the employee's office link)
    EmpManAcc     Manager  by EmpId     (returns the employee's managers)
    OfficeInfoAcc Office   by OffId     (returns the full office record)
    StateApprAcc  Approval by State     (returns the approvals for the state)

and the motivating Boolean query: *is there a loan officer located in
Illinois, and is the company authorised to offer 30-year mortgages in
Illinois?*
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from repro.data import Configuration, Instance
from repro.queries import ConjunctiveQuery, parse_cq
from repro.schema import Schema, SchemaBuilder
from repro.sources.service import DataSource, Mediator

__all__ = ["BankScenario", "build_bank_schema", "build_bank_scenario"]


def build_bank_schema() -> Schema:
    """The bank schema with its four form-style access methods."""
    builder = SchemaBuilder()
    builder.domain("EmpId")
    builder.domain("Text")
    builder.domain("OffId")
    builder.domain("State")
    builder.domain("Offering")
    builder.relation(
        "Employee",
        [
            ("empId", "EmpId"),
            ("title", "Text"),
            ("lastName", "Text"),
            ("firstName", "Text"),
            ("offId", "OffId"),
        ],
    )
    builder.relation(
        "Office",
        [
            ("offId", "OffId"),
            ("streetAddress", "Text"),
            ("state", "State"),
            ("phone", "Text"),
        ],
    )
    builder.relation("Approval", [("state", "State"), ("offering", "Offering")])
    builder.relation("Manager", [("empId", "EmpId"), ("managerId", "EmpId")])
    builder.access("EmpOffAcc", "Employee", inputs=["empId"], dependent=True)
    builder.access("EmpManAcc", "Manager", inputs=["empId"], dependent=True)
    builder.access("OfficeInfoAcc", "Office", inputs=["offId"], dependent=True)
    builder.access("StateApprAcc", "Approval", inputs=["state"], dependent=True)
    return builder.build()


@dataclass
class BankScenario:
    """A generated bank instance with its schema, query, and mediator factory."""

    schema: Schema
    hidden_instance: Instance
    query: ConjunctiveQuery
    known_employee_ids: Tuple[str, ...]

    def initial_configuration(self) -> Configuration:
        """The starting knowledge: a few employee identifiers and the query constants."""
        configuration = Configuration.empty(self.schema)
        emp_domain = self.schema.relation("Employee").domain_of(0)
        for emp_id in self.known_employee_ids:
            configuration.add_constant(emp_id, emp_domain)
        for value, domain in self.query.constants_with_domains():
            configuration.add_constant(value, domain)
        return configuration

    def mediator(self, completeness: float = 1.0, seed: int = 0) -> Mediator:
        """A mediator over exact (or partial) simulated sources."""
        sources = [
            DataSource(
                method, self.hidden_instance, completeness=completeness, seed=seed + i
            )
            for i, method in enumerate(self.schema.access_methods)
        ]
        return Mediator(self.schema, sources, self.initial_configuration())


def build_bank_scenario(
    *,
    employees: int = 30,
    offices: int = 8,
    states: int = 5,
    seed: int = 7,
    known_employees: int = 3,
) -> BankScenario:
    """Generate a bank instance where the motivating query is satisfiable.

    The generator always places at least one loan officer in an Illinois
    office and approves 30-year mortgages in Illinois, so the query has a
    witness that a federated engine can eventually discover.
    """
    schema = build_bank_schema()
    rng = random.Random(seed)
    state_names = ["Illinois"] + [f"State{i}" for i in range(1, states)]
    titles = ["loan officer", "teller", "analyst", "branch manager"]
    offerings = ["30yr", "15yr", "auto", "heloc"]

    instance = Instance(schema)
    office_ids = [f"off{i}" for i in range(offices)]
    for index, office_id in enumerate(office_ids):
        state = state_names[index % len(state_names)]
        instance.add(
            "Office", (office_id, f"{index} Main St", state, f"555-010{index}")
        )
    # Guarantee at least one Illinois office.
    instance.add("Office", ("off_il", "1 Lake St", "Illinois", "555-9999"))
    office_ids.append("off_il")

    employee_ids = [f"emp{i}" for i in range(employees)]
    for index, emp_id in enumerate(employee_ids):
        title = titles[rng.randrange(len(titles))]
        office_id = office_ids[rng.randrange(len(office_ids))]
        instance.add(
            "Employee", (emp_id, title, f"Last{index}", f"First{index}", office_id)
        )
    # Guarantee a loan officer in the Illinois office.
    instance.add("Employee", ("emp_il", "loan officer", "Doe", "Jane", "off_il"))
    employee_ids.append("emp_il")

    for emp_id in employee_ids:
        manager = employee_ids[rng.randrange(len(employee_ids))]
        if manager != emp_id:
            instance.add("Manager", (emp_id, manager))
    # A management chain from the first known employee to the Illinois loan
    # officer, so that dependent navigation can reach the witness.
    instance.add("Manager", (employee_ids[0], "emp_il"))

    for state in state_names:
        for offering in offerings:
            if rng.random() < 0.4:
                instance.add("Approval", (state, offering))
    instance.add("Approval", ("Illinois", "30yr"))

    query = parse_cq(
        schema,
        "Employee(e, 'loan officer', ln, fn, o), Office(o, a, 'Illinois', p), "
        "Approval('Illinois', '30yr')",
        name="LoanOfficerIllinois",
    )
    return BankScenario(
        schema=schema,
        hidden_instance=instance,
        query=query,
        known_employee_ids=tuple(employee_ids[:known_employees]),
    )
