"""The telemetry catalog in ``docs/operations.md`` matches what ``src/`` records.

Two directions, both read statically from the source tree:

* every literal metric name passed to ``incr`` / ``observe`` / ``timer`` in
  ``src/`` is documented (literally, or by a ``<placeholder>`` family of the
  catalog tables);
* every literal name in the catalog tables is recorded somewhere in ``src/``
  — ``<placeholder>`` families are skipped, and so are families whose names
  ``src/`` builds by concatenation (``"certainty." + outcome``).

This pins one naming scheme: a renamed or deleted metric fails here until the
catalog follows.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
OPERATIONS = ROOT / "docs" / "operations.md"
RECORDERS = ("incr", "observe", "timer")


def _recorded_names() -> Tuple[Set[str], Set[str], Set[str]]:
    """``(recorded, gauges, prefixes)`` found in ``src/``.

    ``recorded`` holds the literal names passed to the recorders, ``gauges``
    the literal names passed to ``set_gauge``, and ``prefixes`` the string
    heads of names built as ``"prefix" + suffix``.
    """
    recorded: Set[str] = set()
    gauges: Set[str] = set()
    prefixes: Set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in RECORDERS + ("set_gauge",)
                and node.args
            ):
                continue
            name = node.args[0]
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                target = gauges if node.func.attr == "set_gauge" else recorded
                target.add(name.value)
            elif (
                isinstance(name, ast.BinOp)
                and isinstance(name.op, ast.Add)
                and isinstance(name.left, ast.Constant)
                and isinstance(name.left.value, str)
            ):
                prefixes.add(name.left.value)
    return recorded, gauges, prefixes


def _catalog_names() -> Set[str]:
    """The backticked names in the first column of the catalog tables."""
    text = OPERATIONS.read_text(encoding="utf-8")
    section = text[text.index("## Telemetry catalog") : text.index("### Span catalog")]
    names: Set[str] = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def _placeholder_pattern(family: str) -> "re.Pattern[str]":
    parts = re.split(r"<[^>]+>", family)
    return re.compile("[^.]+".join(re.escape(part) for part in parts) + "$")


def test_every_recorded_metric_is_documented():
    recorded, _gauges, _prefixes = _recorded_names()
    assert recorded, "no recorder calls found under src/"
    text = OPERATIONS.read_text(encoding="utf-8")
    families = [
        _placeholder_pattern(name) for name in _catalog_names() if "<" in name
    ]
    undocumented = sorted(
        name
        for name in recorded
        if f"`{name}`" not in text
        and not any(family.match(name) for family in families)
    )
    assert not undocumented, f"metrics missing from docs/operations.md: {undocumented}"


def test_every_catalog_name_is_recorded():
    recorded, gauges, prefixes = _recorded_names()
    catalog = _catalog_names()
    assert catalog, "no catalog tables found in docs/operations.md"
    stale = sorted(
        name
        for name in catalog
        if "<" not in name
        and name not in recorded | gauges
        and not any(name.startswith(prefix) for prefix in prefixes)
    )
    assert not stale, f"catalog names that src/ never records: {stale}"
