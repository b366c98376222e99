"""Corridor tiling problems.

The hardness results of the paper (Theorem 5.1, Theorem 5.6, Proposition 6.2)
are proved by reductions from corridor tiling: given a set of tile types,
horizontal and vertical compatibility relations, an initial row and a final
row, decide whether the corridor of a fixed width can be tiled row by row so
that every pair of horizontally adjacent tiles satisfies the horizontal
constraint, every pair of vertically adjacent tiles satisfies the vertical
constraint, the first row is the initial row and the last row is the final
row.

This module defines the problem, a brute-force solver (used as ground truth
on the small instances exercised by the benchmarks), and generators of
solvable and unsolvable instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import ReproError

__all__ = ["TilingProblem", "solve_tiling", "has_tiling", "sample_problems"]


@dataclass(frozen=True)
class TilingProblem:
    """A corridor tiling problem.

    Attributes
    ----------
    width:
        Number of columns of the corridor.
    tile_types:
        The tile alphabet.
    horizontal:
        Allowed pairs ``(left, right)`` of horizontally adjacent tiles.
    vertical:
        Allowed pairs ``(below, above)`` of vertically adjacent tiles.
    initial_row:
        The forced first row (length ``width``).
    final_row:
        The forced last row (length ``width``).
    max_height:
        Maximum number of rows a solution may have (keeps the brute-force
        solver and the benchmarks finite).
    """

    width: int
    tile_types: Tuple[str, ...]
    horizontal: FrozenSet[Tuple[str, str]]
    vertical: FrozenSet[Tuple[str, str]]
    initial_row: Tuple[str, ...]
    final_row: Tuple[str, ...]
    max_height: int = 4

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ReproError("a tiling problem needs width at least 1")
        if len(self.initial_row) != self.width or len(self.final_row) != self.width:
            raise ReproError("initial and final rows must have length equal to width")
        for row in (self.initial_row, self.final_row):
            for tile in row:
                if tile not in self.tile_types:
                    raise ReproError(f"unknown tile type {tile!r}")

    def row_ok(self, row: Sequence[str]) -> bool:
        """Whether a row satisfies the horizontal constraints."""
        return all(
            (row[i], row[i + 1]) in self.horizontal for i in range(self.width - 1)
        )

    def rows_ok(self, below: Sequence[str], above: Sequence[str]) -> bool:
        """Whether two consecutive rows satisfy the vertical constraints."""
        return all(
            (below[i], above[i]) in self.vertical for i in range(self.width)
        )

    def candidate_rows(self) -> Iterator[Tuple[str, ...]]:
        """Every row satisfying the horizontal constraints."""
        for combination in itertools.product(self.tile_types, repeat=self.width):
            if self.row_ok(combination):
                yield combination


def solve_tiling(problem: TilingProblem) -> Optional[Tuple[Tuple[str, ...], ...]]:
    """Return a tiling (a tuple of rows) or ``None`` when none exists.

    The solver performs a breadth-first search over rows, bounded by
    ``problem.max_height``.
    """
    if not problem.row_ok(problem.initial_row) or not problem.row_ok(problem.final_row):
        return None
    if problem.initial_row == problem.final_row and problem.max_height >= 1:
        return (problem.initial_row,)

    candidates = list(problem.candidate_rows())
    frontier: List[Tuple[Tuple[str, ...], ...]] = [(problem.initial_row,)]
    for _height in range(1, problem.max_height):
        next_frontier: List[Tuple[Tuple[str, ...], ...]] = []
        for partial in frontier:
            last = partial[-1]
            for row in candidates:
                if not problem.rows_ok(last, row):
                    continue
                extended = partial + (row,)
                if row == problem.final_row:
                    return extended
                next_frontier.append(extended)
        frontier = next_frontier
        if not frontier:
            break
    return None


def has_tiling(problem: TilingProblem) -> bool:
    """Whether the corridor can be tiled within the height bound."""
    return solve_tiling(problem) is not None


def sample_problems(width: int = 2) -> Tuple[Tuple[str, TilingProblem], ...]:
    """A few named tiling problems (solvable and unsolvable) used by benchmarks."""
    tiles = ("a", "b")
    all_pairs = frozenset(itertools.product(tiles, repeat=2))
    alternating = frozenset({("a", "b"), ("b", "a")})
    problems = [
        (
            "solvable-identity",
            TilingProblem(
                width=width,
                tile_types=tiles,
                horizontal=all_pairs,
                vertical=all_pairs,
                initial_row=("a",) * width,
                final_row=("a",) * width,
                max_height=2,
            ),
        ),
        (
            "solvable-one-step",
            TilingProblem(
                width=width,
                tile_types=tiles,
                horizontal=all_pairs,
                vertical=alternating,
                initial_row=("a",) * width,
                final_row=("b",) * width,
                max_height=2,
            ),
        ),
        (
            "unsolvable-vertical",
            TilingProblem(
                width=width,
                tile_types=tiles,
                horizontal=all_pairs,
                vertical=frozenset({("a", "a"), ("b", "b")}),
                initial_row=("a",) * width,
                final_row=("b",) * width,
                max_height=3,
            ),
        ),
        (
            "unsolvable-horizontal",
            TilingProblem(
                width=width,
                tile_types=tiles,
                horizontal=alternating,
                vertical=all_pairs,
                initial_row=tuple(tiles[i % 2] for i in range(width)),
                final_row=("a",) * width,
                max_height=3,
            ),
        ),
    ]
    return tuple(problems)
