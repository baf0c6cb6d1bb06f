"""Range queries over a hierarchical leaf domain (paper §2.1.2).

A query holds one or more *range specifications*; each specification is
an inclusive interval ``[start, end]`` of leaf values.  The paper assumes
the specifications of one query are disjoint (intersecting/overlapping
pairs are split into subqueries); :class:`RangeQuery` normalizes its
inputs by sorting and coalescing overlapping or adjacent intervals, which
yields the same set of range nodes ``RN_q``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from ..errors import WorkloadError

__all__ = ["RangeSpec", "RangeQuery", "Workload"]

#: Largest range bound a query may carry.  Node spans and leaf-cost
#: prefix sums are int64 arrays, so a larger bound would overflow
#: inside the planner instead of failing here, typed.
MAX_RANGE_BOUND = 2**63 - 1


@dataclass(frozen=True, slots=True, order=True)
class RangeSpec:
    """An inclusive interval ``[start, end]`` of leaf values."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise WorkloadError(
                f"range start must be >= 0, got {self.start}"
            )
        if self.end < self.start:
            raise WorkloadError(
                f"range end {self.end} precedes start {self.start}"
            )
        if self.end > MAX_RANGE_BOUND:
            raise WorkloadError(
                f"range end {self.end} exceeds {MAX_RANGE_BOUND}"
            )

    @property
    def num_leaves(self) -> int:
        """Number of leaf values in the interval."""
        return self.end - self.start + 1

    def contains(self, leaf_value: int) -> bool:
        """Whether the leaf value falls inside the interval."""
        return self.start <= leaf_value <= self.end

    def overlap(self, lo: int, hi: int) -> int:
        """Number of leaf values shared with the span ``[lo, hi]``."""
        return max(0, min(self.end, hi) - max(self.start, lo) + 1)

    def clipped(self, lo: int, hi: int) -> "RangeSpec | None":
        """The intersection with ``[lo, hi]``, or ``None`` if empty."""
        start = max(self.start, lo)
        end = min(self.end, hi)
        if end < start:
            return None
        return RangeSpec(start, end)


class RangeQuery:
    """A range query: a normalized set of disjoint range specifications.

    The constructor coalesces overlapping and adjacent intervals, so
    ``specs`` is always sorted, disjoint, and non-adjacent — the paper's
    canonical form.
    """

    __slots__ = ("_specs", "_num_range_leaves", "_label")

    def __init__(
        self,
        specs: Iterable[RangeSpec | tuple[int, int]],
        label: str = "",
    ):
        parsed = []
        for spec in specs:
            if isinstance(spec, RangeSpec):
                parsed.append(spec)
            else:
                start, end = spec
                parsed.append(RangeSpec(int(start), int(end)))
        if not parsed:
            raise WorkloadError(
                "a range query needs at least one range specification"
            )
        parsed.sort()
        merged: list[RangeSpec] = [parsed[0]]
        for spec in parsed[1:]:
            last = merged[-1]
            if spec.start <= last.end + 1:
                merged[-1] = RangeSpec(
                    last.start, max(last.end, spec.end)
                )
            else:
                merged.append(spec)
        self._specs: tuple[RangeSpec, ...] = tuple(merged)
        self._num_range_leaves = sum(
            spec.num_leaves for spec in merged
        )
        self._label = label

    # ------------------------------------------------------------------
    @property
    def specs(self) -> tuple[RangeSpec, ...]:
        """The normalized (sorted, disjoint) range specifications."""
        return self._specs

    @property
    def label(self) -> str:
        """Optional human-readable label."""
        return self._label

    @property
    def num_range_leaves(self) -> int:
        """``|RN_q|``: number of leaf values the query selects."""
        return self._num_range_leaves

    def is_range_leaf(self, leaf_value: int) -> bool:
        """The indicator ``G_{q,leaf}`` of §2.1.2."""
        return any(
            spec.contains(leaf_value) for spec in self._specs
        )

    def range_leaves(self) -> Iterator[int]:
        """Iterate the selected leaf values in ascending order."""
        for spec in self._specs:
            yield from range(spec.start, spec.end + 1)

    def range_count_in_span(self, lo: int, hi: int) -> int:
        """Number of selected leaf values inside the span ``[lo, hi]``.

        This is the per-node quantity ``|{m in leafDesc(n): G_{q,m}=1}|``
        the cost formulas rely on.
        """
        return sum(spec.overlap(lo, hi) for spec in self._specs)

    def clipped_specs(self, lo: int, hi: int) -> list[RangeSpec]:
        """The query's intervals intersected with the span ``[lo, hi]``."""
        out = []
        for spec in self._specs:
            clipped = spec.clipped(lo, hi)
            if clipped is not None:
                out.append(clipped)
        return out

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeQuery):
            return NotImplemented
        return self._specs == other._specs

    def __hash__(self) -> int:
        return hash(self._specs)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{spec.start},{spec.end}]" for spec in self._specs
        )
        label = f" {self._label!r}" if self._label else ""
        return f"RangeQuery({parts}{label})"


class Workload(Sequence[RangeQuery]):
    """An ordered collection of range queries processed together."""

    __slots__ = ("_queries",)

    def __init__(self, queries: Iterable[RangeQuery]):
        self._queries: tuple[RangeQuery, ...] = tuple(queries)
        if not self._queries:
            raise WorkloadError("a workload needs at least one query")

    def __getitem__(self, index):
        return self._queries[index]

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[RangeQuery]:
        return iter(self._queries)

    @property
    def queries(self) -> tuple[RangeQuery, ...]:
        """The member queries, in order."""
        return self._queries

    def union_is_range_leaf(self, leaf_value: int) -> bool:
        """Whether any query in the workload selects the leaf value."""
        return any(
            query.is_range_leaf(leaf_value) for query in self._queries
        )

    def __repr__(self) -> str:
        return f"Workload({len(self._queries)} queries)"
