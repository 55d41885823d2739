"""Router interface shared by every distribution scheme."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.records import Record


@dataclass(frozen=True)
class RoutingDecision:
    """Where one record must go.

    ``index_tasks`` are the join tasks that must add the record to
    their local index; ``probe_tasks`` are the tasks that must probe
    their index with it. A task appearing in both receives a single
    combined message (probe first, then index — the order that makes
    each pair reported exactly once by its later-arriving member).
    """

    index_tasks: Tuple[int, ...]
    probe_tasks: Tuple[int, ...]

    @property
    def message_count(self) -> int:
        """Messages this decision ships (combined targets pay once)."""
        return len(set(self.index_tasks) | set(self.probe_tasks))


class Router:
    """Maps records to routing decisions for ``num_workers`` join tasks."""

    #: Short scheme label used in reports ("length", "prefix", …).
    name: str = "abstract"

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers

    def route(self, record: Record) -> RoutingDecision:
        raise NotImplementedError

    def prepare(self, records: Sequence[Record]) -> None:
        """Precompute what :meth:`route` needs for a block of records
        about to be routed, in arrival order. A pure speed hook: routing
        decisions never depend on it. Only the band scheme does work
        here."""

    #: Work units the dispatcher should charge per routed record, on
    #: top of the cost model's flat ``route_record``; schemes that hash
    #: prefix tokens override this.
    def routing_units(self, record: Record, cost) -> float:
        return 0.0

    def describe(self) -> str:
        return f"{self.name}(k={self.num_workers})"
