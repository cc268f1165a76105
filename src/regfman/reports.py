"""Residual reports.

Every ``check_*`` operation returns a :class:`ResidualReport`: a mapping from
residual names to the measured value together with the jet order at which the
value is trustworthy.  Verdicts are always derived from a report plus an
explicit tolerance, never hidden inside the computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Residual:
    """A single named residual: its value and the effective jet order."""

    value: float
    order: int

    def __repr__(self):
        return f"Residual({self.value:.3e}, order={self.order})"


class ResidualReport(Mapping[str, Residual]):
    """Ordered, immutable collection of named residuals."""

    def __init__(self, entries: Iterable[tuple[str, Residual]] = ()):
        self._entries: dict[str, Residual] = dict(entries)

    def __getitem__(self, key: str) -> Residual:
        return self._entries[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def max_value(self) -> float:
        """Largest residual (0 for an empty report)."""
        return max((r.value for r in self._entries.values()), default=0.0)

    def passes(self, tolerance: float = DEFAULT_TOLERANCE) -> bool:
        return self.max_value() <= tolerance

    def worst(self) -> tuple[str, Residual]:
        return max(self._entries.items(), key=lambda kv: kv[1].value)

    def merged(self, other: "ResidualReport", prefix: str = "") -> "ResidualReport":
        items = list(self._entries.items())
        items += [(prefix + k, v) for k, v in other.items()]
        return ResidualReport(items)

    def to_dict(self) -> dict[str, dict[str, float | int]]:
        return {
            k: {"value": float(r.value), "order": int(r.order)}
            for k, r in self._entries.items()
        }

    def __repr__(self):
        body = ", ".join(f"{k}={r.value:.3e}@{r.order}" for k, r in self._entries.items())
        return f"ResidualReport({body})"


def report_from(pairs: Iterable[tuple[str, float, int]]) -> ResidualReport:
    return ResidualReport((name, Residual(float(v), int(o))) for name, v, o in pairs)
