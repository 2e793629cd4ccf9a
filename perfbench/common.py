"""Shared pieces of the workloads: seeded streams, quantiles, op accounting."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

#: Stream ids mixed into the run seed, one per kind of generated input.
KEY_STREAM, BITS_STREAM, ENCRYPT_STREAM, SESSION_STREAM = 0, 1, 2, 3


def stream(seed: int, *ids: int) -> np.random.Generator:
    """A generator determined by the run seed and a stream path."""
    return np.random.default_rng([int(seed), *map(int, ids)])


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def own_peak_rss_mib() -> float:
    """High-water RSS of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Tally:
    """Operations attempted and failed, with the reason of every failure kind."""

    attempted: int = 0
    failed: int = 0
    #: Set false when an output that did not fail breaks a checked property.
    correct: bool = True
    reasons: Dict[str, int] = field(default_factory=dict)

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def broken(self, reason: str) -> None:
        self.correct = False
        self.reasons[reason] = self.reasons.get(reason, 0) + 1


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
