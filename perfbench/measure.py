"""Pure helpers: quantiles, the tail-sample rule and output digests."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation (numpy's default)."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the interpolation position of quantile ``q``."""
    return n - 1 - math.floor(q * (n - 1))


def tail_percentile(n: int) -> Optional[int]:
    """Highest whole percentile up to 99 with ``MIN_BEYOND`` samples
    beyond it, or ``None`` when even the median has fewer."""
    for percent in range(99, 49, -1):
        if samples_beyond(n, percent / 100.0) >= MIN_BEYOND:
            return percent
    return None


# -- output digests ------------------------------------------------------


def canonical(value: Any) -> Any:
    """A JSON-able form of an experiment payload that pins every bit.

    Floats become ``float.hex`` (so ``-0.0`` and ``0.0`` stay distinct
    and every NaN reads ``nan``), mappings become key-sorted pair lists,
    and each scalar is tagged with its kind so a string can never
    collide with a float or an int.  Unknown types raise ``TypeError``
    rather than being digested by ``repr``.
    """
    if value is None:
        return None
    if isinstance(value, (bool, np.bool_)):
        return ["b", bool(value)]
    if isinstance(value, (int, np.integer)):
        return ["i", str(int(value))]
    if isinstance(value, (float, np.floating)):
        return ["f", float(value).hex()]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, enum.Enum):
        return ["e", type(value).__name__, value.name]
    if isinstance(value, np.ndarray):
        return ["a", str(value.dtype), list(value.shape), canonical(value.tolist())]
    if isinstance(value, dict):
        pairs = [
            (json.dumps(canonical(key), separators=(",", ":")), canonical(item))
            for key, item in value.items()
        ]
        return ["d", sorted(pairs, key=lambda pair: pair[0])]
    if isinstance(value, (list, tuple)):
        return ["l", [canonical(item) for item in value]]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return ["c", type(value).__name__, canonical(fields)]
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def digest(value: Any) -> str:
    """SHA-256 of :func:`canonical` ``value``."""
    text = json.dumps(canonical(value), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- summaries -----------------------------------------------------------


def latency_summary(samples_s: Sequence[float]) -> Tuple[float, float, int, int]:
    """``(p50_ms, tail_ms, tail_percent, n)`` of latency samples in seconds.

    Raises ``ValueError`` when there are too few samples for any tail.
    """
    n = len(samples_s)
    percent = tail_percentile(n)
    if percent is None:
        raise ValueError(f"{n} samples leave no percentile with {MIN_BEYOND} beyond it")
    return (
        quantile(samples_s, 0.5) * 1e3,
        quantile(samples_s, percent / 100.0) * 1e3,
        percent,
        n,
    )


def median_of(records: List[Dict[str, Any]], key: str) -> float:
    """Median of ``key`` over repetition records."""
    return statistics.median(record[key] for record in records)
