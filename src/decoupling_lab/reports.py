"""Deterministic report serialization and the worker pool.

Reports must be byte-identical for identical configs regardless of worker
count, so everything funnels through one canonical JSON encoding: sorted
keys, no whitespace, NaN forbidden, numpy types coerced to plain Python.
"""

from __future__ import annotations

import csv
import hashlib
import json
from fractions import Fraction

import numpy as np

from . import __version__


def _coerce(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_coerce
    )


def config_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def envelope(kind: str, config: dict, results, *, seed: int, method: str, samples: int = 0) -> dict:
    """Wrap results with enough metadata to reproduce them."""
    return {
        "tool": "decoupling-lab",
        "version": __version__,
        "kind": kind,
        "config": config,
        "config_hash": config_hash(config),
        "seed": seed,
        "method": method,
        "samples": samples,
        "results": results,
    }


def pmap(fn, items, workers: int = 1):
    """Order-preserving map, optionally across at most one process per item.

    Results come back in input order either way, so a report built from the
    output is byte-identical whatever ``workers`` is.  The pool is capped at
    the item count because a fork-started pool launches all of its processes
    at the first submit.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def write_csv(handle, rows: list[dict], columns: list[str]):
    """CSV rows to an open text handle (opened with newline="" for files)."""
    writer = csv.DictWriter(handle, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
