"""Deterministic report serialization and the worker pool.

Reports must be byte-identical for identical configs regardless of worker
count, so everything funnels through one canonical JSON encoding: sorted
keys, no whitespace, NaN forbidden, numpy types coerced to plain Python.
"""

from __future__ import annotations

import functools
import io
import json
import sys

from . import __version__


def _coerce(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    # a numpy object means numpy is loaded: reports never imports it itself
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_coerce
    )


def config_hash(obj) -> str:
    import hashlib  # loaded with the first report: --help never writes one

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
    output is byte-identical whatever ``workers`` is; a pool worker runs under
    the caller's numpy error state, which a spawned worker would not inherit.
    The pool is capped at the item count because a fork-started pool launches
    all of its processes at the first submit.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

    np = sys.modules.get("numpy")
    fn = fn if np is None else functools.partial(_under_errstate, np.geterr(), fn)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _under_errstate(state: dict, fn, item):
    """fn(item) under numpy's error state ``state``, in a pool worker."""
    import numpy as np
    with np.errstate(**state):
        return fn(item)


def encode_rows(rows: list[dict], fmt: str, columns: list[str]) -> str:
    """A batch of report rows as text, in one encoding call: the items of a
    canonical JSON list (no brackets) or CSV lines of ``columns`` (no header).
    Batches of one report join with "," (JSON) or nothing (CSV)."""
    if fmt == "csv":
        import csv  # only --format csv writes CSV

        buffer = io.StringIO()
        csv.DictWriter(buffer, fieldnames=columns, extrasaction="ignore").writerows(rows)
        return buffer.getvalue()
    return canonical_json(rows)[1:-1]


def write_report(handle, report: dict, chunks, fmt: str, columns: list[str]):
    """Write a report whose rows are the encoded batches ``chunks``.

    JSON gives ``canonical_json`` of the report with those rows as its
    results, and a newline; CSV gives the header and the rows.  Each chunk is
    written as it is, so the rows are never joined into one string.  Open
    files with newline="".
    """
    if fmt == "csv":
        import csv

        csv.DictWriter(handle, fieldnames=columns).writeheader()
        for chunk in chunks:
            handle.write(chunk)
        return
    text = canonical_json({**report, "results": []})
    # keys sort, and the keys after "results" (samples, seed, tool, version)
    # hold numbers and plain strings, so the last match is the report's own
    cut = text.rindex('"results":[') + len('"results":[')
    handle.write(text[:cut])
    sep = ""
    for chunk in chunks:
        if chunk:
            handle.write(sep)
            handle.write(chunk)
            sep = ","
    handle.write(text[cut:] + "\n")
