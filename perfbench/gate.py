"""Correctness gate for the reports the benchmark's jobs print.

Every job's stdout is a canonical JSON envelope.  A job fails the gate on a
non-zero exit, an envelope that does not parse or whose ``config_hash`` does
not recompute, any exact-mode row with ``holds=false``, or a mismatch:

* at the reference seed, exact numbers (ratios, bounds, inequality sides)
  must match the pinned reference to 1e-12 relative, and BDG moments must lie
  within 5 combined standard errors of it (so a reseeding of the Monte Carlo
  is measurable, not a failure);
* at every seed, the seed-independent invariants: each ``estimate`` witness
  replays to its reported ratio to 1e-12, ``atlas`` cells on l2 at p = 2 have
  ratio 1 (the Hilbert identity), closed-form bounds match the reference,
  and every moment is finite and positive.

The reference is ``reference.json.gz`` beside this file, written by
``run.py --pin`` from the reference seed.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json.gz"
REFERENCE_SEED = 0
REL_TOL = 1e-12
BDG_SIGMAS = 5.0
MOMENTS = ("sup", "gamma", "terminal")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def job_key(argv) -> str:
    return " ".join(argv)


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    if not path.is_file():
        return {}
    return json.loads(gzip.decompress(path.read_bytes()))["reports"]


def write_reference(reports: dict, path: Path = REFERENCE_PATH):
    doc = {"seed": REFERENCE_SEED, "reports": reports}
    path.write_bytes(gzip.compress(canonical_json(doc).encode(), mtime=0))


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _close(a: float, b: float, rel: float = REL_TOL, scale: float = 0.0) -> bool:
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b), scale)


def _diff(ref, got, path: str, out: list, scale: float = 0.0):
    """Append the paths where ``got`` differs from ``ref`` beyond REL_TOL."""
    if len(out) >= 5:
        return
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            out.append(f"{path}: keys {sorted(set(ref) ^ set(got))} differ")
            return
        # margin = rhs - lhs can cancel; judge it on the scale of its sides
        sides = [abs(ref[k]) for k in ("lhs", "rhs") if _is_number(ref.get(k))]
        for key in sorted(ref):
            inner = max(sides, default=0.0) if key == "margin" else 0.0
            _diff(ref[key], got[key], f"{path}.{key}", out, inner)
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{path}: length {len(got)} != {len(ref)}")
            return
        for i, (a, b) in enumerate(zip(ref, got)):
            _diff(a, b, f"{path}[{i}]", out)
    elif _is_number(ref) and _is_number(got):
        if not _close(float(ref), float(got), scale=scale):
            out.append(f"{path}: {got!r} != reference {ref!r}")
    elif ref != got:
        out.append(f"{path}: {got!r} != reference {ref!r}")


def _bdg_diff(ref_rows: list, rows: list) -> list[str]:
    if len(ref_rows) != len(rows):
        return [f"bdg: {len(rows)} rows != reference {len(ref_rows)}"]
    out = []
    for i, (ref, row) in enumerate(zip(ref_rows, rows)):
        if (ref["p"], ref["family"], ref["paths"]) != (row["p"], row["family"], row["paths"]):
            out.append(f"results[{i}]: p/family/paths differ from the reference")
            continue
        for name in MOMENTS:
            a, b = ref[f"{name}_moment"], row[f"{name}_moment"]
            se = math.hypot(ref.get(f"{name}_se", 0.0), row.get(f"{name}_se", 0.0))
            if abs(a - b) > BDG_SIGMAS * se + REL_TOL * max(abs(a), abs(b)):
                out.append(f"results[{i}].{name}_moment: {b!r} is more than "
                           f"{BDG_SIGMAS:g} combined SE from reference {a!r}")
    return out


def _finite_positive(x) -> bool:
    return _is_number(x) and math.isfinite(x) and x > 0


class Gate:
    """Checks job reports; a verdict is cached per (job, seed, bytes)."""

    def __init__(self, reference: dict | None = None):
        self.reference = load_reference() if reference is None else reference
        self._verdicts: dict = {}

    def check(self, argv, seed: int, returncode: int, stdout: bytes) -> list[str]:
        """Problems with one job's output; an empty list means it passed."""
        memo = (job_key(argv), seed, returncode, hashlib.sha256(stdout).digest())
        if memo not in self._verdicts:
            try:
                self._verdicts[memo] = self._check(argv, seed, returncode, stdout)
            except Exception as exc:  # a report the checks cannot even read fails
                self._verdicts[memo] = [f"malformed report: {type(exc).__name__}: {exc}"]
        return self._verdicts[memo]

    def _check(self, argv, seed, returncode, stdout) -> list[str]:
        if returncode != 0:
            return [f"exit code {returncode}"]
        report = json.loads(stdout, parse_constant=_reject_constant)
        problems = []
        kind = argv[0]
        if report.get("kind") != kind or report.get("tool") != "decoupling-lab":
            problems.append(f"envelope kind/tool {report.get('kind')!r}/{report.get('tool')!r}")
        if report.get("seed") != seed:
            problems.append(f"envelope seed {report.get('seed')!r} != {seed}")
        config = report.get("config")
        expected = hashlib.sha256(canonical_json(config).encode()).hexdigest()
        if report.get("config_hash") != expected:
            problems.append("config_hash does not recompute")
        rows = report["results"]
        if not rows:
            problems.append("no result rows")
        for i, row in enumerate(rows):
            if row.get("method", "exact") == "exact" and row.get("holds") is False:
                problems.append(f"results[{i}] {row.get('inequality')}: holds=false")
        if not problems:
            problems += getattr(self, f"_invariants_{kind}")(config, rows)
        ref = self.reference.get(job_key(argv))
        if ref is not None and (seed == REFERENCE_SEED or kind == "bounds") and not problems:
            if kind == "bdg":
                problems += _bdg_diff(ref["results"], rows)
            else:
                diffs: list = []
                _diff(ref["results"], rows, "results", diffs)
                problems += diffs
        return problems

    # -- seed-independent invariants, one method per subcommand -----------------

    def _invariants_verify(self, config, rows):
        return []

    def _invariants_bounds(self, config, rows):
        return [f"bound value {row.get('value')!r} is not finite and positive"
                for row in rows if not _finite_positive(row.get("value"))]

    def _invariants_estimate(self, config, rows):
        from decoupling_lab import constants

        out = []
        for i, row in enumerate(rows):
            witness = row["witness"]
            digest = hashlib.sha256(canonical_json(witness).encode()).hexdigest()[:16]
            if row["witness_hash"] != digest:
                out.append(f"results[{i}]: witness_hash does not match the witness")
            if not 1 <= row["evaluations"] <= max(1, config["budget"]):
                out.append(f"results[{i}]: {row['evaluations']} evaluations outside the budget")
            replayed = constants.ratio(constants.replay_witness(witness), row["p"], row["direction"])
            if not (_finite_positive(row["ratio"]) and _close(replayed, row["ratio"])):
                out.append(f"results[{i}]: witness replays to {replayed!r}, "
                           f"report says {row['ratio']!r}")
        return out

    def _invariants_atlas(self, config, rows):
        out = []
        if len(rows) != len(config["spaces"]) * len(config["ps"]):
            out.append(f"{len(rows)} atlas cells for a {len(config['spaces'])}x"
                       f"{len(config['ps'])} grid")
        for i, row in enumerate(rows):
            if not _finite_positive(row["ratio"]):
                out.append(f"results[{i}]: ratio {row['ratio']!r}")
            hilbert = row["space"].startswith("l2:") and row["p"] == 2.0
            if hilbert and row["direction"].startswith("decouple") and not _close(row["ratio"], 1.0):
                out.append(f"results[{i}]: l2 ratio at p=2 is {row['ratio']!r}, not 1")
        return out

    def _invariants_bdg(self, config, rows):
        out = []
        if len(rows) != len(config["p"]):
            out.append(f"{len(rows)} bdg rows for {len(config['p'])} exponents")
        for i, row in enumerate(rows):
            values = [row.get(f"{m}_moment") for m in MOMENTS] + [row.get("kappa")]
            errors = [row.get(f"{m}_se") for m in MOMENTS]
            if row.get("status") != "ok" or not all(map(_finite_positive, values)):
                out.append(f"results[{i}]: moments {values!r} not finite and positive")
            if not all(_is_number(e) and math.isfinite(e) and e >= 0 for e in errors):
                out.append(f"results[{i}]: standard errors {errors!r}")
        return out


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")
