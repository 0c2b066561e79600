"""Command-line front end: verify / estimate / bounds / bdg / atlas.

Reports are canonical JSON (or CSV) and byte-identical for a fixed config
and seed whatever ``--workers`` is: worker functions derive every stream
from (seed, label, index) and results are merged in input order.  Exit
codes: 0 clean, 1 when an exact-mode check reports holds=false, 2 for
configuration errors.

At module level this imports only the stdlib, reports and bounds, so
``--help`` and ``bounds`` start without numpy.  Each handler and pool entry
point imports what it runs inside the function, and never binds it to a
module global: perfbench's tracer patches module attributes while it is
installed and restores them after, and a global bound in between would keep
the patched function.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import reports as rp
from .bounds import DIRECTIONS, FAMILIES, FORMULAS

VERIFY_SUITES = (
    "tangency", "levy", "contraction", "symsum", "revkol",
    "tail", "goodlambda", "davis", "extrapolation", "all",
)
# suites on random product models, which need at least two levels
PRODUCT_SUITES = ("levy", "contraction", "revkol")
# suites whose trials are checked on stacked product models
STACKED_SUITES = PRODUCT_SUITES + ("symsum",)
VERIFY_COLUMNS = ["inequality", "model", "holds", "lhs", "rhs", "margin", "method", "status"]
SEARCH_COLUMNS = ["space", "p", "direction", "ratio", "method", "samples", "seed", "witness_hash"]


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("DECOUPLING_LAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"bad DECOUPLING_LAB_SEED {env!r}") from exc
    return 0


def _positive(kind):
    """An argparse type: ``kind(text)``, which must be positive and finite."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value
    return parse


def _positive_floats(text: str) -> list[float]:
    """An argparse type: a non-empty comma-separated list of positive finite numbers."""
    values = [_positive(float)(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got no number in {text!r}")
    return values


# ---------------------------------------------------------------------------
# verify suite workers (module-level so they pickle for process pools)


def _verify_one(task: tuple) -> tuple[list[str], bool]:
    """One range of a suite's trials: its rows encoded batch by batch, with
    one encoding per batch, and whether some row has holds=false."""
    from .spaces import parse_space

    suite, space_text, p, depth, start, stop, seed, fmt = task
    space = parse_space(space_text)
    chunks, failed = [], False
    for rows in _row_batches(suite, space, p, depth, range(start, stop), seed):
        failed = failed or any(row.get("holds") is False for row in rows)
        chunks.append(rp.encode_rows(rows, fmt, VERIFY_COLUMNS))
    return chunks, failed


def _row_batches(suite: str, space, p: float, depth: int, indices, seed: int):
    """The rows of the trials, batch by batch in index order; each trial draws
    from its own stream.  A pair-suite trial is a batch of its own.  Product-
    suite trials run in batches of consecutive trials whose models enumerate
    at most BATCH_FLOATS partial-sum floats together (a model over that runs
    alone), checked one shape at a time on one stacked enumeration."""
    from . import probmodel as pm
    from .rng import stream

    if suite not in STACKED_SUITES:
        for index in indices:
            gen = stream(seed, "verify", suite, index)
            pair = pm.random_pair(gen, space, max_depth=depth,
                                  symmetric=suite != "tangency" or bool(index % 2))
            yield _pair_rows(suite, pair, p, index)
        return
    batch, floats = [], 0
    for index in indices:
        draws = _product_draws(suite, space, depth, stream(seed, "verify", suite, index))
        if batch and floats + draws[0].floats > pm.BATCH_FLOATS:
            yield _product_rows(suite, p, batch)
            batch, floats = [], 0
        batch.append((index, *draws))
        floats += draws[0].floats
    if batch:
        yield _product_rows(suite, p, batch)


def _product_draws(suite: str, space, depth: int, gen) -> tuple:
    """A product-suite trial's draws: its model, threshold factor and 0-1
    multipliers (None where the suite takes none)."""
    from . import inequalities as iq

    if suite == "symsum":
        laws = (iq.random_symmetric_law(gen, space.dim), iq.random_symmetric_law(gen, space.dim))
        return iq.ProductModel(space, laws), None, None
    model = iq.random_product_model(gen, space, levels=int(gen.integers(2, depth + 1)))
    factor = float(gen.choice([0.5, 1.0, 1.5]))
    mults = (gen.integers(0, 2, size=len(model.laws)).astype(float)
             if suite == "contraction" else None)
    return model, factor, mults


def _product_rows(suite: str, p: float, batch: list) -> list[dict]:
    """The rows of a batch of (index, model, factor, multipliers) trials, in
    index order, from one ProductStack per shape."""
    shapes: dict[tuple, list] = {}
    for trial in batch:
        shapes.setdefault(trial[1].shape, []).append(trial)
    reports = {}
    for group in shapes.values():
        reports.update(zip([trial[0] for trial in group], _product_reports(suite, p, group)))
    rows = []
    for index, *_ in batch:
        row = reports[index].as_dict()
        row["model"] = index
        rows.append(row)
    return rows


def _product_reports(suite: str, p: float, group: list) -> list:
    """The reports of trials of one shape, checked on one ProductStack."""
    import numpy as np

    from . import inequalities as iq

    indices, models, factors, mults = zip(*group)
    stack = iq.ProductStack(models)
    if suite == "symsum":
        return iq.symsum_reports(stack, p)
    ts = [(float(np.quantile(f_star, 0.7)) or 1.0) * factor
          for f_star, factor in zip(stack.f_star, factors)]
    if suite == "levy":
        return iq.levy_reports(stack, ts, [("max-sum", "max-term")[i % 2] for i in indices])
    if suite == "contraction":
        return iq.contraction_reports(stack, mults, ts)
    return iq.reverse_kolmogorov_reports(stack, ts, p)


def _pair_rows(suite: str, pair, p: float, index: int) -> list[dict]:
    """The rows of trial ``index`` of a suite on a tangent pair."""
    import numpy as np

    from . import inequalities as iq
    from . import probmodel as pm

    if suite == "tangency":
        checks = zip(("tangency", "conditional-independence"), pm.verify_tangent_pair(pair))
        rows = [{"inequality": label, "holds": res.ok, "lhs": res.gap, "rhs": 0.0,
                 "margin": -res.gap, "method": "exact", "detail": res.detail}
                for label, res in checks]
    elif suite == "tail":
        ts = sorted(set(float(x) for x in np.quantile(pair.seq.d_star, [0.25, 0.5, 0.9])))
        rows = [rep.as_dict() for rep in iq.check_tail_comparison(pair, ts)]
    elif suite == "goodlambda":
        b = 0.5
        rows = [rep.as_dict() for rep in
                iq.check_goodlambda(pair, p, A=iq.calibrated_A(pair, p, b), b=b)]
    elif suite == "davis":
        rows = [iq.check_davis_pathwise(pair).as_dict()]
    elif suite == "extrapolation":
        rows = [iq.check_extrapolation(pair, p, q=2.0).as_dict()]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    for row in rows:
        row["model"] = index
    return rows


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    suites = VERIFY_SUITES[:-1] if args.suite == "all" else (args.suite,)
    product_suites = [s for s in suites if s in PRODUCT_SUITES]
    if args.depth < 2 and product_suites:
        raise ValueError(f"--depth must be at least 2 for the {', '.join(product_suites)} suites")
    # one range of trials per suite and worker
    size = -(-args.trials // args.workers)
    tasks = [
        (suite, args.space, args.p, args.depth, start, min(start + size, args.trials), seed,
         args.format)
        for suite in suites
        for start in range(0, args.trials, size)
    ]
    results = rp.pmap(_verify_one, tasks, workers=args.workers)
    config = {
        "command": "verify", "suite": args.suite, "space": args.space,
        "p": args.p, "depth": args.depth, "trials": args.trials,
    }
    report = rp.envelope("verify", config, [], seed=seed, method="exact")
    _write(args, report, [chunk for chunks, _ in results for chunk in chunks], VERIFY_COLUMNS)
    return 1 if any(failed for _, failed in results) else 0


# ---------------------------------------------------------------------------
# other subcommands


def _cmd_estimate(args) -> int:
    from .constants import search_worst_case
    from .spaces import parse_space

    seed = _resolve_seed(args.seed)
    space = parse_space(args.space)
    est = search_worst_case(
        space, args.p, direction=args.direction, family=args.family,
        budget=args.trials, restarts=args.restarts, seed=seed, depth=args.depth,
    )
    config = {
        "command": "estimate", "space": args.space, "p": args.p,
        "direction": args.direction, "family": args.family,
        "budget": args.trials, "restarts": args.restarts, "depth": args.depth,
    }
    report = rp.envelope("estimate", config, [], seed=seed, method=est.method)
    _write_rows(args, report, [est.as_dict()], SEARCH_COLUMNS)
    return 0


def _cmd_bounds(args) -> int:
    seed = _resolve_seed(args.seed)
    fn, wanted = FORMULAS[args.formula]
    supplied = {
        "p": args.p, "q": args.q, "A": args.A, "b": args.b, "r": args.r,
        "d": args.d, "d_const": args.d_const, "scalar_const": args.d_const,
    }
    kwargs = {}
    for name in wanted:
        value = supplied.get(name)
        if value is None:
            raise ValueError(
                f"formula {args.formula} needs --{name.replace('_', '-')}"
            )
        kwargs[name] = int(value) if name == "d" else value
    bound = fn(**kwargs)
    config = {"command": "bounds", "formula": args.formula, "params": kwargs}
    report = rp.envelope("bounds", config, [], seed=seed, method="closed-form")
    _write_rows(args, report, [bound.as_dict()],
                ["formula", "value", "expression", "applies", "condition"])
    return 0


def _cmd_bdg(args) -> int:
    from . import stochint as st
    from .spaces import parse_space

    seed = _resolve_seed(args.seed)
    space = parse_space(args.space)
    driver_dim = space.dim if args.driver_dim is None else args.driver_dim
    driver = st.BrownianDriver(dim=driver_dim, horizon=args.horizon, steps=args.steps)
    rows = st.bdg_sweep(space, args.p, args.family, driver, args.samples, seed=seed)
    config = {
        "command": "bdg", "space": args.space, "p": args.p, "family": args.family,
        "steps": args.steps, "horizon": args.horizon,
        "driver_dim": driver.dim, "paths": args.samples,
    }
    report = rp.envelope("bdg", config, [], seed=seed, method="mc", samples=args.samples)
    _write_rows(args, report, rows, [
        "p", "family", "kappa", "kappa_over_p", "sup_moment", "gamma_moment",
        "terminal_moment", "status",
    ])
    return 0


def _atlas_cell(task: tuple) -> dict:
    from .constants import search_worst_case
    from .spaces import parse_space

    space_text, p, direction, family, budget, restarts, depth, seed = task
    space = parse_space(space_text)
    est = search_worst_case(
        space, p, direction=direction, family=family,
        budget=budget, restarts=restarts, seed=seed, depth=depth,
    )
    row = est.as_dict()
    del row["witness"], row["evaluations"]
    return row


def _cmd_atlas(args) -> int:
    from .spaces import parse_space, split_spaces

    seed = _resolve_seed(args.seed)
    spaces = split_spaces(args.spaces)
    if not spaces:
        raise ValueError(f"--spaces names no space: {args.spaces!r}")
    for text in spaces:
        parse_space(text)
    tasks = [
        (space, p, args.direction, args.family, args.trials, args.restarts, args.depth, seed)
        for space in spaces
        for p in args.ps
    ]
    rows = rp.pmap(_atlas_cell, tasks, workers=args.workers)
    config = {
        "command": "atlas", "spaces": spaces, "ps": args.ps,
        "direction": args.direction, "family": args.family,
        "budget": args.trials, "restarts": args.restarts, "depth": args.depth,
    }
    report = rp.envelope("atlas", config, [], seed=seed, method="exact")
    _write_rows(args, report, rows, SEARCH_COLUMNS)
    return 0


# ---------------------------------------------------------------------------
# plumbing


def _require_writable(path: str):
    """Refuse an --out path that cannot be written, before the command runs."""
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if not os.path.isdir(folder) or os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ValueError(f"cannot write --out {path!r}")


def _write(args, report: dict, chunks: list[str], columns: list[str]):
    """Write ``report`` with the rows that ``chunks`` encode (rp.encode_rows)
    as its results, once every row is encoded."""
    try:
        out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    with out as handle:
        rp.write_report(handle, report, chunks, args.format, columns)


def _write_rows(args, report: dict, rows: list[dict], columns: list[str]):
    _write(args, report, [rp.encode_rows(rows, args.format, columns)], columns)


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (env DECOUPLING_LAB_SEED, then 0)")
    sub.add_argument("--workers", type=_positive(int), default=os.cpu_count() or 1,
                     help="worker processes, at most one per task")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoupling-lab",
        description="verification laboratory for martingale decoupling at desk scale",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    v = subs.add_parser("verify", help="run inequality suites on randomized finite models")
    v.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    v.add_argument("--space", default="l2:4")
    v.add_argument("--p", type=_positive(float), default=2.0)
    v.add_argument("--depth", type=_positive(int), default=3)
    v.add_argument("--trials", type=_positive(int), default=50)
    _add_common(v)
    v.set_defaults(fn=_cmd_verify)

    e = subs.add_parser("estimate", help="search model families for large observed ratios")
    e.add_argument("--space", required=True)
    e.add_argument("--p", type=_positive(float), default=2.0)
    e.add_argument("--direction", choices=DIRECTIONS, default="decouple-upper")
    e.add_argument("--family", choices=sorted(FAMILIES), default="paley-walsh-multipliers")
    e.add_argument("--depth", type=_positive(int), default=3)
    e.add_argument("--trials", type=_positive(int), default=400, help="search evaluation budget")
    e.add_argument("--restarts", type=_positive(int), default=4)
    _add_common(e)
    e.set_defaults(fn=_cmd_estimate)

    b = subs.add_parser("bounds", help="evaluate closed-form constants")
    b.add_argument("--formula", choices=sorted(FORMULAS), required=True)
    b.add_argument("--p", type=float, default=None)
    b.add_argument("--q", type=float, default=None)
    b.add_argument("--A", type=float, default=None)
    b.add_argument("--b", type=float, default=None)
    b.add_argument("--r", type=float, default=1.0)
    b.add_argument("--d", type=int, default=None)
    b.add_argument("--d-const", dest="d_const", type=float, default=1.0)
    _add_common(b)
    b.set_defaults(fn=_cmd_bounds)

    g = subs.add_parser("bdg", help="Monte Carlo BDG ratio experiments")
    g.add_argument("--space", default="l2:4")
    g.add_argument("--p", type=_positive(float), nargs="+", default=[1.0, 2.0, 4.0, 8.0])
    g.add_argument("--family", choices=("deterministic", "rotating", "adapted-sign"),
                   default="adapted-sign")
    g.add_argument("--samples", type=_positive(int), default=20000, help="simulated paths")
    g.add_argument("--steps", type=_positive(int), default=64)
    g.add_argument("--horizon", type=_positive(float), default=1.0)
    g.add_argument("--driver-dim", dest="driver_dim", type=_positive(int), default=None)
    _add_common(g)
    g.set_defaults(fn=_cmd_bdg)

    a = subs.add_parser("atlas", help="ratio sweep over a space x p grid")
    a.add_argument("--spaces", default="l2:2,l2:4,linf:2,linf:4")
    a.add_argument("--ps", type=_positive_floats, default="1,2,4")
    a.add_argument("--direction", choices=DIRECTIONS, default="decouple-upper")
    a.add_argument("--family", choices=sorted(FAMILIES), default="paley-walsh-multipliers")
    a.add_argument("--depth", type=_positive(int), default=3)
    a.add_argument("--trials", type=_positive(int), default=120, help="search budget per cell")
    a.add_argument("--restarts", type=_positive(int), default=2)
    _add_common(a)
    a.set_defaults(fn=_cmd_atlas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _require_writable(args.out)
        return args.fn(args)
    except ValueError as exc:  # SpaceError, ModelError and EnumerationError among them
        print(f"decoupling-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
