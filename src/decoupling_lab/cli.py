"""Command-line front end: verify / estimate / bounds / bdg / atlas.

Reports are canonical JSON (or CSV) and byte-identical for a fixed config
and seed whatever ``--workers`` is: worker functions derive every stream
from (seed, label, index) and results are merged in input order.  Exit
codes: 0 clean, 1 when an exact-mode check reports holds=false, 2 for
configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import constants as ct
from . import inequalities as iq
from . import probmodel as pm
from . import reports as rp
from . import stochint as st
from .rng import stream
from .spaces import SpaceError, parse_space, split_spaces

VERIFY_SUITES = (
    "tangency", "levy", "contraction", "symsum", "revkol",
    "tail", "goodlambda", "davis", "extrapolation", "all",
)
# suites on random product models, which need at least two levels
PRODUCT_SUITES = ("levy", "contraction", "revkol")


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
        if not 0 < value < np.inf:
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


def _verify_one(task: tuple) -> list[dict]:
    suite, space_text, p, depth, index, seed = task
    space = parse_space(space_text)
    gen = stream(seed, "verify", suite, index)
    if suite == "tangency":
        pair = pm.random_pair(gen, space, max_depth=depth, symmetric=bool(index % 2))
        checks = (("tangency", pm.verify_tangency(pair)),
                  ("conditional-independence", pm.verify_conditional_independence(pair)))
        rows = [{"inequality": label, "holds": res.ok, "lhs": res.gap, "rhs": 0.0,
                 "margin": -res.gap, "method": "exact", "detail": res.detail}
                for label, res in checks]
    else:
        rows = [rep.as_dict() for rep in _suite_reports(suite, space, p, depth, index, gen)]
    for row in rows:
        row["model"] = index
    return rows


def _suite_reports(suite: str, space, p: float, depth: int, index: int, gen) -> list:
    """The inequality reports of one trial of a suite other than tangency."""
    if suite in PRODUCT_SUITES:
        model = iq.random_product_model(gen, space, levels=int(gen.integers(2, depth + 1)))
        seq = model.to_sequence()
        sups = seq.space.norms(seq.partial_sums).max(axis=1)
        scale = float(np.quantile(sups, 0.7)) or 1.0
        t = scale * float(gen.choice([0.5, 1.0, 1.5]))
        if suite == "levy":
            return [iq.check_levy(model, t, variant=("max-sum", "max-term")[index % 2])]
        if suite == "contraction":
            mults = gen.integers(0, 2, size=len(model.laws)).astype(float)
            return [iq.check_contraction(model, mults, t)]
        return [iq.check_reverse_kolmogorov(model, t, p)]
    if suite == "symsum":
        xi = iq.random_symmetric_law(gen, space.dim)
        zeta = iq.random_symmetric_law(gen, space.dim)
        return [iq.check_symsum(space, xi, zeta, p)]
    pair = pm.random_pair(gen, space, max_depth=depth, symmetric=True)
    if suite == "tail":
        ts = sorted(set(float(x) for x in np.quantile(pair.seq.d_star, [0.25, 0.5, 0.9])))
        return iq.check_tail_comparison(pair, ts)
    if suite == "goodlambda":
        b = 0.5
        return iq.check_goodlambda(pair, p, A=iq.calibrated_A(pair, p, b), b=b)
    if suite == "davis":
        return [iq.check_davis_pathwise(pair)]
    if suite == "extrapolation":
        return [iq.check_extrapolation(pair, p, q=2.0)]
    raise ValueError(f"unknown suite {suite!r}")


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    suites = VERIFY_SUITES[:-1] if args.suite == "all" else (args.suite,)
    product_suites = [s for s in suites if s in PRODUCT_SUITES]
    if args.depth < 2 and product_suites:
        raise ValueError(f"--depth must be at least 2 for the {', '.join(product_suites)} suites")
    tasks = [
        (suite, args.space, args.p, args.depth, index, seed)
        for suite in suites
        for index in range(args.trials)
    ]
    results = rp.pmap(_verify_one, tasks, workers=args.workers)
    rows = [row for batch in results for row in batch]
    config = {
        "command": "verify", "suite": args.suite, "space": args.space,
        "p": args.p, "depth": args.depth, "trials": args.trials,
    }
    report = rp.envelope("verify", config, rows, seed=seed, method="exact")
    _write(args, report, rows, columns=[
        "inequality", "model", "holds", "lhs", "rhs", "margin", "method", "status",
    ])
    return 1 if any(r.get("holds") is False for r in rows) else 0


# ---------------------------------------------------------------------------
# other subcommands


def _cmd_estimate(args) -> int:
    seed = _resolve_seed(args.seed)
    space = parse_space(args.space)
    est = ct.search_worst_case(
        space, args.p, direction=args.direction, family=args.family,
        budget=args.trials, restarts=args.restarts, seed=seed, depth=args.depth,
    )
    config = {
        "command": "estimate", "space": args.space, "p": args.p,
        "direction": args.direction, "family": args.family,
        "budget": args.trials, "restarts": args.restarts, "depth": args.depth,
    }
    rows = [est.as_dict()]
    report = rp.envelope("estimate", config, rows, seed=seed, method=est.method)
    _write(args, report, rows, columns=[
        "space", "p", "direction", "ratio", "method", "samples", "seed", "witness_hash",
    ])
    return 0


def _cmd_bounds(args) -> int:
    seed = _resolve_seed(args.seed)
    fn, wanted = ct.FORMULAS[args.formula]
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
    rows = [bound.as_dict()]
    config = {"command": "bounds", "formula": args.formula, "params": kwargs}
    report = rp.envelope("bounds", config, rows, seed=seed, method="closed-form")
    _write(args, report, rows, columns=["formula", "value", "expression", "applies", "condition"])
    return 0


def _cmd_bdg(args) -> int:
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
    report = rp.envelope("bdg", config, rows, seed=seed, method="mc", samples=args.samples)
    _write(args, report, rows, columns=[
        "p", "family", "kappa", "kappa_over_p", "sup_moment", "gamma_moment",
        "terminal_moment", "status",
    ])
    return 0


def _atlas_cell(task: tuple) -> dict:
    space_text, p, direction, family, budget, restarts, depth, seed = task
    space = parse_space(space_text)
    est = ct.search_worst_case(
        space, p, direction=direction, family=family,
        budget=budget, restarts=restarts, seed=seed, depth=depth,
    )
    row = est.as_dict()
    del row["witness"], row["evaluations"]
    return row


def _cmd_atlas(args) -> int:
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
    report = rp.envelope("atlas", config, rows, seed=seed, method="exact")
    _write(args, report, rows, columns=[
        "space", "p", "direction", "ratio", "method", "samples", "seed", "witness_hash",
    ])
    return 0


# ---------------------------------------------------------------------------
# plumbing


def _require_writable(path: str):
    """Refuse an --out path that cannot be written, before the command runs."""
    folder = os.path.dirname(path) or "."
    target = path if os.path.exists(path) else folder
    if not os.path.isdir(folder) or os.path.isdir(path) or not os.access(target, os.W_OK):
        raise ValueError(f"cannot write --out {path!r}")


def _write(args, report: dict, rows: list[dict], columns: list[str]):
    try:
        out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    with out as handle:
        if args.format == "csv":
            rp.write_csv(handle, rows, columns)
        else:
            handle.write(rp.canonical_json(report) + "\n")


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
    e.add_argument("--direction", choices=ct.DIRECTIONS, default="decouple-upper")
    e.add_argument("--family", choices=sorted(ct.FAMILIES), default="paley-walsh-multipliers")
    e.add_argument("--depth", type=_positive(int), default=3)
    e.add_argument("--trials", type=_positive(int), default=400, help="search evaluation budget")
    e.add_argument("--restarts", type=_positive(int), default=4)
    _add_common(e)
    e.set_defaults(fn=_cmd_estimate)

    b = subs.add_parser("bounds", help="evaluate closed-form constants")
    b.add_argument("--formula", choices=sorted(ct.FORMULAS), required=True)
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
    a.add_argument("--direction", choices=ct.DIRECTIONS, default="decouple-upper")
    a.add_argument("--family", choices=sorted(ct.FAMILIES), default="paley-walsh-multipliers")
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
    except (SpaceError, pm.ModelError, pm.EnumerationError, ValueError) as exc:
        print(f"decoupling-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
