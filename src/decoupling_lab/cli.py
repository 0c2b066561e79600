"""Command-line front end: verify / estimate / bounds / bdg / atlas.

Reports are canonical JSON (or CSV) and byte-identical for a fixed config
and seed whatever ``--workers`` is: worker functions derive every stream
from (seed, label, index) and results are merged in input order.  Exit
codes: 0 clean, 1 when an exact-mode check reports holds=false, 2 for
configuration errors and refusals, one stderr line each.  Only main silences
numpy's float warnings (its pool workers inherit that); the checks refuse
what is not finite.  A run with more than one worker loads numpy with
OMP_NUM_THREADS=1 unless it is set: BLAS threads in every pool process
oversubscribe the cores (bdg's Monte Carlo gamma norms are BLAS products).

At module level this imports only the stdlib and names (the parser's
choices), so ``--help`` compiles no other module of the package.  Each
handler, pool entry point and writer imports what it runs inside the
function (reports among them), and never binds it to a module global:
perfbench's tracer patches module attributes while it is installed and
restores them after, and a global bound in between would keep the patched
function.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from .names import DIRECTIONS, FAMILIES, FORMULA_PARAMS

VERIFY_SUITES = (
    "tangency", "levy", "contraction", "symsum", "revkol",
    "tail", "goodlambda", "davis", "extrapolation", "all",
)
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
# verify


def _verify_one(task: tuple) -> tuple[list[str], bool]:
    """One range of a suite's trials, encoded (inequalities.verify_trials): the
    pool's entry point, module-level so that it pickles."""
    from .inequalities import verify_trials

    return verify_trials(*task, VERIFY_COLUMNS)


def _cmd_verify(args) -> int:
    from . import reports as rp
    from .inequalities import PRODUCT_SUITES

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


def _search(space_text, p, direction, family, budget, restarts, depth, seed):
    """search_worst_case on the space ``space_text``: one estimate or atlas cell."""
    from .constants import search_worst_case
    from .spaces import parse_space

    return search_worst_case(parse_space(space_text), p, direction=direction, family=family,
                             budget=budget, restarts=restarts, seed=seed, depth=depth)


def _cmd_estimate(args) -> int:
    from . import reports as rp

    seed = _resolve_seed(args.seed)
    est = _search(args.space, args.p, args.direction, args.family, args.trials, args.restarts,
                  args.depth, seed)
    config = {
        "command": "estimate", "space": args.space, "p": args.p,
        "direction": args.direction, "family": args.family,
        "budget": args.trials, "restarts": args.restarts, "depth": args.depth,
    }
    report = rp.envelope("estimate", config, [], seed=seed, method=est.method)
    _write_rows(args, report, [est.as_dict()], SEARCH_COLUMNS)
    return 0


def _cmd_bounds(args) -> int:
    from . import reports as rp
    from .bounds import FORMULAS

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
    from . import reports as rp
    from . import stochint as st
    from .spaces import parse_space

    seed = _resolve_seed(args.seed)
    space = parse_space(args.space)
    driver_dim = space.dim if args.driver_dim is None else args.driver_dim
    driver = st.BrownianDriver(dim=driver_dim, horizon=args.horizon, steps=args.steps)
    _admit_bdg(args, space, driver)
    rows = st.bdg_sweep(space, args.p, args.family, driver, args.samples, seed=seed,
                        workers=args.workers)
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


def _admit_bdg(args, space, driver):
    """Refuse a bdg run over stochint's budgets before anything is drawn,
    naming the flag at fault: --steps when the families' intervals outnumber
    the grid steps, --samples for the per-path results, else the larger of
    one path's coefficients (--space) and increments (--steps or
    --driver-dim, whichever is larger)."""
    from . import stochint as st

    try:
        proc = st.make_family(args.family, space, driver)
    except st.ModelError as exc:
        raise st.ModelError(f"--steps {driver.steps}: {exc}") from None
    try:
        st.block_paths(proc, driver, space, args.samples)
    except st.ModelError as exc:
        increments, coefficients = st.path_floats(proc, driver)
        if 3 * args.samples > st.JOINT_LIMIT:
            flag = f"--samples {args.samples}"
        elif coefficients >= increments:
            flag = f"--space {args.space}"
        elif driver.dim > driver.steps:
            flag = f"--driver-dim {driver.dim}"
        else:
            flag = f"--steps {driver.steps}"
        raise st.ModelError(f"{flag}: {exc}") from None


def _atlas_cell(task: tuple) -> dict:
    row = _search(*task).as_dict()
    del row["witness"], row["evaluations"]
    return row


def _cmd_atlas(args) -> int:
    from . import reports as rp
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
    from . import reports as rp

    try:
        out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    with out as handle:
        rp.write_report(handle, report, chunks, args.format, columns)


def _write_rows(args, report: dict, rows: list[dict], columns: list[str]):
    from . import reports as rp

    _write(args, report, [rp.encode_rows(rows, args.format, columns)], columns)


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (env DECOUPLING_LAB_SEED, then 0)")
    sub.add_argument("--workers", type=_positive(int), default=os.cpu_count() or 1,
                     help="worker processes, at most one per task")
    sub.add_argument("--out", default=None, help="output file (default stdout)")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _add_search(sub, budget: int, budget_help: str, restarts: int):
    """The search flags of estimate and atlas (one search per cell), then the common ones."""
    sub.add_argument("--direction", choices=DIRECTIONS, default="decouple-upper")
    sub.add_argument("--family", choices=sorted(FAMILIES), default="paley-walsh-multipliers")
    sub.add_argument("--depth", type=_positive(int), default=3)
    sub.add_argument("--trials", type=_positive(int), default=budget, help=budget_help)
    sub.add_argument("--restarts", type=_positive(int), default=restarts)
    _add_common(sub)


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
    _add_search(e, 400, "search evaluation budget", 4)
    e.set_defaults(fn=_cmd_estimate)

    b = subs.add_parser("bounds", help="evaluate closed-form constants")
    b.add_argument("--formula", choices=sorted(FORMULA_PARAMS), required=True)
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
    _add_search(a, 120, "search budget per cell", 2)
    a.set_defaults(fn=_cmd_atlas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out:
            _require_writable(args.out)
        if args.command == "bounds":  # runs without numpy
            return args.fn(args)
        if args.workers > 1:  # pool processes share the cores: one BLAS thread each
            os.environ.setdefault("OMP_NUM_THREADS", "1")
        import numpy as np
        with np.errstate(all="ignore"):
            return args.fn(args)
    except ValueError as exc:  # SpaceError, ModelError and EnumerationError among them
        print(f"decoupling-lab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
