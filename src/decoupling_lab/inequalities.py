"""Distributional and moment inequalities for finite adapted sequences.

Every checker returns an :class:`IneqReport` rather than a bare bool so that
callers (tests, the CLI, the atlas) can record the two sides, the margin and
the method actually used.  Every check enumerates its finite model exactly,
and every verdict is decided by one rule, :func:`_one_sided`.

Every verify suite runs through one route, verify_trials: a suite gives only
its draw, its shape key, its float counts and its reports (_reports), and
verify_trials windows, groups, stacks and encodes its trials.  A refusal
gives the error of the first trial, in index order, that fails alone.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .probmodel import (
    BATCH_FLOATS,
    AdaptedSequence,
    EnumerationError,
    FiltrationTree,
    JOINT_LIMIT,
    LAW_TOL,
    Level,
    ModelError,
    PairStack,
    PathStack,
    TangentPair,
    davis_tables,
    distinct,
    pair_floats,
    quantiles,
    random_pair,
    symmetry_gaps,
    verify_tangent_pair,
)
from .reports import encode_rows
from .rng import stream
from .spaces import Space, format_space, lu_constants, parse_space


class PhiError(ValueError):
    """A moment functional failed its declared growth contract."""


@dataclass(frozen=True)
class IneqReport:
    """Outcome of a single inequality check.

    ``margin`` is rhs - lhs for one-sided bounds (negative means violated);
    ``status`` is "vacuous" when the bound holds for trivial reasons, e.g. a
    nonpositive right-hand side in a lower estimate.
    """

    inequality: str
    params: dict
    lhs: float
    rhs: float
    holds: bool
    margin: float
    method: str = "exact"
    samples: int = 0
    seed: int | None = None
    status: str = "ok"
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        # field by field: dataclasses.asdict deep-copies params and extra
        out = {name: getattr(self, name) for name in _REPORT_FIELDS}
        out["params"], out["extra"] = dict(self.params), dict(self.extra)
        # numpy scalars confuse canonical JSON
        for key in ("lhs", "rhs", "margin"):
            out[key] = float(out[key])
        return out


_REPORT_FIELDS = tuple(f.name for f in dataclasses.fields(IneqReport))


def _one_sided(inequality: str, params: dict, lhs, rhs, lower: bool = False,
               scaled: bool = False, status: str = "ok", extra: dict | None = None) -> IneqReport:
    """The report of lhs <= rhs (lhs >= rhs when lower): the module's one verdict rule.

    The margin is rhs - lhs (lhs - rhs when lower) and the check holds when
    margin >= -slack.  The slack is 1e-12 on unit-free sides (probabilities and
    their ratios) and 1e-12 * max(|lhs|, |rhs|) on sides that scale with the
    model (``scaled``: moments and norms), so an exact 2^k rescaling of a model
    never moves a verdict.  lhs and rhs may be aligned arrays of sides: the
    report gives their first element of least margin, and holds only when every
    element holds.  A side or a float parameter that is not finite has no
    verdict: ModelError (_finite).
    """
    _finite(inequality, params.items())
    if isinstance(lhs, (int, float)):
        lhs, rhs = float(lhs), float(rhs)
        finite = math.isfinite(lhs) and math.isfinite(rhs)
        size = max(abs(lhs), abs(rhs))
    else:
        lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
        finite = bool(np.isfinite(lhs).all() and np.isfinite(rhs).all())
        size = np.maximum(np.abs(lhs), np.abs(rhs))
    if not finite:
        raise ModelError(f"{inequality}: a side is not finite, so the check has no verdict")
    margin = lhs - rhs if lower else rhs - lhs
    holds = margin >= -1e-12 * (size if scaled else 1.0)
    if isinstance(margin, np.ndarray):
        i = int(np.argmin(margin))
        holds, lhs, rhs, margin = bool(holds.all()), float(lhs[i]), float(rhs[i]), float(margin[i])
    return IneqReport(inequality=inequality, params=params, lhs=lhs, rhs=rhs, holds=holds,
                      margin=margin, status=status, extra={} if extra is None else extra)


def _finite(inequality: str, params):
    """_one_sided's parameter rule: a float among (name, value) pairs that is not finite."""
    for key, value in params:
        if isinstance(value, float) and not math.isfinite(value):
            raise ModelError(f"{inequality}: parameter {key}={value:g} is not finite, "
                             "so the check has no verdict")


def _r_constant(inequality: str, space: Space, value: Callable[[], float],
                p: float | None = None) -> float:
    """``value()``, a constant of the check ``inequality`` that depends on the
    r-normability exponent of ``space`` (and on p, when given): the module's
    one rule for them.  A constant that overflows, divides by zero or is not
    a positive finite float (u_{p/r} once p/r passes about 1024, the davis
    cap at r = 1e-300, beta once rho = min(r, p) is small) leaves the check
    without a verdict: ModelError naming the check, the space, r and p."""
    try:
        out = value()
    except ArithmeticError:
        out = math.nan
    if not 0.0 < out < math.inf:
        at = "" if p is None else f", p={p:g}"
        raise ModelError(f"{inequality}: its r-normability constant is not a positive finite "
                         f"float on {format_space(space)} (r={space.r:g}{at})")
    return out


# ---------------------------------------------------------------------------
# moment functionals


@dataclass(frozen=True)
class MomentFunctional:
    """A nonnegative nondecreasing Phi with Phi(st) <= s^q Phi(t) for s >= 1.

    The growth contract is checked on a log-spaced sample grid at
    construction time; a functional whose actual growth exceeds the declared
    exponent raises :class:`PhiError` immediately.
    """

    fn: Callable[[float], float]
    q: float
    name: str = "phi"

    def __post_init__(self):
        if self.q <= 0:
            raise PhiError("growth exponent must be positive")
        if abs(self.fn(0.0)) > 1e-300:
            raise PhiError(f"{self.name}: Phi(0) must be 0")
        ts = np.concatenate(([0.0], np.logspace(-6, 6, 49)))
        vals = np.array([self.fn(t) for t in ts])
        if np.any(vals < -1e-300):
            raise PhiError(f"{self.name}: Phi must be nonnegative")
        if np.any(np.diff(vals) < -1e-12 * np.maximum(vals[1:], 1.0)):
            raise PhiError(f"{self.name}: Phi must be nondecreasing")
        for s in np.logspace(0, 6, 25):
            scaled = np.array([self.fn(s * t) for t in ts])
            cap = s ** self.q * vals
            if np.any(scaled > cap * (1 + 1e-9) + 1e-300):
                raise PhiError(
                    f"{self.name}: Phi(st) > s^{self.q} Phi(t) at s={s:.3g}"
                )

    def __call__(self, t):
        if np.ndim(t) == 0:
            return self.fn(float(t))
        # tolist gives the Python floats that float() gives of each element;
        # fromiter holds no list of the results
        values = np.ravel(np.asarray(t, dtype=float)).tolist()
        return np.fromiter(map(self.fn, values), dtype=float, count=len(values)).reshape(
            np.shape(t))


@functools.lru_cache(maxsize=64)
def power(q: float) -> MomentFunctional:
    """t^q; one instance per q, so its growth contract is checked once."""
    return MomentFunctional(lambda t: t ** q, q, name=f"power({q:g})")


def power_log(q: float) -> MomentFunctional:
    """t^(q-1) log(1+t); genuinely non-power but of growth order q."""
    if q < 1:
        raise PhiError("power_log needs q >= 1")
    return MomentFunctional(
        lambda t: t ** (q - 1.0) * math.log1p(t), q, name=f"power_log({q:g})"
    )


# ---------------------------------------------------------------------------
# product models (independent finite-law sums)


@dataclass(frozen=True)
class ProductModel:
    """Sum of independent increments, each with its own finite law.

    The laws are the levels of the model's filtration tree: scalar atoms on a
    one-dimensional space, or (size, dim) vector atoms.
    """

    space: Space
    laws: tuple[Level, ...]

    def __post_init__(self):
        for law in self.laws:
            if law.values.reshape(law.size, -1).shape[1] != self.space.dim:
                raise ModelError("law dimension does not match space")

    @property
    def outcome_count(self) -> int:
        return math.prod(law.size for law in self.laws)

    @property
    def shape(self) -> tuple[int, ...]:
        """The atom count of each law; models of one shape share their outcome space."""
        return tuple(law.size for law in self.laws)

    @property
    def floats(self) -> int:
        """The admission bound of the model's enumeration: outcomes x (levels
        + 1) x dim floats, f_0..f_N at every path.  Its stack holds f_n once
        per depth-n node, less than this; verify's windows and every
        JOINT_LIMIT refusal count by this bound."""
        return self.outcome_count * (len(self.laws) + 1) * self.space.dim

    def require_enumerable(self):
        """EnumerationError when the admission bound (floats) exceeds JOINT_LIMIT."""
        if self.floats > JOINT_LIMIT:
            raise EnumerationError(f"product model needs {self.floats} partial-sum "
                                   f"floats, over budget {JOINT_LIMIT}")

    def to_sequence(self) -> AdaptedSequence:
        """The model as an adapted sequence on the tree whose levels are its laws
        (each law's atoms broadcast over its parents, as in ProductStack.tables);
        a model over the budget is refused before anything is allocated."""
        self.require_enumerable()
        tables = [np.broadcast_to(law.values.reshape(law.size, -1),
                                  (math.prod(self.shape[:n]), law.size, self.space.dim))
                  for n, law in enumerate(self.laws)]
        return AdaptedSequence(FiltrationTree(self.laws), self.space, tables)


class ProductStack(PathStack):
    """Product models of one space and shape, enumerated as one PathStack.

    Models of one shape share their outcome space, the paths of their tree
    (the first model's).  Each check reduces one model's contiguous slab at
    a time.  A model whose admission bound (ProductModel.floats) exceeds
    JOINT_LIMIT is refused before anything is allocated.
    """

    def __init__(self, models: Sequence[ProductModel]):
        self.models = tuple(models)
        first = self.models[0]
        for model in self.models:
            if model.space != first.space or model.shape != first.shape:
                raise ModelError("stacked product models need one space and one shape")
            model.require_enumerable()
        # PathStack's fields but its tables and masses, which are built on first use
        self.tree, self.space = FiltrationTree(first.laws), first.space

    @functools.cached_property
    def level_probs(self) -> list[np.ndarray]:
        """Per level, the laws' masses (models, atoms)."""
        return [np.stack([m.laws[n].probs for m in self.models]) for n in range(len(self.sizes))]

    @functools.cached_property
    def tables(self) -> tuple[np.ndarray, ...]:
        """Every level is independent of the past: its laws' atoms (models,
        atoms, dim) as a broadcast view over the parents."""
        return tuple(np.broadcast_to(
            np.stack([m.laws[n].values.reshape(size, -1) for m in self.models])[:, None],
            (len(self.models), self.tree.num_nodes(n), size, self.space.dim))
            for n, size in enumerate(self.sizes))

    def require_symmetric(self, levels: Sequence[int], message: str):
        """ModelError(message) unless every model's laws at these levels
        (0-based) are symmetric: one symmetry_gaps call per level."""
        for n in levels:
            if (symmetry_gaps(self.tables[n][:, 0], self.level_probs[n]) > LAW_TOL).any():
                raise ModelError(message)


# ---------------------------------------------------------------------------
# distributional bounds for independent symmetric sums
#
# Each bound is checked on a ProductStack, one report per model; the
# check_* functions are its stack of one.

SYMMETRIC_LAWS = "increment laws must be symmetric for this bound"


def check_levy(model: ProductModel, t: float, variant: str = "max-sum") -> IneqReport:
    """P(max ||S_k|| > t) <= 2 P(||S_n|| > 2^(1-1/r) t) for an independent symmetric sum.

    ``variant`` picks the running-max of partial sums ("max-sum") or of the
    individual terms ("max-term"); both hold with the same constants.
    """
    return levy_reports(ProductStack((model,)), [t], [variant])[0]


def levy_reports(stack: ProductStack, ts: Sequence[float],
                 variants: Sequence[str]) -> list[IneqReport]:
    """check_levy of each model of the stack, at its own t and variant."""
    for variant in variants:
        if variant not in ("max-sum", "max-term"):
            raise ValueError(f"unknown variant {variant!r}")
    stack.require_symmetric(range(len(stack.sizes)), SYMMETRIC_LAWS)
    r = stack.space.r
    factor = _r_constant("levy", stack.space, lambda: 2.0 ** (1.0 - 1.0 / r))
    terminal, probs = stack.node_norms[-1], stack.path_probs
    d_star = stack.d_star if "max-term" in variants else None
    reports = []
    for i, (t, variant) in enumerate(zip(ts, variants)):
        thresh = factor * t
        stat = stack.f_star[i] if variant == "max-sum" else d_star[i]
        lhs = float(probs[i][stat > t].sum())
        rhs = 2.0 * float(probs[i][terminal[i] > thresh].sum())
        reports.append(_one_sided(f"levy-{variant}", {"t": t, "r": r, "atoms": 1}, lhs, rhs))
    return reports


def check_contraction(model: ProductModel, multipliers: Sequence[float], t: float) -> IneqReport:
    """Zero-one contraction: dropping terms costs at most the Levy constant.

    The kept sub-sum is f_N of the model whose laws are scaled by the 0-1
    multipliers, on the model's own tree.
    """
    return contraction_reports(ProductStack((model,)), [multipliers], [t])[0]


def contraction_reports(stack: ProductStack, multipliers: Sequence[Sequence[float]],
                        ts: Sequence[float]) -> list[IneqReport]:
    """check_contraction of each model of the stack, with its own multipliers and t."""
    stack.require_symmetric(range(len(stack.sizes)), SYMMETRIC_LAWS)
    factor = _r_constant("contraction-01", stack.space,
                         lambda: 2.0 ** (1.0 - 1.0 / stack.space.r))
    rows = []
    for model, row in zip(stack.models, multipliers):
        mults = [float(m) for m in row]
        if len(mults) != len(model.laws):
            raise ModelError("need one multiplier per increment")
        if any(m not in (0.0, 1.0) for m in mults):
            raise ModelError("contraction multipliers must be 0 or 1")
        rows.append(mults)
    probs, kept = stack.path_probs, np.array(rows)
    sub = PathStack(stack.tree, stack.space, [table * kept[:, n, None, None, None]
                                              for n, table in enumerate(stack.tables)],
                    stack.level_probs)
    sub_norms = stack.space.norms(sub.terminal)
    terminal = stack.node_norms[-1]
    reports = []
    for i, (mults, t) in enumerate(zip(rows, ts)):
        thresh = factor * t
        lhs = float(probs[i][sub_norms[i] > t].sum())
        rhs = 2.0 * float(probs[i][terminal[i] > thresh].sum())
        reports.append(_one_sided("contraction-01", {"t": t, "multipliers": mults, "atoms": 1},
                                  lhs, rhs))
    return reports


def check_symsum(space: Space, xi: Level, zeta: Level, p: float) -> IneqReport:
    """E||xi||^p <= 2^(1-p) u_{p/r} E||xi + zeta||^p for independent symmetric zeta."""
    # zeta's symmetry, tested once, comes before the model's dimension checks
    if not zeta.is_symmetric():
        raise ModelError("zeta must be symmetric")
    return _symsum(ProductStack((ProductModel(space, (xi, zeta)),)), p)[0]


def symsum_reports(stack: ProductStack, p: float) -> list[IneqReport]:
    """check_symsum of each two-law model (xi, zeta) of the stack."""
    stack.require_symmetric([1], "zeta must be symmetric")
    return _symsum(stack, p)


def _symsum(stack: ProductStack, p: float) -> list[IneqReport]:
    """The symsum reports of a stack whose zetas are symmetric."""
    space, probs = stack.space, stack.path_probs
    upper = _r_constant("symmetric-summand", space, lambda: lu_constants(p / space.r)[1], p)
    # ||f_1|| = ||d_1||: f_1 = 0.0 + d_1 differs from d_1 at most in the sign of a zero
    norms = stack.node_norms
    first = np.repeat(norms[1], stack.tree.stride(1), axis=-1) ** p
    total = norms[-1] ** p
    return [_one_sided("symmetric-summand", {"p": p, "r": space.r}, float(first[i] @ probs[i]),
                       2.0 ** (1.0 - p) * upper * float(total[i] @ probs[i]), scaled=True)
            for i in range(len(stack.models))]


def check_reverse_kolmogorov(model: ProductModel, t: float, p: float) -> IneqReport:
    """Lower tail bound for the running max of an independent symmetric sum.

    P(max ||S_k|| > t) >= 2^(p-1) [u_{p/r}^{-2} - (t^p + E max||xi_k||^p) / E||S_n||^p].
    Vacuous (and trivially true) when the sum is a.s. zero.
    """
    return reverse_kolmogorov_reports(ProductStack((model,)), [t], p)[0]


def reverse_kolmogorov_reports(stack: ProductStack, ts: Sequence[float],
                               p: float) -> list[IneqReport]:
    """check_reverse_kolmogorov of each model of the stack, at its own t."""
    stack.require_symmetric(range(len(stack.sizes)), SYMMETRIC_LAWS)
    r = stack.space.r
    upper = _r_constant("reverse-kolmogorov", stack.space, lambda: lu_constants(p / r)[1], p)
    probs = stack.path_probs
    terminal = stack.node_norms[-1] ** p
    star = stack.d_star ** p
    reports = []
    for i, t in enumerate(ts):
        denom = float(terminal[i] @ probs[i])
        if denom <= 0:
            reports.append(_one_sided("reverse-kolmogorov", {"t": t, "p": p}, 0.0, 0.0,
                                      lower=True, status="vacuous"))
            continue
        lhs = float(probs[i][stack.f_star[i] > t].sum())
        try:
            t_p = t ** p
        except OverflowError:  # past the floats, so the side is not finite
            t_p = math.inf
        rhs = 2.0 ** (p - 1.0) * (upper ** -2.0 - (t_p + float(star[i] @ probs[i])) / denom)
        reports.append(_one_sided("reverse-kolmogorov", {"t": t, "p": p, "r": r, "atoms": 1},
                                  lhs, rhs, lower=True))
    return reports


# ---------------------------------------------------------------------------
# tail comparison between a sequence and its decoupled companion
#
# Each pair check runs on a PairStack, with each model's reports in stack
# order; the check_* functions are its stack of one.


def check_tail_comparison(pair: TangentPair, ts: Sequence[float]) -> list[IneqReport]:
    """Two-sided tail equivalence of the running maxes d* and e*.

    For every threshold t both directions are checked:
    P(e* > t) <= 2 P(d* > t) and P(d* > t) <= 2 P(e* > t).
    """
    return tail_reports(pair.stack, [ts])[0]


def tail_reports(stack: PairStack, tss: Sequence[Sequence[float]]) -> list[list[IneqReport]]:
    """check_tail_comparison of each model of the stack, at its own thresholds."""
    probs, d_star = stack.path_probs, stack.d_star
    d_mass = [{t: float(probs[i][d_star[i] > t].sum()) for t in ts} for i, ts in enumerate(tss)]
    # one running sum per distinct threshold, however often ts repeats it
    e_mass = [dict.fromkeys(ts, 0.0) for ts in tss]
    for weights, stats in stack.joint_blocks(("e_star",)):
        for i, masses in enumerate(e_mass):
            for t in masses:
                masses[t] += float(weights[i][stats["e_star"][i] > t].sum())
    out = []
    for ts, d, e in zip(tss, d_mass, e_mass):
        reports = []
        for t in ts:
            reports.append(_one_sided("tail-e-by-d", {"t": t}, e[t], 2.0 * d[t]))
            reports.append(_one_sided("tail-d-by-e", {"t": t}, d[t], 2.0 * e[t]))
        out.append(reports)
    return out


# ---------------------------------------------------------------------------
# the conditional p-norm of windows, its running sup, and the BMO profile


def window_conditional_norm(pair: TangentPair, p: float, k: int, l: int) -> np.ndarray:
    """T_p of the window (k, l]: one value per depth-(l-1) node (read-only).

    T_p(f over (k,l]) at an atom is (E[ ||sum_{k<m<=l} e_m||^p | F_inf ])^(1/p);
    in the frozen-table model the conditional law is the product of the table
    rows along the atom's history, so this is a finite sum.  The value is read
    from the window table at p of the pair's stack, which builds every window
    once.
    """
    if pair.mode != "decoupled":
        raise ModelError("conditional window norms need a decoupled pair")
    if not 0 <= k < l <= pair.seq.depth:
        raise ModelError(f"bad window ({k}, {l}]")
    return pair.stack.window_table(p).norms[k, l][0]


@dataclass(frozen=True)
class BmoProfile:
    """Worst-case window statistics of the pair at parameter A.

    b_hat is the largest conditional probability, over start/stop levels and
    conditioning atoms, of the window norm exceeding A times the sup of the
    window's conditional p-norm; d_hat is the corresponding worst ratio of
    p-th moments (independent of A).
    """

    p: float
    A: float
    b_hat: float
    d_hat: float


def bmo_condition(pair: TangentPair, p: float, A: float) -> BmoProfile:
    """The window profile at threshold A, read from the window table of the pair's stack."""
    return bmo_profiles(pair.stack, p, [A])[0]


def bmo_profiles(stack: PairStack, p: float, As: Sequence[float]) -> list[BmoProfile]:
    """bmo_condition of each model of the stack, at its own A.

    An atom's conditional probability of win > A t_sup is its masked mass
    over its mass, one masked sum per atom and model as it runs alone; an
    atom where every path or none is over takes 1.0 or 0.0, which that
    division gives exactly.
    """
    table = stack.window_table(p)
    A = np.array(As, dtype=float)[:, None]
    pconds = []
    for win, probs, mass, t_sup in table.atoms.values():
        over = win > (A * t_sup)[:, :, None]
        count = over.sum(axis=2)
        pcond = (count == over.shape[2]).astype(float)
        for i, b in zip(*np.nonzero((count > 0) & (count < over.shape[2]) & (mass > 0))):
            pcond[i, b] = float(probs[i, b][over[i, b]].sum()) / mass[i, b]
        pconds.append(np.where(mass > 0, pcond, 0.0).max(axis=1))
    return [BmoProfile(p=p, A=a, b_hat=float(b_hat), d_hat=d_hat)
            for a, b_hat, d_hat in zip(As, np.max(pconds, axis=0), table.d_hat)]


def _calibrated(stack: PairStack, p: float, b: float,
                inequality: str = "goodlambda") -> list[float]:
    """The threshold A at which each model's window profile certifies smallness b.

    Chebyshev: P(win > A T_sup | atom) <= (d_hat / A)^p, so A = b^(-1/p) d_hat
    certifies level b for any pair with finite window ratios (A = 1 when
    d_hat = 0).  Where d_hat is not finite (the space's norms overflow, or p
    is large) or b^(-1/p) overflows (p near 0) the check ``inequality`` has
    no threshold: ModelError naming it and p, and the space for d_hat.
    """
    d_hats = stack.window_table(p).d_hat
    if not all(map(math.isfinite, d_hats)):
        raise ModelError(f"{inequality}: the window moment ratio d_hat is not finite at "
                         f"p={p:g} on {format_space(stack.space)}")
    try:
        As = [d_hat * b ** (-1.0 / p) if d_hat else 1.0 for d_hat in d_hats]
    except OverflowError:
        As = [math.inf]
    if all(map(math.isfinite, As)):
        return As
    raise ModelError(f"{inequality}: the calibrated threshold A = d_hat b^(-1/p) "
                     f"overflows at p={p:g} (b={b:g})")


def check_goodlambda(
    pair: TangentPair,
    p: float,
    A: float,
    b: float,
    lambdas: Sequence[float] | None = None,
    delta: float = 0.2,
) -> list[IneqReport]:
    """Good-lambda estimates linking f*, the conditional norm sup and d*.

    Requires the window profile to certify b_hat < b first.  beta is derived
    from (A, delta) through beta^rho = 1 + (2 A^rho + 1) delta^rho with
    rho = min(r, p).  Both inequality variants are checked at each lambda:
    the weak-threshold form P(f* >= beta L, side < delta L) <= b P(f* > L)
    and the strict form P(f* > beta L, side <= delta L) <= b P(f* > L).
    """
    return goodlambda_reports(pair.stack, p, [A], b, lambdas, delta)[0]


def goodlambda_reports(stack: PairStack, p: float, As: Sequence[float] | None, b: float,
                       lambdas: Sequence[float] | None = None,
                       delta: float = 0.2) -> list[list[IneqReport]]:
    """check_goodlambda of each model of the stack, at its own A (_calibrated
    when As is None).  A model's events at every lambda are one array, and
    each masked sum is taken on its own."""
    rho = min(stack.space.r, p)
    As = _calibrated(stack, p, b) if As is None else As
    profiles = bmo_profiles(stack, p, As)
    sides = np.maximum(stack.window_table(p).norm_star, stack.d_star)
    out = []
    for A, profile, f_star, side, probs in zip(As, profiles, stack.f_star, sides,
                                               stack.path_probs):
        beta = _r_constant("goodlambda", stack.space,
                           lambda: (1.0 + (2.0 * A ** rho + 1.0) * delta ** rho) ** (1.0 / rho), p)
        params = {"p": p, "A": A, "b": b, "beta": beta, "delta": delta, "rho": rho,
                  "b_hat": profile.b_hat}
        if profile.b_hat >= b:
            # smallness certificate failed; the estimate is not applicable here
            out.append([_one_sided(name, dict(params), 0.0, 0.0, status="not-applicable")
                        for name in ("goodlambda-geq-lt", "goodlambda-gt-leq")])
            continue
        grid = lambdas
        if grid is None:
            pos = distinct(f_star[f_star > 0])
            if pos.size == 0:
                grid = [1.0]
            else:
                grid = sorted(set(x / beta for x in quantiles(pos, np.linspace(0.05, 0.95, 7))))
        _finite("goodlambda", [("lambda", lam) for lam in grid])
        lams = np.array(grid, dtype=float)[:, None]
        rhs = [b * float(probs[over].sum()) for over in f_star > lams]
        reports = []
        for name, hits in (
            ("goodlambda-geq-lt", (f_star >= beta * lams) & (side < delta * lams)),
            ("goodlambda-gt-leq", (f_star > beta * lams) & (side <= delta * lams)),
        ):
            rows = [{"lambda": float(lam), "lhs": float(probs[hit].sum()), "rhs": tail}
                    for lam, hit, tail in zip(grid, hits, rhs)]
            reports.append(_one_sided(name, dict(params), [r["lhs"] for r in rows],
                                      [r["rhs"] for r in rows], extra={"grid": rows}))
        out.append(reports)
    return out


# ---------------------------------------------------------------------------
# Phi-moment comparisons


def moment_phi(pair: TangentPair, phi: MomentFunctional, statistic: str) -> float:
    """E Phi(statistic), exact.  statistic is f_star (f*) or g_norm (||g_N||)."""
    return phi_moments(pair.stack, phi, statistic)[0]


def phi_moments(stack: PairStack, phi: MomentFunctional, statistic: str) -> list[float]:
    """moment_phi of each model of the stack: each model's sums over its own
    contiguous slabs, as for it alone."""
    if statistic == "f_star":
        return [float(row @ probs) for row, probs in zip(phi(stack.f_star), stack.path_probs)]
    if statistic != "g_norm":
        raise ValueError(f"unknown statistic {statistic!r}")
    totals = [0.0] * len(stack.tables[0])
    for weights, stats in stack.joint_blocks(("g_norm",)):
        for i, g_norm in enumerate(stats["g_norm"]):
            totals[i] += float(np.sum(weights[i] * phi(g_norm)))
    return totals


@functools.lru_cache(maxsize=1024)
def _extrapolation_value(p: float, q: float, A: float, b: float, r: float) -> float:
    """extrapolation_constant(...).value, evaluated once per distinct arguments.
    bounds is loaded here: of the verify suites, only extrapolation reads it."""
    from .bounds import extrapolation_constant

    return extrapolation_constant(p, q, A, b, r).value


def check_extrapolation(
    pair: TangentPair,
    p: float,
    q: float,
    phi: MomentFunctional | None = None,
    b: float | None = None,
    A: float | None = None,
) -> IneqReport:
    """E Phi(f*) <= C E Phi(||g||) with C from the window profile certificate.

    The pair must satisfy the smallness certificate b_hat <= b for the chosen
    (A, b); by default b is half the admissible threshold and A is calibrated
    from the pair's own (A-independent) d_hat via Chebyshev, so any pair with
    finite windows can be certified at some cost in the constant.
    """
    return extrapolation_reports(pair.stack, p, q, phi, b, None if A is None else [A])[0]


def extrapolation_reports(stack: PairStack, p: float, q: float,
                          phi: MomentFunctional | None = None, b: float | None = None,
                          As: Sequence[float] | None = None) -> list[IneqReport]:
    """check_extrapolation of each model of the stack, at its own A
    (_calibrated when As is None)."""
    r = stack.space.r
    rho = min(r, p)
    phi = power(q) if phi is None else phi
    if phi.q != q:
        raise PhiError("declared growth exponent must match q")
    threshold = _r_constant("extrapolated-phi-domination", stack.space,
                            lambda: 2.0 ** (-2.0 * p / rho + p - 1.0), p)
    if b is None:
        b = threshold / 2.0
    if not 0 < b < threshold:
        raise ModelError(f"b must lie in (0, {threshold:.6g})")
    As = _calibrated(stack, p, b, "extrapolated-phi-domination") if As is None else As
    profiles = bmo_profiles(stack, p, As)
    for A, profile in zip(As, profiles):
        if profile.b_hat > b:
            raise ModelError(
                f"certificate failed: b_hat={profile.b_hat:.6g} > b={b:.6g} at A={A:.6g}"
            )
    consts = [_extrapolation_value(p, q, A, b, r) for A in As]
    f_moments = phi_moments(stack, phi, "f_star")
    g_moments = phi_moments(stack, phi, "g_norm")
    return [_one_sided("extrapolated-phi-domination",
                       {"p": p, "q": q, "A": A, "b": b, "rho": rho, "b_hat": profile.b_hat,
                        "d_hat": profile.d_hat, "constant": const, "phi": phi.name},
                       f_moment, const * g_moment, scaled=True)
            for A, profile, const, f_moment, g_moment
            in zip(As, profiles, consts, f_moments, g_moments)]


def random_symmetric_law(gen, dim: int, atoms: int = 2) -> Level:
    """Symmetric finitely supported law: random atoms paired with negations."""
    alphabet = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    rows = alphabet[gen.integers(0, alphabet.size, size=(atoms, dim))]
    weights = gen.integers(1, 4, size=atoms).astype(float)
    weights /= 2.0 * weights.sum()
    return Level(np.vstack([rows, -rows]), np.concatenate([weights, weights]))


def random_product_model(gen, space: Space, levels: int = 3, atoms: int = 2) -> ProductModel:
    laws = tuple(random_symmetric_law(gen, space.dim, atoms) for _ in range(levels))
    return ProductModel(space, laws)


def check_davis_pathwise(pair: TangentPair) -> IneqReport:
    """Pathwise control of the large-jump part of the Davis split.

    Each large jump more than doubles the running max, so large-jump norms
    along a path grow at least geometrically and the sum is dominated by the
    final running max: ||f''_N||^r <= (1 - 2^-r)^-1 (d*_N)^r with r the
    normability exponent.
    """
    return davis_reports(pair.stack)[0]


def davis_reports(stack: PairStack) -> list[IneqReport]:
    """check_davis_pathwise of each model of the stack."""
    space = stack.space
    r = space.r
    cap = _r_constant("davis-large-part-pathwise", space, lambda: (1.0 - 2.0 ** (-r)) ** -1.0)
    _, big = davis_tables(stack)
    large = PathStack(stack.tree, space, big, stack.level_probs)
    lhs = space.norms(large.terminal) ** r
    rhs = cap * stack.d_star ** r
    # one pair of sides per path; the report gives the path of least margin
    return [_one_sided("davis-large-part-pathwise", {"r": r, "cap": cap}, lhs[i], rhs[i],
                       scaled=True) for i in range(len(lhs))]


# ---------------------------------------------------------------------------
# verify's trial route

# Trials a window holds at most, whatever their floats: a trial's objects
# (trees, laws, sequences) outweigh a small trial's table floats.
BATCH_TRIALS = 64
# suites on random product models, which need at least two levels
PRODUCT_SUITES = ("levy", "contraction", "revkol")
# suites whose trials are checked on stacked product models
STACKED_SUITES = PRODUCT_SUITES + ("symsum",)


def verify_trials(suite: str, space_text: str, p: float, depth: int, start: int, stop: int,
                  seed: int, fmt: str, columns: list[str]) -> tuple[list[str], bool]:
    """Trials start to stop of a verify suite: each trial's rows encoded in
    ``fmt`` (reports.encode_rows), in index order, and whether some row has
    holds=false.

    Each trial draws from its own stream.  Consecutive trials are taken in
    windows of at most BATCH_TRIALS trials whose tables (a product model's
    admission bound, a pair's increment tables) hold at most BATCH_FLOATS
    floats together (_windows).  A window's trials are grouped by tree shape,
    each group is split again to at most BATCH_FLOATS floats at its check's
    peak, and each split is checked on one stack (_reports); a trial's rows
    are encoded as its stack is done.  When a window raises, its trials are
    checked again one at a time in index order, so the first that fails
    alone raises its error.
    """
    space = parse_space(space_text)
    product = suite in STACKED_SUITES

    def draw(index: int) -> tuple:
        gen = stream(seed, "verify", suite, index)
        if product:
            return index, *_product_draws(suite, space, depth, gen)
        return index, random_pair(gen, space, max_depth=depth,
                                  symmetric=suite != "tangency" or bool(index % 2))

    def shape(trial) -> tuple:
        return trial[1].shape if product else trial[1].tree.sizes

    def floats(trial) -> int:
        return trial[1].floats if product else sum(t.size for t in trial[1].seq.tables)

    def peak(trial) -> int:
        if product or suite == "tangency":
            return floats(trial)
        return pair_floats(shape(trial), space)

    chunks, failed = [], False
    for window in _windows(map(draw, range(start, stop)), floats):
        groups: dict[tuple, list] = {}
        for trial in window:
            groups.setdefault(shape(trial), []).append(trial)
        encoded = {}
        try:
            for group in groups.values():
                for trials in _windows(group, peak):
                    for (index, *_), rows in zip(trials, _reports(suite, p, trials)):
                        rows = [{**row, "model": index} for row in rows]
                        encoded[index] = encode_rows(rows, fmt, columns)
                        failed = failed or any(row["holds"] is False for row in rows)
        except ValueError:
            for trial in window:
                _reports(suite, p, [trial])
            raise
        chunks += [encoded[index] for index, *_ in window]
    return chunks, failed


def _windows(trials, floats):
    """Consecutive trials in windows of at most BATCH_TRIALS trials whose
    floats total at most BATCH_FLOATS; a trial over that runs alone.  A
    refused draw (ValueError) is raised after the window of the trials drawn
    before it, so that an earlier trial's error still comes first."""
    window, total = [], 0
    try:
        for trial in trials:
            if window and (total + floats(trial) > BATCH_FLOATS or len(window) == BATCH_TRIALS):
                yield window
                window, total = [], 0
            window.append(trial)
            total += floats(trial)
    except ValueError:
        if window:
            yield window
        raise
    if window:
        yield window


def _product_draws(suite: str, space: Space, depth: int, gen) -> tuple:
    """A product-suite trial's draws: its model, threshold factor and 0-1
    multipliers (None where the suite takes none)."""
    if suite == "symsum":
        laws = (random_symmetric_law(gen, space.dim), random_symmetric_law(gen, space.dim))
        return ProductModel(space, laws), None, None
    model = random_product_model(gen, space, levels=int(gen.integers(2, depth + 1)))
    factor = (0.5, 1.0, 1.5)[gen.integers(0, 3)]  # gen.choice's draw, without its front end
    mults = (gen.integers(0, 2, size=len(model.laws)).astype(float)
             if suite == "contraction" else None)
    return model, factor, mults


def _reports(suite: str, p: float, trials: list) -> list[list[dict]]:
    """Each trial's rows, less its index, for trials of one shape checked
    together: a product suite's (index, model, factor, multipliers) trials on
    one ProductStack, tangency's (index, pair) trials on one set of checked
    heads, and a pair suite's on one PairStack."""
    indices, *draws = zip(*trials)
    if suite == "tangency":
        return [[{"inequality": label, "holds": res.ok, "lhs": res.gap, "rhs": 0.0,
                  "margin": -res.gap, "method": "exact", "detail": res.detail}
                 for label, res in zip(("tangency", "conditional-independence"), results)]
                for results in verify_tangent_pair(draws[0])]
    if suite == "symsum":
        reports = symsum_reports(ProductStack(draws[0]), p)
    elif suite in PRODUCT_SUITES:
        models, factors, mults = draws
        stack = ProductStack(models)
        ts = [(quantiles(f_star, [0.7])[0] or 1.0) * factor
              for f_star, factor in zip(stack.f_star, factors)]
        if suite == "levy":
            reports = levy_reports(stack, ts, [("max-sum", "max-term")[i % 2] for i in indices])
        elif suite == "contraction":
            reports = contraction_reports(stack, mults, ts)
        else:
            reports = reverse_kolmogorov_reports(stack, ts, p)
    else:
        stack = PairStack.of(draws[0])
        if suite == "tail":
            return [[report.as_dict() for report in reports] for reports in tail_reports(
                stack, [sorted(set(quantiles(d_star, [0.25, 0.5, 0.9])))
                        for d_star in stack.d_star])]
        if suite == "goodlambda":
            return [[report.as_dict() for report in reports]
                    for reports in goodlambda_reports(stack, p, None, b=0.5)]
        reports = (davis_reports(stack) if suite == "davis"
                   else extrapolation_reports(stack, p, q=2.0))
    return [[report.as_dict()] for report in reports]
