"""Distributional and moment inequalities for finite adapted sequences.

Every checker returns an :class:`IneqReport` rather than a bare bool so that
callers (tests, the CLI, the atlas) can record the two sides, the margin and
the method actually used.  Every check enumerates its finite model exactly,
and every verdict is decided by one rule, :func:`_one_sided`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bounds import extrapolation_constant
from .probmodel import (
    AdaptedSequence,
    EnumerationError,
    FiltrationTree,
    JOINT_LIMIT,
    LAW_TOL,
    Level,
    ModelError,
    TangentPair,
    joint_blocks,
    symmetry_gaps,
)
from .spaces import Space, lu_constants


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
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["params"], out["extra"] = dict(self.params), dict(self.extra)
        # numpy scalars confuse canonical JSON
        for key in ("lhs", "rhs", "margin"):
            out[key] = float(out[key])
        return out


def _one_sided(inequality: str, params: dict, lhs, rhs, lower: bool = False,
               scaled: bool = False, status: str = "ok", extra: dict | None = None) -> IneqReport:
    """The report of lhs <= rhs (lhs >= rhs when lower): the module's one verdict rule.

    The margin is rhs - lhs (lhs - rhs when lower) and the check holds when
    margin >= -slack.  The slack is 1e-12 on unit-free sides (probabilities and
    their ratios) and 1e-12 * max(|lhs|, |rhs|) on sides that scale with the
    model (``scaled``: moments and norms), so an exact 2^k rescaling of a model
    never moves a verdict.  lhs and rhs may be aligned arrays of sides: the
    report gives their first element of least margin, and holds only when every
    element holds.  A side that is not finite has no verdict: ModelError.
    """
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
        # tolist gives the Python floats that float() gives of each element
        values = np.ravel(np.asarray(t, dtype=float)).tolist()
        return np.array([self.fn(x) for x in values]).reshape(np.shape(t))


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
        """The enumerated partial sums: outcomes x (levels + 1) x dim floats."""
        return self.outcome_count * (len(self.laws) + 1) * self.space.dim

    def require_enumerable(self):
        """EnumerationError when the partial sums exceed JOINT_LIMIT floats."""
        if self.floats > JOINT_LIMIT:
            raise EnumerationError(f"product model needs {self.floats} partial-sum "
                                   f"floats, over budget {JOINT_LIMIT}")

    def to_sequence(self) -> AdaptedSequence:
        """The model as an adapted sequence on the tree whose levels are its laws;
        a model over the budget is refused before anything is allocated."""
        self.require_enumerable()
        tree = FiltrationTree(self.laws)
        # every level is independent of the past: its law's atoms on each parent
        tables = [np.broadcast_to(law.values.reshape(law.size, -1),
                                  (tree.num_nodes(n), law.size, self.space.dim))
                  for n, law in enumerate(self.laws)]
        return AdaptedSequence(tree, self.space, tables)


class ProductStack:
    """Product models of one space and shape, enumerated as one stack.

    Models of one shape share their outcome space: outcome o reads atom
    (o // stride_n) mod a_n of law n, where stride_n is the product of the
    later laws' atom counts (the path order of the model's tree).  Every
    array has the model on its leading axis, and each model's slab is formed
    by the float operations it gets alone (additions level by level, norms
    vector by vector), so its values do not depend on the stack; each check
    reduces one model's contiguous slab at a time.  A model whose partial
    sums exceed JOINT_LIMIT floats is refused before anything is allocated.
    """

    def __init__(self, models: Sequence[ProductModel]):
        self.models = tuple(models)
        self.space, self.shape = self.models[0].space, self.models[0].shape
        for model in self.models:
            if model.space != self.space or model.shape != self.shape:
                raise ModelError("stacked product models need one space and one shape")
            model.require_enumerable()
        self.outcomes = self.models[0].outcome_count

    @functools.cached_property
    def atoms(self) -> list[np.ndarray]:
        """Per level, the laws' atoms: (models, atoms, dim)."""
        return [np.stack([m.laws[n].values.reshape(size, -1) for m in self.models])
                for n, size in enumerate(self.shape)]

    @functools.cached_property
    def masses(self) -> list[np.ndarray]:
        """Per level, the laws' masses: (models, atoms)."""
        return [np.stack([m.laws[n].probs for m in self.models]) for n in range(len(self.shape))]

    @functools.cached_property
    def probs(self) -> np.ndarray:
        """Outcome masses, (models, outcomes): the laws' masses multiplied in level order."""
        out = np.ones((len(self.models), 1))
        for masses in self.masses:
            out = (out[:, :, None] * masses[:, None, :]).reshape(len(self.models), -1)
        return out

    def require_symmetric(self, levels: Sequence[int], message: str):
        """ModelError(message) unless every model's laws at these levels
        (0-based) are symmetric: one symmetry_gaps call per level."""
        for n in levels:
            if (symmetry_gaps(self.atoms[n], self.masses[n]) > LAW_TOL).any():
                raise ModelError(message)

    def _digits(self, n: int) -> np.ndarray:
        """The atom of law n (1-based) that each outcome reads."""
        stride = math.prod(self.shape[n:])
        return np.arange(self.outcomes) // stride % self.shape[n - 1]

    def increments(self, n: int) -> np.ndarray:
        """The level-n increment at every outcome, (models, outcomes, dim)."""
        return self.atoms[n - 1][:, self._digits(n)]

    @functools.cached_property
    def partial_sums(self) -> np.ndarray:
        """f_0..f_N at every outcome, (models, outcomes, levels + 1, dim)."""
        out = np.zeros((len(self.models), self.outcomes, len(self.shape) + 1, self.space.dim))
        for n in range(1, len(self.shape) + 1):
            out[:, :, n] = out[:, :, n - 1] + self.increments(n)
        return out

    @functools.cached_property
    def norms(self) -> np.ndarray:
        """||f_0||..||f_N|| at every outcome, (models, outcomes, levels + 1)."""
        return self.space.norms(self.partial_sums)

    @functools.cached_property
    def f_star(self) -> np.ndarray:
        """max_n ||f_n|| at every outcome, (models, outcomes)."""
        return self.norms.max(axis=2)

    @functools.cached_property
    def d_star(self) -> np.ndarray:
        """max_n ||d_n|| at every outcome, (models, outcomes), from one norm of every atom."""
        atom_norms = np.split(self.space.norms(np.concatenate(self.atoms, axis=1)),
                              np.cumsum(self.shape)[:-1], axis=1)
        out = np.zeros((len(self.models), self.outcomes))
        for n, norms in enumerate(atom_norms, start=1):
            np.maximum(out, norms[:, self._digits(n)], out=out)
        return out


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
    stack.require_symmetric(range(len(stack.shape)), SYMMETRIC_LAWS)
    r = stack.space.r
    norms, probs = stack.norms, stack.probs
    max_sum = norms[:, :, 1:].max(axis=2)
    d_star = stack.d_star if "max-term" in variants else None
    reports = []
    for i, (t, variant) in enumerate(zip(ts, variants)):
        thresh = 2.0 ** (1.0 - 1.0 / r) * t
        stat = max_sum[i] if variant == "max-sum" else d_star[i]
        lhs = float(probs[i][stat > t].sum())
        rhs = 2.0 * float(probs[i][norms[i, :, -1] > thresh].sum())
        reports.append(_one_sided(f"levy-{variant}", {"t": t, "r": r, "atoms": 1}, lhs, rhs))
    return reports


def check_contraction(model: ProductModel, multipliers: Sequence[float], t: float) -> IneqReport:
    """Zero-one contraction: dropping terms costs at most the Levy constant.

    The kept sub-sum is read off the model's own enumeration: its terminal
    vector adds the path increments of the levels with multiplier 1, in level
    order, the same float additions a model of the 0-1 scaled laws makes.
    """
    return contraction_reports(ProductStack((model,)), [multipliers], [t])[0]


def contraction_reports(stack: ProductStack, multipliers: Sequence[Sequence[float]],
                        ts: Sequence[float]) -> list[IneqReport]:
    """check_contraction of each model of the stack, with its own multipliers and t."""
    stack.require_symmetric(range(len(stack.shape)), SYMMETRIC_LAWS)
    rows = []
    for model, row in zip(stack.models, multipliers):
        mults = [float(m) for m in row]
        if len(mults) != len(model.laws):
            raise ModelError("need one multiplier per increment")
        if any(m not in (0.0, 1.0) for m in mults):
            raise ModelError("contraction multipliers must be 0 or 1")
        rows.append(mults)
    probs = stack.probs
    sub = np.zeros((len(rows), stack.outcomes, stack.space.dim))
    for n in range(1, len(stack.shape) + 1):
        kept = [i for i, mults in enumerate(rows) if mults[n - 1] == 1.0]
        if kept:
            sub[kept] += stack.increments(n)[kept]
    sub_norms = stack.space.norms(sub)
    terminal = stack.norms[:, :, -1]
    reports = []
    for i, (mults, t) in enumerate(zip(rows, ts)):
        thresh = 2.0 ** (1.0 - 1.0 / stack.space.r) * t
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
    space, probs = stack.space, stack.probs
    first = space.norms(stack.increments(1)) ** p
    total = space.norms(stack.partial_sums[:, :, -1]) ** p
    _, upper = lu_constants(p / space.r)
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
    stack.require_symmetric(range(len(stack.shape)), SYMMETRIC_LAWS)
    r = stack.space.r
    _, upper = lu_constants(p / r)
    norms, probs = stack.norms, stack.probs
    terminal = norms[:, :, -1] ** p
    max_sum = norms[:, :, 1:].max(axis=2)
    star = stack.d_star ** p
    reports = []
    for i, t in enumerate(ts):
        denom = float(terminal[i] @ probs[i])
        if denom <= 0:
            reports.append(_one_sided("reverse-kolmogorov", {"t": t, "p": p}, 0.0, 0.0,
                                      lower=True, status="vacuous"))
            continue
        lhs = float(probs[i][max_sum[i] > t].sum())
        rhs = 2.0 ** (p - 1.0) * (upper ** -2.0 - (t ** p + float(star[i] @ probs[i])) / denom)
        reports.append(_one_sided("reverse-kolmogorov", {"t": t, "p": p, "r": r, "atoms": 1},
                                  lhs, rhs, lower=True))
    return reports


# ---------------------------------------------------------------------------
# tail comparison between a sequence and its decoupled companion


def check_tail_comparison(pair: TangentPair, ts: Sequence[float]) -> list[IneqReport]:
    """Two-sided tail equivalence of the running maxes d* and e*.

    For every threshold t both directions are checked:
    P(e* > t) <= 2 P(d* > t) and P(d* > t) <= 2 P(e* > t).
    """
    probs = pair.tree.path_probs
    d_star = pair.seq.d_star
    d_mass = {t: float(probs[d_star > t].sum()) for t in ts}
    # one running sum per distinct threshold, however often ts repeats it
    e_mass = dict.fromkeys(ts, 0.0)
    for weights, stats in joint_blocks(pair, ("e_star",)):
        for t in e_mass:
            e_mass[t] += float(weights[stats["e_star"] > t].sum())
    reports = []
    for t in ts:
        reports.append(_one_sided("tail-e-by-d", {"t": t}, e_mass[t], 2.0 * d_mass[t]))
        reports.append(_one_sided("tail-d-by-e", {"t": t}, d_mass[t], 2.0 * e_mass[t]))
    return reports


# ---------------------------------------------------------------------------
# the conditional p-norm of windows, its running sup, and the BMO profile


def window_conditional_norm(pair: TangentPair, p: float, k: int, l: int) -> np.ndarray:
    """T_p of the window (k, l]: one value per depth-(l-1) node (read-only).

    T_p(f over (k,l]) at an atom is (E[ ||sum_{k<m<=l} e_m||^p | F_inf ])^(1/p);
    in the frozen-table model the conditional law is the product of the table
    rows along the atom's history, so this is a finite sum.  The value is read
    from the pair's window table at p, which builds every window once.
    """
    if pair.mode != "decoupled":
        raise ModelError("conditional window norms need a decoupled pair")
    if not 0 <= k < l <= pair.seq.depth:
        raise ModelError(f"bad window ({k}, {l}]")
    return pair.window_table(p).norms[k, l]


def conditional_norm_star(pair: TangentPair, p: float) -> np.ndarray:
    """T*_p(f) = max_n T_p(f^n), per path."""
    seq, tree = pair.seq, pair.tree
    norms = pair.window_table(p).norms
    out = np.zeros(tree.path_count)
    for n in range(1, seq.depth + 1):
        out = np.maximum(out, norms[0, n][tree.nodes_at(n - 1)])
    return out


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
    chebyshev_ok: bool
    worst_window: tuple[int, int]
    worst_atom: int
    windows: int


def bmo_condition(pair: TangentPair, p: float, A: float) -> BmoProfile:
    """The window profile at threshold A, read from the pair's window table."""
    table = pair.window_table(p)
    b_hat = 0.0
    worst = (0, 1)
    worst_atom = 0
    # the Chebyshev certificate: each conditional probability against its bound
    pconds, caps = [], []
    for (k, l), (win, probs, atoms) in table.atoms.items():
        for b, mass, t_sup, num in atoms:
            pcond = float(probs[b][win[b] > A * t_sup].sum()) / mass
            if pcond > b_hat:
                b_hat, worst, worst_atom = pcond, (k, l), b
            if A > 0 and t_sup > 0:
                pconds.append(pcond)
                caps.append(num / (A * t_sup) ** p)
    if A > 0:
        pconds.append(b_hat)
        caps.append(table.d_hat ** p / A ** p)
    return BmoProfile(
        p=p,
        A=A,
        b_hat=b_hat,
        d_hat=table.d_hat,
        chebyshev_ok=not pconds or _one_sided("chebyshev-certificate", {}, pconds, caps).holds,
        worst_window=worst,
        worst_atom=worst_atom,
        windows=len(table.atoms),
    )


def calibrated_A(pair: TangentPair, p: float, b: float) -> float:
    """The threshold A at which the window profile certifies smallness b.

    Chebyshev: P(win > A T_sup | atom) <= (d_hat / A)^p, so A = b^(-1/p) d_hat
    certifies level b for any pair with finite window ratios (A = 1 when
    d_hat = 0).
    """
    d_hat = pair.window_table(p).d_hat
    return d_hat * b ** (-1.0 / p) if d_hat > 0 else 1.0


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
    space = pair.seq.space
    rho = min(space.r, p)
    beta = (1.0 + (2.0 * A ** rho + 1.0) * delta ** rho) ** (1.0 / rho)
    profile = bmo_condition(pair, p, A)
    params = {"p": p, "A": A, "b": b, "beta": beta, "delta": delta, "rho": rho,
              "b_hat": profile.b_hat}
    if profile.b_hat >= b:
        # smallness certificate failed; the estimate is not applicable here
        return [_one_sided(name, dict(params), 0.0, 0.0, status="not-applicable")
                for name in ("goodlambda-geq-lt", "goodlambda-gt-leq")]
    f_star = pair.seq.f_star
    side = np.maximum(conditional_norm_star(pair, p), pair.seq.d_star)
    probs = pair.tree.path_probs
    if lambdas is None:
        pos = np.unique(f_star[f_star > 0])
        if pos.size == 0:
            lambdas = [1.0]
        else:
            qs = np.quantile(pos, np.linspace(0.05, 0.95, 7))
            lambdas = sorted(set(float(x) / beta for x in qs))
    reports = []
    for name, hit in (
        ("goodlambda-geq-lt", lambda lam: (f_star >= beta * lam) & (side < delta * lam)),
        ("goodlambda-gt-leq", lambda lam: (f_star > beta * lam) & (side <= delta * lam)),
    ):
        rows = [{"lambda": float(lam), "lhs": float(probs[hit(lam)].sum()),
                 "rhs": b * float(probs[f_star > lam].sum())} for lam in lambdas]
        reports.append(_one_sided(name, dict(params), [r["lhs"] for r in rows],
                                  [r["rhs"] for r in rows], extra={"grid": rows}))
    return reports


# ---------------------------------------------------------------------------
# Phi-moment comparisons


def moment_phi(pair: TangentPair, phi: MomentFunctional, statistic: str) -> float:
    """E Phi(statistic), exact.  statistic is f_star (f*) or g_norm (||g_N||)."""
    if statistic == "f_star":
        return float(phi(pair.seq.f_star) @ pair.tree.path_probs)
    if statistic != "g_norm":
        raise ValueError(f"unknown statistic {statistic!r}")
    total = 0.0
    for weights, stats in joint_blocks(pair, ("g_norm",)):
        total += float(np.sum(weights * phi(stats["g_norm"])))
    return total


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
    space = pair.seq.space
    rho = min(space.r, p)
    phi = power(q) if phi is None else phi
    if phi.q != q:
        raise PhiError("declared growth exponent must match q")
    threshold = 2.0 ** (-2.0 * p / rho + p - 1.0)
    if b is None:
        b = threshold / 2.0
    if not 0 < b < threshold:
        raise ModelError(f"b must lie in (0, {threshold:.6g})")
    if A is None:
        A = calibrated_A(pair, p, b)
    profile = bmo_condition(pair, p, A)
    if profile.b_hat > b:
        raise ModelError(
            f"certificate failed: b_hat={profile.b_hat:.6g} > b={b:.6g} at A={A:.6g}"
        )
    const = extrapolation_constant(p, q, A, b, space.r).value
    params = {"p": p, "q": q, "A": A, "b": b, "rho": rho, "b_hat": profile.b_hat,
              "d_hat": profile.d_hat, "constant": const, "phi": phi.name}
    return _one_sided("extrapolated-phi-domination", params, moment_phi(pair, phi, "f_star"),
                      const * moment_phi(pair, phi, "g_norm"), scaled=True)


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
    from .probmodel import davis_split

    _, big = davis_split(pair)
    space = pair.seq.space
    r = space.r
    cap = (1.0 - 2.0 ** (-r)) ** -1.0
    # one pair of sides per path; the report gives the path of least margin
    return _one_sided("davis-large-part-pathwise", {"r": r, "cap": cap},
                      space.norms(big.seq.terminal) ** r, cap * pair.seq.d_star ** r,
                      scaled=True)
