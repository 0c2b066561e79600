"""Distributional and moment inequalities for finite adapted sequences.

Every checker returns an :class:`IneqReport` rather than a bare bool so that
callers (tests, the CLI, the atlas) can record the two sides, the margin and
the method actually used.  Every check enumerates its finite model exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .probmodel import (
    AdaptedSequence,
    EnumerationError,
    FiltrationTree,
    JOINT_LIMIT,
    Level,
    ModelError,
    TangentPair,
    joint_blocks,
    symmetry_gap,
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
        return np.array([self.fn(float(x)) for x in np.ravel(t)]).reshape(np.shape(t))


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
class FiniteLaw:
    """A finitely supported law on the space: rows of values with weights."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            # scalar atoms for a one-dimensional space
            values = values[:, None]
        probs = np.asarray(self.probs, dtype=float)
        if values.shape[0] != probs.shape[0]:
            raise ModelError("values and probs must align")
        if np.any(probs <= 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ModelError("probs must be positive and sum to 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        return symmetry_gap(self.values, self.probs) <= tol


@dataclass(frozen=True)
class ProductModel:
    """Sum of independent increments, each with its own finite law."""

    space: Space
    laws: tuple[FiniteLaw, ...]

    def __post_init__(self):
        for law in self.laws:
            if law.values.shape[1] != self.space.dim:
                raise ModelError("law dimension does not match space")

    @property
    def outcome_count(self) -> int:
        return math.prod(law.values.shape[0] for law in self.laws)

    def scaled(self, multipliers: Sequence[float]) -> "ProductModel":
        if len(multipliers) != len(self.laws):
            raise ModelError("need one multiplier per increment")
        laws = tuple(
            FiniteLaw(m * law.values, law.probs)
            for m, law in zip(multipliers, self.laws)
        )
        return ProductModel(self.space, laws)

    def to_sequence(self) -> AdaptedSequence:
        if self.outcome_count > JOINT_LIMIT:
            raise EnumerationError("product model too large to enumerate")
        levels = tuple(
            Level(tuple(map(tuple, law.values)), tuple(law.probs)) for law in self.laws
        )
        tree = FiltrationTree(levels)
        # every level is independent of the past: its law's atoms on each parent
        tables = [np.broadcast_to(law.values, (tree.num_nodes(n),) + law.values.shape)
                  for n, law in enumerate(self.laws)]
        return AdaptedSequence(tree, self.space, tables)


def _require_symmetric(model: ProductModel):
    for law in model.laws:
        if not law.is_symmetric():
            raise ModelError("increment laws must be symmetric for this bound")


# ---------------------------------------------------------------------------
# distributional bounds for independent symmetric sums


def _sum_stats(model: ProductModel):
    """Partial-sum norms, increment norms and path masses of the enumerated sum."""
    seq = model.to_sequence()
    return seq.space.norms(seq.partial_sums), seq.increment_norms, seq.tree.path_probs


def check_levy(model: ProductModel, t: float, variant: str = "max-sum") -> IneqReport:
    """P(max ||S_k|| > t) <= 2 P(||S_n|| > 2^(1-1/r) t) for an independent symmetric sum.

    ``variant`` picks the running-max of partial sums ("max-sum") or of the
    individual terms ("max-term"); both hold with the same constants.
    """
    if variant not in ("max-sum", "max-term"):
        raise ValueError(f"unknown variant {variant!r}")
    _require_symmetric(model)
    space = model.space
    thresh = 2.0 ** (1.0 - 1.0 / space.r) * t
    norms, inc_norms, probs = _sum_stats(model)
    stat = norms[:, 1:].max(axis=1) if variant == "max-sum" else inc_norms.max(axis=1)
    lhs = float(probs[stat > t].sum())
    rhs = 2.0 * float(probs[norms[:, -1] > thresh].sum())
    return IneqReport(
        inequality=f"levy-{variant}",
        params={"t": t, "r": space.r, "atoms": 1},
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + 1e-12,
        margin=rhs - lhs,
    )


def check_contraction(model: ProductModel, multipliers: Sequence[float], t: float) -> IneqReport:
    """Zero-one contraction: dropping terms costs at most the Levy constant."""
    _require_symmetric(model)
    mults = [float(m) for m in multipliers]
    if any(m not in (0.0, 1.0) for m in mults):
        raise ModelError("contraction multipliers must be 0 or 1")
    thresh = 2.0 ** (1.0 - 1.0 / model.space.r) * t
    norms_full, _, probs = _sum_stats(model)
    norms_sub, _, _ = _sum_stats(model.scaled(mults))
    lhs = float(probs[norms_sub[:, -1] > t].sum())
    rhs = 2.0 * float(probs[norms_full[:, -1] > thresh].sum())
    return IneqReport(
        inequality="contraction-01",
        params={"t": t, "multipliers": mults, "atoms": 1},
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + 1e-12,
        margin=rhs - lhs,
    )


def check_symsum(space: Space, xi: FiniteLaw, zeta: FiniteLaw, p: float) -> IneqReport:
    """E||xi||^p <= 2^(1-p) u_{p/r} E||xi + zeta||^p for independent symmetric zeta."""
    if not zeta.is_symmetric():
        raise ModelError("zeta must be symmetric")
    model = ProductModel(space, (FiniteLaw(xi.values, xi.probs), zeta))
    seq = model.to_sequence()
    probs = seq.tree.path_probs
    lhs = float(
        (space.norms(seq.path_increments(1)) ** p) @ probs
    )
    total = space.norms(seq.partial_sums[:, -1]) ** p
    _, upper = lu_constants(p / space.r)
    rhs = 2.0 ** (1.0 - p) * upper * float(total @ probs)
    return IneqReport(
        inequality="symmetric-summand",
        params={"p": p, "r": space.r},
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + 1e-12,
        margin=rhs - lhs,
    )


def check_reverse_kolmogorov(model: ProductModel, t: float, p: float) -> IneqReport:
    """Lower tail bound for the running max of an independent symmetric sum.

    P(max ||S_k|| > t) >= 2^(p-1) [u_{p/r}^{-2} - (t^p + E max||xi_k||^p) / E||S_n||^p].
    Vacuous (and trivially true) when the sum is a.s. zero.
    """
    _require_symmetric(model)
    space = model.space
    _, upper = lu_constants(p / space.r)
    norms, inc_norms, probs = _sum_stats(model)
    denom = float((norms[:, -1] ** p) @ probs)
    if denom <= 0:
        return IneqReport(
            inequality="reverse-kolmogorov",
            params={"t": t, "p": p},
            lhs=0.0,
            rhs=0.0,
            holds=True,
            margin=0.0,
            status="vacuous",
        )
    lhs = float(probs[norms[:, 1:].max(axis=1) > t].sum())
    star = float((inc_norms.max(axis=1) ** p) @ probs)
    rhs = 2.0 ** (p - 1.0) * (upper ** -2.0 - (t ** p + star) / denom)
    return IneqReport(
        inequality="reverse-kolmogorov",
        params={"t": t, "p": p, "r": space.r, "atoms": 1},
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs - 1e-12,
        margin=lhs - rhs,
    )


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
    e_mass = {}
    for weights, stats in joint_blocks(pair, ("e_star",)):
        for t in ts:
            e_mass[t] = e_mass.get(t, 0.0) + float(weights[stats["e_star"] > t].sum())
    reports = []
    for t in ts:
        for name, lhs, rhs in (
            ("tail-e-by-d", e_mass[t], 2.0 * d_mass[t]),
            ("tail-d-by-e", d_mass[t], 2.0 * e_mass[t]),
        ):
            reports.append(
                IneqReport(
                    inequality=name,
                    params={"t": t},
                    lhs=lhs,
                    rhs=rhs,
                    holds=lhs <= rhs + 1e-12,
                    margin=rhs - lhs,
                )
            )
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
    cheb_ok = True
    worst = (0, 1)
    worst_atom = 0
    for (k, l), (win, probs, atoms) in table.atoms.items():
        for b, mass, t_sup, num in atoms:
            pcond = float(probs[b][win[b] > A * t_sup].sum()) / mass
            if pcond > b_hat:
                b_hat, worst, worst_atom = pcond, (k, l), b
            if A > 0 and t_sup > 0 and pcond > num / (A * t_sup) ** p + 1e-12:
                cheb_ok = False
    if A > 0 and b_hat > table.d_hat ** p / A ** p + 1e-12:
        cheb_ok = False
    return BmoProfile(
        p=p,
        A=A,
        b_hat=b_hat,
        d_hat=table.d_hat,
        chebyshev_ok=cheb_ok,
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
    if profile.b_hat >= b:
        # smallness certificate failed; the estimate is not applicable here
        return [
            IneqReport(
                inequality=name,
                params={"p": p, "A": A, "b": b, "beta": beta, "delta": delta,
                        "rho": rho, "b_hat": profile.b_hat},
                lhs=0.0,
                rhs=0.0,
                holds=True,
                margin=0.0,
                status="not-applicable",
            )
            for name in ("goodlambda-geq-lt", "goodlambda-gt-leq")
        ]
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
        rows = []
        worst = None
        for lam in lambdas:
            lhs = float(probs[hit(lam)].sum())
            rhs = b * float(probs[f_star > lam].sum())
            rows.append({"lambda": float(lam), "lhs": lhs, "rhs": rhs})
            if worst is None or rhs - lhs < worst[1] - worst[0]:
                worst = (lhs, rhs)
        lhs, rhs = worst
        reports.append(
            IneqReport(
                inequality=name,
                params={
                    "p": p,
                    "A": A,
                    "b": b,
                    "beta": beta,
                    "delta": delta,
                    "rho": rho,
                    "b_hat": profile.b_hat,
                },
                lhs=lhs,
                rhs=rhs,
                holds=all(r["lhs"] <= r["rhs"] + 1e-12 for r in rows),
                margin=rhs - lhs,
                extra={"grid": rows},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# Phi-moment comparisons


def moment_phi(pair: TangentPair, phi: MomentFunctional, statistic: str) -> float:
    """E Phi(statistic), exact.  statistic in f_star, f_norm, g_norm, g_star."""
    seq, tree = pair.seq, pair.tree
    probs = tree.path_probs
    if statistic == "f_star":
        return float(phi(seq.f_star) @ probs)
    if statistic == "f_norm":
        return float(phi(seq.space.norms(seq.terminal)) @ probs)
    if statistic not in ("g_norm", "g_star"):
        raise ValueError(f"unknown statistic {statistic!r}")
    key = "g_terminal" if statistic == "g_norm" else "g_star"
    total = 0.0
    for weights, stats in joint_blocks(pair, (key,)):
        values = stats[key]
        if statistic == "g_norm":
            values = seq.space.norms(values)
        total += float(np.sum(weights * phi(values)))
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
    from .constants import extrapolation_constant

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
    lhs = moment_phi(pair, phi, "f_star")
    rhs = const * moment_phi(pair, phi, "g_norm")
    return IneqReport(
        inequality="extrapolated-phi-domination",
        params={
            "p": p,
            "q": q,
            "A": A,
            "b": b,
            "rho": rho,
            "b_hat": profile.b_hat,
            "d_hat": profile.d_hat,
            "constant": const,
            "phi": phi.name,
        },
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs * (1 + 1e-12) + 1e-300,
        margin=rhs - lhs,
    )


def random_symmetric_law(gen, dim: int, atoms: int = 2) -> FiniteLaw:
    """Symmetric finitely supported law: random atoms paired with negations."""
    alphabet = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    rows = alphabet[gen.integers(0, alphabet.size, size=(atoms, dim))]
    weights = gen.integers(1, 4, size=atoms).astype(float)
    weights /= 2.0 * weights.sum()
    return FiniteLaw(np.vstack([rows, -rows]), np.concatenate([weights, weights]))


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
    lhs_vec = space.norms(big.seq.terminal) ** r
    rhs_vec = cap * pair.seq.d_star ** r
    gap = rhs_vec - lhs_vec
    i = int(np.argmin(gap))
    return IneqReport(
        inequality="davis-large-part-pathwise",
        params={"r": r, "cap": cap},
        lhs=float(lhs_vec[i]),
        rhs=float(rhs_vec[i]),
        holds=bool(np.all(lhs_vec <= rhs_vec + 1e-12)),
        margin=float(gap[i]),
    )
