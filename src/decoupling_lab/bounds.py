"""Closed-form bounds, and the names the command line offers.

The formula half of the lab: closed-form upper and lower bounds evaluated
in high precision via mpmath and reported with their validity predicates.
It also holds the direction and family names of the estimation half
(constants), which the argument parser reads.  Nothing here imports numpy,
so ``bounds`` and ``--help`` start without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

DIRECTIONS = (
    "decouple-upper",
    "decouple-lower",
    "randomized-plus",
    "randomized-minus",
)

# search family -> (multiplier alphabet, tree kind)
FAMILIES = {
    "paley-walsh-multipliers": ((1.0, -1.0, 2.0, -2.0, 4.0, -4.0), "paley-walsh"),
    "gaussian-multipliers": ((1.0, -1.0, 2.0, -2.0, 4.0, -4.0), "three-point"),
    "supnorm-signs": ((1.0, -1.0), "paley-walsh"),
}


@dataclass(frozen=True)
class SymbolicConstant:
    """A constant of the form coeff * 2^exp2 * e^expe, evaluated via mpmath."""

    coeff: float
    exp2: float = 0.0
    expe: float = 0.0

    @property
    def value(self) -> float:
        import mpmath as mp  # loaded on first use: most runs never need it

        with mp.workdps(50):
            return float(
                mp.mpf(self.coeff) * mp.power(2, mp.mpf(self.exp2)) * mp.e ** mp.mpf(self.expe)
            )

    def expression(self) -> str:
        return f"{self.coeff:.17g} * 2^{self.exp2:g} * e^{self.expe:g}"


@dataclass(frozen=True)
class BoundReport:
    formula: str
    params: dict
    constant: SymbolicConstant
    applies: bool = True
    condition: str = ""

    @property
    def value(self) -> float:
        return self.constant.value

    def as_dict(self) -> dict:
        return {
            "formula": self.formula,
            "params": self.params,
            "value": self.value,
            "expression": self.constant.expression(),
            "applies": self.applies,
            "condition": self.condition,
        }


# formula name -> (function, the parameters it takes)
FORMULAS: dict = {}


def _formula(name: str, *params: str):
    """Register a formula in FORMULAS.  A call whose report holds a float
    that is not finite (the value or a parameter), or that overflows or
    divides by zero on the way, raises ValueError naming the formula."""
    def register(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            try:
                report = fn(*args, **kwargs)
                numbers = (report.value, *report.params.values())
                finite = all(math.isfinite(x) for x in numbers if isinstance(x, float))
            except ArithmeticError:
                finite = False
            if not finite:
                raise ValueError(f"formula {name} has no finite value at these parameters")
            return report
        FORMULAS[name] = (checked, params)
        return checked
    return register


@_formula("extrap-c", "p", "q", "A", "b", "r")
def extrapolation_constant(p: float, q: float, A: float, b: float, r: float = 1.0) -> BoundReport:
    """Constant in the tail-extrapolation estimate E Phi(f*) <= C E Phi(||g||).

    Valid whenever the window profile certifies conditional smallness at
    (A, b) with b below 2^(-2p/rho + p - 1), rho = min(r, p).  The r = 1 case
    is the Banach form; smaller r covers quasinorms at the price of a much
    larger constant.
    """
    if p <= 0 or q <= 0 or A < 0 or not 0 < r <= 1:
        raise ValueError("need p, q > 0, A >= 0, 0 < r <= 1")
    rho = min(r, p)
    threshold = 2.0 ** (-2.0 * p / rho + p - 1.0)
    if not 0 < b < threshold:
        raise ValueError(f"b must lie in (0, {threshold:.6g}) for rho={rho:g}")
    import mpmath as mp

    with mp.workdps(50):
        pp, qq, aa, bb, rr = map(mp.mpf, (p, q, A, b, rho))
        beta = (mp.power(2, 2 * pp / rr - pp + 1) * bb) ** (-1 / qq)
        delta = ((beta ** rr - 1) / (2 * aa ** rr + 1)) ** (1 / rr)
        bracket = mp.power(2, 2 * pp / rr - pp + 2 * qq / rr - qq + 1) * (
            mp.power(2, 2 * qq) + mp.power(2, qq / rr)
        ) * (beta / delta) ** (qq / rr) + (1 - mp.power(2, -rr)) ** (-qq / rr)
        exp2 = 2 * qq / rr - qq + 2
        coeff = float(bracket)
    return BoundReport(
        formula="extrap-c",
        params={"p": p, "q": q, "A": A, "b": b, "r": r, "rho": rho,
                "beta": float(beta), "delta": float(delta)},
        constant=SymbolicConstant(coeff=coeff, exp2=float(exp2)),
    )


@_formula("phi-growth", "p", "q", "d_const")
def phi_moment_constant(p: float, q: float, d_const: float = 1.0) -> BoundReport:
    """Growth-q moment bound from a p-th moment bound with constant d_const:
    K <= e^q 2^(3q/p + p + 7q + 7) (q/p)^q d_const^q."""
    if q < p or p <= 0:
        raise ValueError("need 0 < p <= q")
    return BoundReport(
        formula="phi-growth",
        params={"p": p, "q": q, "d_const": d_const},
        constant=SymbolicConstant(
            coeff=(q / p * d_const) ** q,
            exp2=3.0 * q / p + p + 7.0 * q + 7.0,
            expe=q,
        ),
    )


@_formula("exponent-shift", "p", "q", "d_const")
def exponent_shift_constant(p: float, q: float, d_const: float = 1.0) -> BoundReport:
    """Exponent upgrade for the decoupling constant itself:
    D_q <= e 2^(3/p + p/q + 7 + 7/q) (q/p) D_p."""
    if q < p or p <= 0:
        raise ValueError("need 0 < p <= q")
    return BoundReport(
        formula="exponent-shift",
        params={"p": p, "q": q, "d_const": d_const},
        constant=SymbolicConstant(
            coeff=q / p * d_const,
            exp2=3.0 / p + p / q + 7.0 + 7.0 / q,
            expe=1.0,
        ),
    )


@_formula("hilbert-phi", "q", "d_const")
def hilbert_phi_constant(q: float, d_const: float = 1.0) -> BoundReport:
    """Growth-q moment bound in inner-product spaces: e^q 2^(11 + 8q) d_const^q."""
    if q <= 0:
        raise ValueError("need q > 0")
    return BoundReport(
        formula="hilbert-phi",
        params={"q": q, "d_const": d_const},
        constant=SymbolicConstant(coeff=d_const ** q, exp2=11.0 + 8.0 * q, expe=q),
    )


@_formula("supnorm-upper", "p", "d", "scalar_const")
def sup_norm_upper_bound(p: float, d: int, scalar_const: float = 1.0) -> BoundReport:
    """In sup-norm coordinates the constant is at most twice the scalar one,
    provided the dimension is small relative to the exponent: 2^p >= d."""
    if d < 1 or p <= 0:
        raise ValueError("need d >= 1, p > 0")
    applies = bool(2.0 ** p >= d)
    # the proof's kernel: d^(1/p) <= 2; exp2 form keeps dyadic cases exact
    kernel = 2.0 ** (math.log2(d) / p)
    return BoundReport(
        formula="supnorm-upper",
        params={"p": p, "d": d, "scalar_const": scalar_const, "kernel": kernel},
        constant=SymbolicConstant(coeff=2.0 * scalar_const),
        applies=applies,
        condition="2^p >= d",
    )


@_formula("logdim-lower", "p", "d")
def log_dim_lower_bound(p: float, d: int) -> BoundReport:
    """Dimension-growth lower bound in sup-norm coordinates:
    at least (1/4) K_p^-1 sqrt(log2 d), with K_p = max(1, sqrt(p - 1))."""
    if d < 2 or p <= 0:
        raise ValueError("need d >= 2, p > 0")
    k_p = max(1.0, math.sqrt(max(p - 1.0, 0.0)))
    return BoundReport(
        formula="logdim-lower",
        params={"p": p, "d": d, "k_p": k_p},
        constant=SymbolicConstant(coeff=0.25 / k_p * math.sqrt(math.log2(d))),
    )
