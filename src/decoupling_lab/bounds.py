"""Closed-form bounds.

The formula half of the lab: closed-form upper and lower bounds, evaluated
in stdlib decimal at 50 significant digits, and reported with their validity
predicates.  The formula names and the parameters each takes are in names,
which the argument parser reads without loading this module.  Nothing here
imports numpy, and decimal is loaded only when a constant is evaluated, so
``bounds`` starts without either.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from .names import FORMULA_PARAMS


# ---------------------------------------------------------------------------
# 50-digit arithmetic
#
# The constants overflow doubles well inside their domain (2^(2q/r) at small
# r), so they are evaluated in decimal at 50 significant digits, with an
# exponent range nothing here reaches, and rounded to float only where a
# report shows them.  Overflow, DivisionByZero and InvalidOperation trap, and
# each is an ArithmeticError, which _formula reports as no finite value.  The
# helpers below use their own contexts; the formulas do their plain Decimal
# arithmetic in a with-block of _context().


@functools.cache
def _context(prec: int = 50):
    """decimal at prec significant digits with an unbounded exponent.  decimal
    is loaded on first use: most runs evaluate no closed form."""
    import decimal

    return decimal.Context(prec=prec, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@functools.cache
def _logs():
    """ln 2 and ln 10 at 50 digits, formed once."""
    ctx = _context()
    return ctx.ln(2), ctx.ln(10)


def _exp(y):
    """e^y to 50 digits.  At |y| ~ 0.3 Decimal.exp sums some 36 Taylor terms;
    e^(y / 2^m) with |y / 2^m| < 10^-6 needs 9, and squaring it m times (one
    integer power) loses under m log10(2) digits, which guard digits cover."""
    ctx, scale = _context(), y.adjusted()
    if not y or not y.is_finite() or not -6 <= scale <= 18:
        return ctx.exp(y)  # exact, small, or sure to overflow or underflow
    m = 10 * (scale + 7) // 3 + 1  # 2^m >= 10^(scale + 7)
    wide, n = _context(52 + 3 * m // 10), 1 << m
    return ctx.plus(wide.power(wide.exp(wide.divide(y, n)), n))


def _ln(x):
    """ln x to 50 digits, or to 10^-50 where |ln x| < 1.  With x = u 10^e,
    1 <= u < 10, the float log of u is off by t = u e^-log(u) - 1, |t| <
    10^-15, and ln(1 + t) = t - t^2/2 + t^3/3 is within 10^-60 of it: one exp,
    where Decimal.ln takes several."""
    ctx = _context()
    if not x > 0 or not x.is_finite():
        return ctx.ln(x)  # ln 0 = -inf, ln inf = inf; a negative x is invalid
    e = x.adjusted()
    u = x.scaleb(-e, ctx)
    guess = ctx.create_decimal_from_float(math.log(float(u)))
    t = ctx.subtract(ctx.multiply(u, _exp(ctx.minus(guess))), 1)
    series = ctx.multiply(t, ctx.subtract(1, ctx.multiply(t, ctx.subtract(
        ctx.divide(1, 2), ctx.divide(t, 3)))))
    return ctx.add(ctx.add(guess, series), ctx.multiply(e, _logs()[1]))


def _pow(x, y):
    """x^y for x >= 0: by squarings when y is an integer below 10^18, and
    otherwise as e^(y ln x), to 50 digits less the digits of |y| max(1, |ln x|)."""
    ctx = _context()
    if y.is_finite() and y.adjusted() < 18 and y == ctx.to_integral_value(y):
        return ctx.power(x, int(y))
    return _exp(ctx.multiply(y, _logs()[0] if x == 2 else _ln(x)))


class SymbolicConstant(NamedTuple):
    """A constant of the form coeff^power * 2^exp2 * e^expe, evaluated at 50
    digits.  power is 1 unless the float power would lose digits (_power)."""

    coeff: float
    exp2: float = 0.0
    expe: float = 0.0
    power: float = 1.0

    @property
    def value(self) -> float:
        if self.coeff == 0.0 and math.isfinite(self.exp2) and math.isfinite(self.expe):
            return 0.0  # as mpmath gave it, where the powers pass decimal's exponent range
        from decimal import Decimal

        ctx = _context()
        if self.power != 1.0:
            # one exponent, so that a power far below the floats can meet a
            # 2^exp2 far above them without leaving decimal's exponent range
            return float(_exp(ctx.add(ctx.add(
                ctx.multiply(Decimal(self.power), _ln(Decimal(self.coeff))),
                ctx.multiply(Decimal(self.exp2), _logs()[0])), Decimal(self.expe))))
        return float(ctx.multiply(ctx.multiply(Decimal(self.coeff), _pow(2, Decimal(self.exp2))),
                                  _exp(Decimal(self.expe))))

    def expression(self) -> str:
        coeff = f"{self.coeff:.17g}"
        if self.power != 1.0:
            coeff = f"({coeff})^{self.power:g}"
        return f"{coeff} * 2^{self.exp2:g} * e^{self.expe:g}"


def _power(base: float, q: float) -> dict:
    """The coeff and power of a constant's factor base^q: base^q in float,
    unless it falls below the normal floats while base is positive.  Then
    the float power has lost digits, or all of them to 0.0, and the value
    takes the power inside its one 50-digit exponent instead."""
    coeff = base ** q
    if 0.0 < base and coeff < sys.float_info.min:
        return {"coeff": base, "power": q}
    return {"coeff": coeff}


class BoundReport(NamedTuple):
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


def _formula(name: str):
    """Register a formula in FORMULAS, with the parameters names gives it.  A
    call whose report holds a float that is not finite (the value or a
    parameter), or that overflows or divides by zero on the way, raises
    ValueError naming the formula."""
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
            if report.value == 0.0 < report.constant.coeff:
                raise ValueError(f"formula {name} is positive but below the smallest float "
                                 f"at these parameters")
            return report
        FORMULAS[name] = (checked, FORMULA_PARAMS[name])
        return checked
    return register


@_formula("extrap-c")
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
    if threshold == 0.0:
        raise ValueError(f"r={r:g} leaves b no admissible value: the upper end "
                         f"2^(-2p/rho + p - 1) of its range underflows to 0 at p={p:g}, "
                         f"rho={rho:g}")
    if not 0 < b < threshold:
        raise ValueError(f"b must lie in (0, {threshold:.6g}) for rho={rho:g}")
    from decimal import Decimal, localcontext

    with localcontext(_context()):
        pp, qq, aa, bb, rr = map(Decimal, (p, q, A, b, rho))
        # beta = (2^(2p/rho - p + 1) b)^(-1/q), its log taken term by term
        beta = _exp(-((2 * pp / rr - pp + 1) * _logs()[0] + _ln(bb)) / qq)
        delta = _pow((_pow(beta, rr) - 1) / (2 * _pow(aa, rr) + 1), 1 / rr)
        bracket = _pow(2, 2 * pp / rr - pp + 2 * qq / rr - qq + 1) * (
            _pow(2, 2 * qq) + _pow(2, qq / rr)
        ) * _pow(beta / delta, qq / rr) + _pow(1 - _pow(2, -rr), -qq / rr)
        coeff = float(bracket)
    # 2q/rho - q + 2 is often halfway between two floats (q + 2 at r = 1),
    # which 50 digits cannot tell: it is rounded once, from its exact value
    (qn, qd), (rn, rd) = q.as_integer_ratio(), rho.as_integer_ratio()
    exp2 = (2 * qn * rd - qn * rn + 2 * qd * rn) / (qd * rn)
    return BoundReport(
        formula="extrap-c",
        params={"p": p, "q": q, "A": A, "b": b, "r": r, "rho": rho,
                "beta": float(beta), "delta": float(delta)},
        constant=SymbolicConstant(coeff=coeff, exp2=exp2),
    )


@_formula("phi-growth")
def phi_moment_constant(p: float, q: float, d_const: float = 1.0) -> BoundReport:
    """Growth-q moment bound from a p-th moment bound with constant d_const:
    K <= e^q 2^(3q/p + p + 7q + 7) (q/p)^q d_const^q."""
    if q < p or p <= 0:
        raise ValueError("need 0 < p <= q")
    if d_const < 0:
        raise ValueError("need d_const >= 0")
    return BoundReport(
        formula="phi-growth",
        params={"p": p, "q": q, "d_const": d_const},
        constant=SymbolicConstant(
            **_power(q / p * d_const, q),
            exp2=3.0 * q / p + p + 7.0 * q + 7.0,
            expe=q,
        ),
    )


@_formula("exponent-shift")
def exponent_shift_constant(p: float, q: float, d_const: float = 1.0) -> BoundReport:
    """Exponent upgrade for the decoupling constant itself:
    D_q <= e 2^(3/p + p/q + 7 + 7/q) (q/p) D_p."""
    if q < p or p <= 0:
        raise ValueError("need 0 < p <= q")
    if d_const < 0:
        raise ValueError("need d_const >= 0")
    return BoundReport(
        formula="exponent-shift",
        params={"p": p, "q": q, "d_const": d_const},
        constant=SymbolicConstant(
            coeff=q / p * d_const,
            exp2=3.0 / p + p / q + 7.0 + 7.0 / q,
            expe=1.0,
        ),
    )


@_formula("hilbert-phi")
def hilbert_phi_constant(q: float, d_const: float = 1.0) -> BoundReport:
    """Growth-q moment bound in inner-product spaces: e^q 2^(11 + 8q) d_const^q."""
    if q <= 0:
        raise ValueError("need q > 0")
    if d_const < 0:
        raise ValueError("need d_const >= 0")
    return BoundReport(
        formula="hilbert-phi",
        params={"q": q, "d_const": d_const},
        constant=SymbolicConstant(**_power(d_const, q), exp2=11.0 + 8.0 * q, expe=q),
    )


@_formula("supnorm-upper")
def sup_norm_upper_bound(p: float, d: int, scalar_const: float = 1.0) -> BoundReport:
    """In sup-norm coordinates the constant is at most twice the scalar one,
    provided the dimension is small relative to the exponent: 2^p >= d."""
    if d < 1 or p <= 0:
        raise ValueError("need d >= 1, p > 0")
    if scalar_const < 0:
        raise ValueError("need scalar_const (the scalar d_const) >= 0")
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


@_formula("logdim-lower")
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
