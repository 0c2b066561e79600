"""The closed forms in decimal: the 50-digit helpers against decimal's own
correctly rounded functions, every formula against the mpmath evaluation it
replaced, the CLI bytes of each formula's example, and the refusals."""

import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decoupling_lab.bounds as bd
import decoupling_lab.cli as cli

# ---------------------------------------------------------------------------
# the helpers


def decimals(seed, count, low, high):
    """count 50-digit Decimals of log-uniform magnitude in [10^low, 10^high), either sign."""
    gen, ctx = random.Random(seed), bd._context()
    return [ctx.create_decimal(gen.choice((-1, 1)) * 10.0 ** gen.uniform(low, high)
                               * (1 + gen.random() / 3)) for _ in range(count)]


def relative_gap(got, want):
    wide = bd._context(120)
    return float(abs(wide.divide(wide.subtract(got, want), want)))


def test_logs_are_decimals_own():
    ctx = bd._context()
    assert bd._logs() == (ctx.ln(2), ctx.ln(10))


def test_exp_and_ln_agree_with_decimal_to_50_digits():
    wide = bd._context(70)
    for y in decimals(1, 500, -6, 4):
        assert relative_gap(bd._exp(y), wide.exp(y)) < 1e-49
    # ln is off by some 10^-50 absolutely, which is what e^(y ln x) needs
    for x in decimals(2, 500, -300, 300):
        want = wide.ln(abs(x))
        gap = abs(wide.subtract(bd._ln(abs(x)), want))
        assert gap < 1e-49 * max(1.0, abs(float(want)))


def test_pow_agrees_with_decimal_to_50_digits():
    # e^(y ln x) is off by some |y| units of the 50th digit of ln x
    wide = bd._context(70)
    gen = random.Random(3)
    for x in decimals(4, 300, -5, 5):
        x = abs(x)
        for y in (bd._context().create_decimal(gen.uniform(-40, 40)), wide.create_decimal(
                gen.randint(-300, 300))):
            scale = 1 + abs(float(y)) * max(1.0, abs(math.log(x)))
            assert relative_gap(bd._pow(x, y), wide.power(x, y)) < 1e-49 * scale


def test_helpers_keep_decimals_edge_cases():
    ctx = bd._context()
    zero, inf = ctx.create_decimal(0), ctx.create_decimal("Infinity")
    assert bd._exp(zero) == 1 and bd._exp(-inf) == 0 and bd._exp(inf) == inf
    assert bd._ln(zero) == -inf and bd._pow(zero, ctx.create_decimal("0.5")) == 0
    for huge in ("1e19", "2.4e18"):  # e^y past the exponent range: an ArithmeticError
        with pytest.raises(ArithmeticError):
            bd._exp(ctx.create_decimal(huge))
    assert bd._exp(ctx.create_decimal("-1e19")) == 0
    with pytest.raises(ArithmeticError):
        bd._ln(ctx.create_decimal(-1))


# ---------------------------------------------------------------------------
# parity with the mpmath evaluation
#
# The two functions below are the mpmath code the decimal one replaced, kept
# as the oracle: SymbolicConstant.value, and the extrap-c formula.


def mpmath_value(coeff, exp2, expe, power=1.0):
    mp = pytest.importorskip("mpmath")

    with mp.workdps(50):
        return float(
            mp.mpf(coeff) ** mp.mpf(power) * mp.power(2, mp.mpf(exp2)) * mp.e ** mp.mpf(expe)
        )


def mpmath_extrapolation(p, q, A, b, r=1.0):
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
    return bd.BoundReport(
        formula="extrap-c",
        params={"p": p, "q": q, "A": A, "b": b, "r": r, "rho": rho,
                "beta": float(beta), "delta": float(delta)},
        constant=bd.SymbolicConstant(coeff=coeff, exp2=float(exp2)),
    )


def mpmath_row(name, kwargs):
    """The formula's row as the mpmath code gave it, or None where _formula
    refuses: a domain error, an ArithmeticError, a float that is not finite,
    or a positive constant whose value rounds to 0.0.  Apart from extrap-c,
    the formulas' float code is unchanged, so only the value is evaluated
    anew."""
    try:
        if name == "extrap-c":
            report = mpmath_extrapolation(**kwargs)
        else:
            report = bd.FORMULAS[name][0].__wrapped__(**kwargs)
        row = {**report.as_dict(), "value": mpmath_value(*report.constant)}
    except (ValueError, ArithmeticError):
        return None
    numbers = (row["value"], *row["params"].values())
    if row["value"] == 0.0 < report.constant.coeff:
        return None  # a positive constant below the floats is refused, not shown as 0.0
    return row if all(math.isfinite(x) for x in numbers if isinstance(x, float)) else None


def decimal_row(name, kwargs):
    try:
        return bd.FORMULAS[name][0](**kwargs).as_dict()
    except ValueError:
        return None


def reals(low, high, *extremes):
    """Floats in [low, high], and about one time in four one of the extremes."""
    plain = st.floats(low, high)
    return st.one_of(plain, plain, plain, st.sampled_from(extremes)) if extremes else plain


EXTREMES = (5e-324, 1e-300, 1e300, math.inf)


@st.composite
def extrapolation_args(draw):
    """Inside the domain, where the formula has most of its arithmetic to do:
    b a fraction of its admissible range (empty once that underflows)."""
    p, q = draw(st.floats(0.05, 20.0)), draw(st.floats(0.05, 20.0))
    r, A = draw(reals(1e-3, 1.0, 1.0, 0.5, 0.25)), draw(reals(0.0, 100.0, 0.0, 1.0))
    rho = min(r, p)
    b = 2.0 ** (-2.0 * p / rho + p - 1.0) * draw(st.floats(1e-6, 0.999))
    return {"p": p, "q": q, "A": A, "b": b, "r": r}


FORMULA_ARGS = {
    "extrap-c": extrapolation_args(),
    "phi-growth": st.builds(lambda p, k, d: {"p": p, "q": p * k, "d_const": d},
                            reals(0.05, 20.0, *EXTREMES), reals(1.0, 50.0, 1e300),
                            reals(0.0, 1e3, 0.0, 1e-300, 1e300)),
    "exponent-shift": st.builds(lambda p, k, d: {"p": p, "q": p * k, "d_const": d},
                                reals(0.05, 20.0, *EXTREMES), reals(1.0, 50.0, 1e300),
                                reals(0.0, 1e3, 0.0, 1e-300, 1e300)),
    "hilbert-phi": st.builds(lambda q, d: {"q": q, "d_const": d},
                             reals(0.01, 200.0, *EXTREMES), reals(0.0, 1e3, 0.0, 1e-300, 1e300)),
    "supnorm-upper": st.builds(lambda p, d, c: {"p": p, "d": d, "scalar_const": c},
                               reals(0.05, 20.0, *EXTREMES), st.integers(1, 10 ** 6),
                               reals(0.0, 1e3, 1e-300, 1e300)),
    "logdim-lower": st.builds(lambda p, d: {"p": p, "d": d},
                              reals(0.05, 20.0, *EXTREMES), st.integers(2, 10 ** 6)),
}


def test_parity_covers_every_formula():
    assert set(FORMULA_ARGS) == set(bd.FORMULAS)


@pytest.mark.parametrize("name", sorted(FORMULA_ARGS))
def test_decimal_gives_the_mpmath_floats(name):
    pytest.importorskip("mpmath")

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(FORMULA_ARGS[name])
    def check(kwargs):
        # the value and every float parameter equal, bit for bit, or both refused
        assert decimal_row(name, kwargs) == mpmath_row(name, kwargs)

    check()


@pytest.mark.parametrize("p", [1e-300, 2.0, 1e300, math.inf])
@pytest.mark.parametrize("q", [1e-300, 2.0, 1e300, math.inf])
def test_extrapolation_parity_at_extremes(p, q):
    pytest.importorskip("mpmath")
    for A, r, share in itertools.product((0.0, 1.0, 1e300), (1e-300, 0.5, 1.0), (0.5, 1.0)):
        rho = min(r, p)
        kwargs = {"p": p, "q": q, "A": A, "b": 2.0 ** (-2.0 * p / rho + p - 1.0) * share, "r": r}
        assert decimal_row("extrap-c", kwargs) == mpmath_row("extrap-c", kwargs)


def test_extrapolation_parity_at_halfway_exponents():
    # at r = 1 the exponent 2q/rho - q + 2 is q + 2, halfway between two
    # floats whenever q in [2, 4) has its last bit set
    pytest.importorskip("mpmath")
    gen = random.Random(5)
    for _ in range(40):
        q = math.nextafter(gen.uniform(2.0, 4.0), 4.0)
        kwargs = {"p": 2.0, "q": q, "A": gen.uniform(0.0, 3.0), "b": 0.05, "r": 1.0}
        assert decimal_row("extrap-c", kwargs) == mpmath_row("extrap-c", kwargs)


# ---------------------------------------------------------------------------
# the command line

# sha256 of `bounds --formula ... --seed 0` stdout, taken with the mpmath evaluation
BOUNDS_SHA256 = {
    ("extrap-c", "--p", "2", "--q", "4", "--A", "2", "--b", "0.1"):
        "daaecd2473a216d8cd3831e17592812165bb3d8128631fe63c200b7ee9045d9a",
    ("phi-growth", "--p", "2", "--q", "4"):
        "1b9fa1a1da306cac7dbfc9f85bc7480af40953c4ee2515222dad0d5435bf7906",
    ("exponent-shift", "--p", "2", "--q", "4"):
        "cac1e4a2afa97dfb30cd11ca0cf0f461459b98ba5e3736ac8c65fa9575ad0261",
    ("hilbert-phi", "--q", "2"):
        "99f849f163fb4e162b7eb4daf8f70b751cdbc9cbb5310b19214eef19db6def96",
    ("supnorm-upper", "--p", "3", "--d", "8"):
        "290053c8f00fd2e258d02c714d87778cdeedf7e443b6f155c4105bf5c83ed1e9",
    ("logdim-lower", "--p", "2", "--d", "16"):
        "c4e530c320920f6d9a29c45b1ac318a05cb017eb3bb0936368a600ea4ea2082b",
}


def test_bounds_examples_cover_every_formula():
    assert {argv[0] for argv in BOUNDS_SHA256} == set(bd.FORMULAS)


@pytest.mark.parametrize("argv", sorted(BOUNDS_SHA256), ids=lambda argv: argv[0])
def test_bounds_example_bytes(argv, capsys):
    assert cli.main(["bounds", "--formula", *argv, "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_SHA256[argv]


def test_extrapolation_range_lost_to_r_exits_2(capsys):
    # 2^(-2p/rho + p - 1) underflows at r = 0.001: the range of b is empty
    # whatever b is, so the message names r and does not blame b
    argv = ["bounds", "--formula", "extrap-c", "--p", "2", "--q", "4", "--A", "2",
            "--b", "0.1", "--r", "0.001"]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("decoupling-lab: r=0.001 ") and "rho=0.001" in err
    assert "b must lie" not in err


# ---------------------------------------------------------------------------
# a float power that underflows

UNDERFLOWS = [
    # formula, its parameters, and the formula itself in mpmath: each power
    # taken at 50 digits, of the float base and exponents the code forms
    ("hilbert-phi", {"q": 40.0, "d_const": 1e-10},
     lambda mp, q, d_const: mp.mpf(d_const) ** q * mp.e ** q * mp.power(2, 11 + 8 * q)),
    ("phi-growth", {"p": 1.0, "q": 60.0, "d_const": 1e-8},
     lambda mp, p, q, d_const: (mp.e ** q * mp.power(2, 3 * q / p + p + 7 * q + 7)
                                * mp.mpf(q / p * d_const) ** q)),
    ("hilbert-phi", {"q": 2.0, "d_const": 1e-160},
     lambda mp, q, d_const: mp.mpf(d_const) ** q * mp.e ** q * mp.power(2, 11 + 8 * q)),
]


@pytest.mark.parametrize("name, kwargs, formula", UNDERFLOWS, ids=lambda x: str(x))
def test_a_power_below_the_floats_is_taken_at_50_digits(name, kwargs, formula):
    # the float power is 0.0 or subnormal; the constant is a normal float
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        want = float(formula(mp, **kwargs))
    report = bd.FORMULAS[name][0](**kwargs)
    assert report.value == want > 0.0
    assert report.constant.power == kwargs["q"]
    assert report.as_dict()["expression"].startswith(f"({report.constant.coeff:.17g})^")


def test_hilbert_phi_at_q_40_and_a_small_d_const(capsys):
    argv = ["bounds", "--formula", "hilbert-phi", "--q", "40", "--d-const", "1e-10"]
    assert cli.main(argv) == 0
    row = json.loads(capsys.readouterr().out)["results"][0]
    assert row["expression"] == "(1e-10)^40 * 2^331 * e^40"
    assert row["value"] == 1.0296931909850307e-283


@pytest.mark.parametrize("argv, message", [
    # (0.5 e 2^8)^q 2^11 is far above the floats
    (["hilbert-phi", "--q", "1e300", "--d-const", "0.5"],
     "formula hilbert-phi has no finite value at these parameters"),
    # and (e 2^8 10^-300)^q 2^11 far below them, as is (e 2^8 10^-10)^q 2^11
    # at q = 1e20, though 2^(8q) alone is past decimal's exponent range
    (["hilbert-phi", "--q", "1e17", "--d-const", "1e-300"],
     "formula hilbert-phi is positive but below the smallest float at these parameters"),
    (["hilbert-phi", "--q", "1e20", "--d-const", "1e-10"],
     "formula hilbert-phi is positive but below the smallest float at these parameters"),
])
def test_a_positive_constant_is_never_shown_as_0(argv, message, capsys):
    assert cli.main(["bounds", "--formula", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"decoupling-lab: {message}\n"
