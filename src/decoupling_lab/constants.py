"""Decoupling-constant estimation and explicit bound formulas.

Two halves.  The estimation half measures moment ratios on concrete finite
models and searches small model families for worst cases; every estimate
carries a replayable witness.  The formula half evaluates closed-form upper
and lower bounds in high precision via mpmath and reports them with their
validity predicates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .probmodel import (
    AdaptedSequence,
    ModelError,
    TangentPair,
    decouple,
    g_terminal_moment,
    paley_walsh,
    sample_paths,
    sign_randomized_moment,
    symmetric_three_point,
)
from .reports import config_hash
from .rng import stream
from .spaces import Space, format_space, parse_space

DIRECTIONS = (
    "decouple-upper",
    "decouple-lower",
    "randomized-plus",
    "randomized-minus",
)


# ---------------------------------------------------------------------------
# closed-form bounds


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


def hilbert_phi_constant(q: float, d_const: float = 1.0) -> BoundReport:
    """Growth-q moment bound in inner-product spaces: e^q 2^(11 + 8q) d_const^q."""
    if q <= 0:
        raise ValueError("need q > 0")
    return BoundReport(
        formula="hilbert-phi",
        params={"q": q, "d_const": d_const},
        constant=SymbolicConstant(coeff=d_const ** q, exp2=11.0 + 8.0 * q, expe=q),
    )


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


FORMULAS = {
    "extrap-c": (extrapolation_constant, ("p", "q", "A", "b", "r")),
    "phi-growth": (phi_moment_constant, ("p", "q", "d_const")),
    "exponent-shift": (exponent_shift_constant, ("p", "q", "d_const")),
    "hilbert-phi": (hilbert_phi_constant, ("q", "d_const")),
    "supnorm-upper": (sup_norm_upper_bound, ("p", "d", "scalar_const")),
    "logdim-lower": (log_dim_lower_bound, ("p", "d")),
}


# ---------------------------------------------------------------------------
# ratio measurement


def _require_pair(target) -> TangentPair:
    if isinstance(target, TangentPair):
        if target.mode != "decoupled":
            raise ModelError("ratios are defined against the decoupled companion")
        return target
    if isinstance(target, AdaptedSequence):
        return decouple(target)
    raise ModelError(f"cannot measure ratios on {type(target).__name__}")


def ratio(
    target,
    p: float,
    direction: str = "decouple-upper",
    method: str = "exact",
    samples: int = 100_000,
    seed: int = 0,
) -> float:
    """Observed constant of the chosen comparison on this model.

    decouple-upper measures (E||f||^p / E||g||^p)^(1/p), whose supremum over
    models is the upper decoupling constant; decouple-lower the reciprocal
    ratio.  randomized-plus/minus compare f against the sign-randomized sum
    sum_k eps_k d_k in the corresponding order.  method "mc" samples the
    decoupled pair and so covers the two decouple directions only.
    """
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    pair = _require_pair(target)
    seq = pair.seq
    if method == "exact":
        f_mom = seq.terminal_moment(p)
        if direction.startswith("decouple"):
            other = g_terminal_moment(pair, p)
        else:
            other = sign_randomized_moment(seq, p)
    elif method == "mc":
        if not direction.startswith("decouple"):
            raise ValueError(
                f"method 'mc' supports only the decouple-upper and decouple-lower "
                f"directions, got {direction!r}; use method 'exact'")
        batch = sample_paths(pair, samples, seed)
        f_mom = float(np.mean(seq.space.norms(batch.f_terminal) ** p))
        other = float(np.mean(seq.space.norms(batch.g_terminal) ** p))
    else:
        raise ValueError(f"unknown method {method!r}")
    if direction in ("decouple-upper", "randomized-minus"):
        num, den = f_mom, other
    else:
        num, den = other, f_mom
    if den <= 0:
        raise ModelError("degenerate model: zero moment in the denominator")
    return (num / den) ** (1.0 / p)


# ---------------------------------------------------------------------------
# worst-case search over small model families


@dataclass(frozen=True)
class ConstantEstimate:
    space: str
    p: float
    direction: str
    ratio: float
    method: str
    samples: int
    seed: int
    witness: dict
    witness_hash: str
    evaluations: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


FAMILIES = {
    "paley-walsh-multipliers": ((1.0, -1.0, 2.0, -2.0, 4.0, -4.0), "paley-walsh"),
    "gaussian-multipliers": ((1.0, -1.0, 2.0, -2.0, 4.0, -4.0), "three-point"),
    "supnorm-signs": ((1.0, -1.0), "paley-walsh"),
}


def _family_tree(kind: str, depth: int):
    if kind == "paley-walsh":
        return paley_walsh(depth)
    if kind == "three-point":
        return symmetric_three_point(depth)
    raise ValueError(f"unknown tree kind {kind!r}")


def _split_multipliers(tree, dim: int, flat: np.ndarray) -> list[np.ndarray]:
    """Flat slot vector back into per-level multiplier matrices."""
    out = []
    offset = 0
    for n in range(1, tree.depth + 1):
        count = tree.num_nodes(n - 1) * dim
        out.append(flat[offset : offset + count].reshape(tree.num_nodes(n - 1), dim))
        offset += count
    return out


def make_witness(family: str, depth: int, space: Space, flat: np.ndarray) -> dict:
    return {
        "family": family,
        "tree": FAMILIES[family][1],
        "depth": depth,
        "space": format_space(space),
        "multipliers": [row.tolist() for row in _split_multipliers(_family_tree(FAMILIES[family][1], depth), space.dim, flat)],
    }


def replay_witness(witness: dict) -> TangentPair:
    """Rebuild the exact model an estimate was measured on."""
    tree = _family_tree(witness["tree"], witness["depth"])
    space = parse_space(witness["space"])
    mults = [np.asarray(m, dtype=float) for m in witness["multipliers"]]
    return decouple(AdaptedSequence.from_multipliers(tree, space, mults))


def estimate_from_flat(
    family: str, depth: int, space: Space, flat: np.ndarray, p: float, direction: str,
    method: str = "exact", samples: int = 0, seed: int = 0, evaluations: int = 0,
) -> ConstantEstimate:
    witness = make_witness(family, depth, space, flat)
    value = ratio(replay_witness(witness), p, direction, method=method, samples=samples, seed=seed)
    return ConstantEstimate(
        space=format_space(space),
        p=p,
        direction=direction,
        ratio=value,
        method=method,
        samples=samples,
        seed=seed,
        witness=witness,
        witness_hash=config_hash(witness)[:16],
        evaluations=evaluations,
    )


def search_worst_case(
    space: Space,
    p: float,
    direction: str = "decouple-upper",
    family: str = "paley-walsh-multipliers",
    budget: int = 400,
    restarts: int = 4,
    seed: int = 0,
    depth: int = 3,
) -> ConstantEstimate:
    """Greedy coordinate-ascent search for a large observed ratio.

    Deterministic for fixed (seed, family, depth): candidates are visited in
    a fixed order and the budget counts ratio evaluations, so enlarging the
    budget extends the same trajectory and the result is monotone in it.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    budget = max(1, budget)  # budget 0 still scores the first candidate
    alphabet, tree_kind = FAMILIES[family]
    if family == "supnorm-signs" and space.kind != "sup":
        raise ModelError("supnorm-signs searches sup-norm spaces")
    tree = _family_tree(tree_kind, depth)
    slots = sum(tree.num_nodes(n - 1) for n in range(1, depth + 1)) * space.dim

    def evaluate(flat: np.ndarray) -> float:
        mults = _split_multipliers(tree, space.dim, flat)
        seq = AdaptedSequence.from_multipliers(tree, space, mults)
        return ratio(decouple(seq), p, direction)

    best_flat, best_val = None, -math.inf
    evals = 0
    for restart in range(restarts):
        if evals >= budget:
            break
        gen = stream(seed, "search", family, restart)
        flat = np.array(alphabet)[gen.integers(0, len(alphabet), size=slots)]
        evals += 1
        val = evaluate(flat)
        if val > best_val:
            best_flat, best_val = flat.copy(), val
        improved = True
        while improved and evals < budget:
            improved = False
            for slot in range(slots):
                for letter in alphabet:
                    if letter == flat[slot]:
                        continue
                    if evals >= budget:
                        break
                    cand = flat.copy()
                    cand[slot] = letter
                    evals += 1
                    cand_val = evaluate(cand)
                    if cand_val > val + 1e-15:
                        flat, val = cand, cand_val
                        improved = True
                        if val > best_val:
                            best_flat, best_val = flat.copy(), val
                else:
                    continue
                break
    return estimate_from_flat(
        family, depth, space, best_flat, p, direction, evaluations=evals, seed=seed
    )
