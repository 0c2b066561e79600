"""Decoupling-constant estimation.

Measures moment ratios on concrete finite models and searches small model
families for worst cases; every estimate carries a replayable witness.  The
closed-form half is in bounds; the direction and family names are in names,
which the argument parser reads too.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .names import DIRECTIONS, FAMILIES
from .probmodel import (
    BATCH_FLOATS,
    AdaptedSequence,
    ModelError,
    PairStack,
    TangentPair,
    decouple,
    g_terminal_moment,
    g_terminal_moments,
    multiplier_tables,
    paley_walsh,
    require_joint_walk,
    require_sign_patterns,
    sample_paths,
    sign_randomized_moments,
    symmetric_three_point,
    terminal_moments,
)
from .reports import config_hash
from .rng import stream
from .spaces import Space, format_space, parse_space


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
        f_mom = terminal_moments(pair.stack, p)[0]
        if direction.startswith("decouple"):
            other = g_terminal_moment(pair, p)
        else:
            other = sign_randomized_moments(pair.stack, p)[0]
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
    return _moment_ratio(f_mom, other, p, direction, seq.space)


def _moment_ratio(f_mom: float, other: float, p: float, direction: str, space: Space) -> float:
    """The direction's ratio of E||f_N||^p and the other side's p-th moment,
    to the power 1/p.  Where that power overflows (p near 0) the ratio is
    not a float: ModelError naming the direction, p and the space."""
    if direction in ("decouple-upper", "randomized-minus"):
        num, den = f_mom, other
    else:
        num, den = other, f_mom
    if den <= 0:
        raise ModelError("degenerate model: zero moment in the denominator")
    try:
        return (num / den) ** (1.0 / p)
    except OverflowError:
        raise ModelError(f"{direction}: the moment ratio to the power 1/p overflows at "
                         f"p={p:g} on {format_space(space)}") from None


def multiplier_ratios(tree, space: Space, flats: np.ndarray, p: float,
                      direction: str) -> list[float]:
    """ratio(decouple(from_multipliers(...)), p, direction) of each row of
    flats (flat multiplier vectors on one tree), bit for bit, in one pass of
    the moment engines over the batch's one PairStack."""
    tables = multiplier_tables(tree, _split_multipliers(tree, space.dim, flats))
    stack = PairStack(tree, space, tables)
    engine = g_terminal_moments if direction.startswith("decouple") else sign_randomized_moments
    return [_moment_ratio(f, other, p, direction, space)
            for f, other in zip(terminal_moments(stack, p), engine(stack, p))]


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



def _family_tree(kind: str, depth: int):
    if kind == "paley-walsh":
        return paley_walsh(depth)
    if kind == "three-point":
        return symmetric_three_point(depth)
    raise ValueError(f"unknown tree kind {kind!r}")


def _split_multipliers(tree, dim: int, flat: np.ndarray) -> list[np.ndarray]:
    """Flat slot vectors (..., slots) back into per-level multiplier arrays
    (..., num_nodes(n-1), dim)."""
    out = []
    offset = 0
    for n in range(1, tree.depth + 1):
        count = tree.num_nodes(n - 1) * dim
        shape = flat.shape[:-1] + (tree.num_nodes(n - 1), dim)
        out.append(flat[..., offset : offset + count].reshape(shape))
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
    seed: int = 0, evaluations: int = 0,
) -> ConstantEstimate:
    """The exact estimate of a witness, replayed from its serialized form."""
    witness = make_witness(family, depth, space, flat)
    value = ratio(replay_witness(witness), p, direction)
    return ConstantEstimate(
        space=format_space(space),
        p=p,
        direction=direction,
        ratio=value,
        method="exact",
        samples=0,
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

    A candidate differs from the current model in one slot, and accepting a
    letter changes only that slot, so a slot's letters are measured in one
    batch (multiplier_ratios, at most BATCH_FLOATS floats of the direction's
    engine outcomes x dim at a time, so a batch of several models fits one
    block of its engine) before the sequential accept rule is replayed over
    them.  Once a letter is accepted the slot's original letter comes up
    again; that candidate is the model before the slot, so its value is the
    one already measured.

    The batch also measures ahead: the next slots' letters against the same
    model, as many slots as the window holds within the budget and one
    batch.  The window starts at one slot and doubles after each batch whose
    slots accept nothing; an accept drops the values measured ahead and
    takes the window back to one slot.  So the search measures the letters
    the sequential rule would, and perhaps some after an accept that it
    never reaches; if a batch measured ahead raises, the slot's own letters
    are measured alone, and raise as they would one slot at a time.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    budget = max(1, budget)  # budget 0 still scores the first candidate
    alphabet, tree_kind = FAMILIES[family]
    if family == "supnorm-signs" and space.kind != "sup":
        raise ModelError("supnorm-signs searches sup-norm spaces")
    tree = _family_tree(tree_kind, depth)
    # refuse a model too large to measure before anything of its size exists
    outcomes = require_joint_walk if direction.startswith("decouple") else require_sign_patterns
    batch = max(1, BATCH_FLOATS // (outcomes(tree) * space.dim))
    slots = sum(tree.num_nodes(n - 1) for n in range(1, depth + 1)) * space.dim

    def evaluate(flats: np.ndarray) -> list[float]:
        return [value for start in range(0, len(flats), batch)
                for value in multiplier_ratios(tree, space, flats[start:start + batch],
                                               p, direction)]

    def measure(flat: np.ndarray, start: int, width: int, evals: int) -> list[dict]:
        """The letters of slots start.. against flat and their values, for
        at most width slots, the budget left after evals and one batch."""
        spans, count = [], 0
        for slot in range(start, min(start + width, slots)):
            letters = [x for x in alphabet if x != flat[slot]][:budget - evals - count]
            if not letters or (spans and count + len(letters) > batch):
                break
            spans.append(letters)
            count += len(letters)
        cands = np.repeat(flat[None], count, axis=0)
        row = 0
        for slot, letters in enumerate(spans, start):
            cands[row:row + len(letters), slot] = letters
            row += len(letters)
        values = iter(evaluate(cands))
        return [dict(zip(letters, values)) for letters in spans]

    best_flat, best_val = None, -math.inf
    evals = 0
    for restart in range(restarts):
        if evals >= budget:
            break
        gen = stream(seed, "search", family, restart)
        flat = np.array(alphabet)[gen.integers(0, len(alphabet), size=slots)]
        evals += 1
        (val,) = evaluate(flat[None])
        if val > best_val:
            best_flat, best_val = flat.copy(), val
        improved = True
        while improved and evals < budget:
            improved = False
            ahead, width = [], 1
            for slot in range(slots):
                if evals >= budget:
                    break
                if not ahead:
                    try:
                        ahead = measure(flat, slot, width, evals)
                    except (ValueError, ArithmeticError, Warning):
                        # a refusal (or a float warning raised as an error) may
                        # come from a slot ahead that the accept rule never reaches
                        ahead, width = measure(flat, slot, 1, evals), 1
                    width *= 2
                values = ahead.pop(0)
                values[flat[slot]] = val
                for letter in alphabet:
                    if letter == flat[slot]:
                        continue
                    if evals >= budget:
                        break
                    evals += 1
                    if values[letter] > val + 1e-15:
                        flat[slot], val = letter, values[letter]
                        improved = True
                        ahead, width = [], 1
                        if val > best_val:
                            best_flat, best_val = flat.copy(), val
    if best_flat is None:
        # every measured ratio was NaN: there is no witness to report
        raise ModelError(f"the search measured no finite ratio on {format_space(space)}")
    est = estimate_from_flat(
        family, depth, space, best_flat, p, direction, evaluations=evals, seed=seed
    )
    if est.ratio != best_val:
        # the batched values must be those of the model measured on its own
        raise RuntimeError(f"witness replays to {est.ratio!r}, the search measured {best_val!r}")
    return est
