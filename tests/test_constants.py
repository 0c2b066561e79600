import math

import numpy as np
import pytest

import decoupling_lab.constants as ct
import decoupling_lab.probmodel as pm
from decoupling_lab.rng import stream
from decoupling_lab.spaces import euclid, seq_lp, sup_norm


# frozen reference values, computed independently with 50-digit arithmetic
EXTRAP_BANACH_REF = 1074359.687633217758  # p=2 q=2 A=1 b=2^-4, equals 64(160(6+3sqrt2)^2+1)
EXTRAP_QUASI_REF = 1.0722849403782721e18  # p=2 q=2 A=1 b=2^-8, r=0.5
SHIFT_REF = 9362.609951541345             # p=2 q=4: e * 2^11.75
PHI_GROWTH_REF = 7684006504512088.4       # p=2 q=4: e^4 * 2^47
HILBERT_REF = 991742321.6634183           # q=2: e^2 * 2^27


def test_symbolic_constant():
    c = ct.SymbolicConstant(coeff=3.0, exp2=2.0)
    assert c.value == pytest.approx(12.0, rel=1e-15)
    assert "2^2" in c.expression()
    e = ct.SymbolicConstant(coeff=1.0, expe=1.0)
    assert e.value == pytest.approx(math.e, rel=1e-15)


def test_extrapolation_constant_banach_point():
    bound = ct.extrapolation_constant(2.0, 2.0, 1.0, 2.0 ** -4)
    assert bound.value == pytest.approx(EXTRAP_BANACH_REF, rel=1e-12)
    root = math.sqrt(2.0)
    closed = 64.0 * (160.0 * (6.0 + 3.0 * root) ** 2 + 1.0)
    assert bound.value == pytest.approx(closed, rel=1e-12)


def test_extrapolation_constant_quasi_point():
    bound = ct.extrapolation_constant(2.0, 2.0, 1.0, 2.0 ** -8, r=0.5)
    assert bound.value == pytest.approx(EXTRAP_QUASI_REF, rel=1e-12)
    assert bound.params["rho"] == 0.5


def test_extrapolation_collapses_at_r1():
    # with r = 1 and p >= 1 the general form reduces to
    # 2^(2q+2) [2^(p+q+1) (2^q+1) (2A+1)^q (1 - (2^(p+1) b)^(1/q))^(-q) + 1]
    gen = stream(1, "collapse")
    for _ in range(25):
        p = float(gen.uniform(1.0, 4.0))
        q = float(gen.uniform(0.3, 4.0))
        A = float(gen.uniform(0.0, 3.0))
        b = float(gen.uniform(0.01, 0.99)) * 2.0 ** (-p - 1.0)
        got = ct.extrapolation_constant(p, q, A, b).value
        inner = (1.0 - (2.0 ** (p + 1.0) * b) ** (1.0 / q)) ** -q
        want = 2.0 ** (2 * q + 2) * (
            2.0 ** (p + q + 1.0) * (2.0 ** q + 1.0) * (2.0 * A + 1.0) ** q * inner + 1.0
        )
        assert got == pytest.approx(want, rel=1e-10)


def test_extrapolation_domain():
    with pytest.raises(ValueError, match="b must lie"):
        ct.extrapolation_constant(2.0, 2.0, 1.0, 0.2)  # above the 2^-3 threshold
    with pytest.raises(ValueError, match="b must lie"):
        ct.extrapolation_constant(2.0, 2.0, 1.0, 2.0 ** -3)  # exactly the threshold
    with pytest.raises(ValueError):
        ct.extrapolation_constant(2.0, 2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        ct.extrapolation_constant(-1.0, 2.0, 1.0, 0.01)
    with pytest.raises(ValueError):
        ct.extrapolation_constant(2.0, 2.0, 1.0, 0.01, r=1.5)
    # b just below the threshold is fine
    assert ct.extrapolation_constant(2.0, 2.0, 1.0, 2.0 ** -3 * 0.999).value > 0


def test_extrapolation_floor():
    # even in the friendliest regime the constant stays above 2^(2q+2)
    for q in (1.0, 2.0, 3.0):
        bound = ct.extrapolation_constant(1.0, q, 0.0, 1e-12)
        assert bound.value >= 2.0 ** (2 * q + 2)


def test_exponent_shift_point():
    bound = ct.exponent_shift_constant(2.0, 4.0)
    assert bound.value == pytest.approx(SHIFT_REF, rel=1e-12)
    assert bound.value == pytest.approx(math.e * 2.0 ** 11.75, rel=1e-12)
    with pytest.raises(ValueError):
        ct.exponent_shift_constant(4.0, 2.0)


def test_exponent_shift_consistency():
    # the q = p instance must dominate the identity, factor e 2^(8 + 10/p) > 1
    for p in (0.5, 1.0, 2.0, 4.0, 8.0):
        assert ct.exponent_shift_constant(p, p).value > 1.0


def test_phi_growth_point():
    bound = ct.phi_moment_constant(2.0, 4.0)
    assert bound.value == pytest.approx(PHI_GROWTH_REF, rel=1e-12)
    assert bound.value == pytest.approx(math.e ** 4 * 2.0 ** 47, rel=1e-12)
    with pytest.raises(ValueError):
        ct.phi_moment_constant(4.0, 2.0)


def test_hilbert_phi_point():
    bound = ct.hilbert_phi_constant(2.0)
    assert bound.value == pytest.approx(HILBERT_REF, rel=1e-12)
    assert bound.value == pytest.approx(math.e ** 2 * 2.0 ** 27, rel=1e-12)
    with pytest.raises(ValueError):
        ct.hilbert_phi_constant(0.0)


def test_supnorm_upper_bound():
    bound = ct.sup_norm_upper_bound(3.0, 8)
    assert bound.applies
    assert bound.params["kernel"] == 2.0  # dyadic case is exact, not just close
    assert bound.value == 2.0
    assert not ct.sup_norm_upper_bound(2.0, 16).applies
    assert ct.sup_norm_upper_bound(4.0, 16).applies
    assert ct.sup_norm_upper_bound(2.0, 4).applies  # boundary 2^p = d counts
    one = ct.sup_norm_upper_bound(0.5, 1)
    assert one.applies and one.params["kernel"] == 1.0
    with pytest.raises(ValueError):
        ct.sup_norm_upper_bound(2.0, 0)


def test_log_dim_lower_bound():
    assert ct.log_dim_lower_bound(2.0, 16).value == pytest.approx(0.5, rel=1e-14)
    # grows with dimension, shrinks with p above 2
    assert ct.log_dim_lower_bound(2.0, 256).value > ct.log_dim_lower_bound(2.0, 16).value
    assert ct.log_dim_lower_bound(5.0, 16).value < ct.log_dim_lower_bound(2.0, 16).value
    with pytest.raises(ValueError):
        ct.log_dim_lower_bound(2.0, 1)


def test_formula_registry():
    assert set(ct.FORMULAS) == {
        "extrap-c",
        "phi-growth",
        "exponent-shift",
        "hilbert-phi",
        "supnorm-upper",
        "logdim-lower",
    }
    report = ct.sup_norm_upper_bound(2.0, 16).as_dict()
    assert report["applies"] is False and report["condition"] == "2^p >= d"


# ---------------------------------------------------------------------------
# measured ratios


def test_ratio_is_one_in_hilbert_space_at_p2():
    gen = stream(2, "hilbert")
    for _ in range(5):
        tree = pm.random_tree(gen, 4)
        seq = pm.random_multiplier_sequence(gen, tree, euclid(3))
        assert ct.ratio(pm.decouple(seq), 2.0) == pytest.approx(1.0, abs=1e-10)


def test_ratio_is_one_for_deterministic_multipliers():
    # nonrandom coefficients: f and g have the same law at every exponent
    tree = pm.paley_walsh(3)
    mults = [np.full((tree.num_nodes(n - 1), 2), [1.0, -2.0]) for n in range(1, 4)]
    seq = pm.AdaptedSequence.from_multipliers(tree, seq_lp(1.0, 2), mults)
    for p in (0.5, 1.0, 3.0):
        assert ct.ratio(pm.decouple(seq), p) == pytest.approx(1.0, abs=1e-12)


def test_ratio_reciprocity():
    gen = stream(3, "recip")
    pair = pm.random_pair(gen, sup_norm(3), max_depth=3)
    up = ct.ratio(pair, 3.0, "decouple-upper")
    lo = ct.ratio(pair, 3.0, "decouple-lower")
    assert up * lo == pytest.approx(1.0, rel=1e-12)
    plus = ct.ratio(pair, 3.0, "randomized-plus")
    minus = ct.ratio(pair, 3.0, "randomized-minus")
    assert plus * minus == pytest.approx(1.0, rel=1e-12)


def test_randomization_equals_decoupling_on_sign_trees():
    gen = stream(4, "rand-eq")
    tree = pm.paley_walsh(4)
    seq = pm.random_multiplier_sequence(gen, tree, euclid(2))
    pair = pm.decouple(seq)
    for p in (1.0, 2.0, 4.0):
        assert ct.ratio(pair, p, "randomized-minus") == pytest.approx(
            ct.ratio(pair, p, "decouple-upper"), rel=1e-10
        )


def test_ratio_accepts_bare_sequence():
    seq = pm.random_multiplier_sequence(stream(5, "bare"), pm.paley_walsh(2), euclid(1))
    assert ct.ratio(seq, 2.0) == pytest.approx(1.0, abs=1e-10)


def test_ratio_validation():
    pair = pm.random_pair(stream(6, "val"), euclid(2), max_depth=2)
    with pytest.raises(ValueError):
        ct.ratio(pair, 2.0, "upwards")
    with pytest.raises(ValueError):
        ct.ratio(pair, 2.0, method="guess")
    copy = pm.independent_copy(pair.seq)
    with pytest.raises(pm.ModelError):
        ct.ratio(copy, 2.0)
    tree = pm.paley_walsh(2)
    zero = pm.AdaptedSequence(tree, euclid(1), [np.zeros((1, 2, 1)), np.zeros((2, 2, 1))])
    with pytest.raises(pm.ModelError, match="degenerate"):
        ct.ratio(zero, 2.0)


def test_ratio_mc_agrees_with_exact():
    gen = stream(7, "mc")
    pair = pm.random_pair(gen, sup_norm(2), max_depth=3)
    exact = ct.ratio(pair, 2.0)
    mc = ct.ratio(pair, 2.0, method="mc", samples=40_000, seed=1)
    assert mc == pytest.approx(exact, rel=0.05)
    assert ct.ratio(pair, 2.0, method="mc", samples=40_000, seed=1) == mc


@pytest.mark.parametrize("direction", ["randomized-plus", "randomized-minus"])
def test_ratio_mc_covers_only_the_decouple_directions(direction):
    pair = pm.random_pair(stream(7, "mc"), sup_norm(2), max_depth=3)
    with pytest.raises(ValueError, match="decouple-upper and decouple-lower"):
        ct.ratio(pair, 2.0, direction, method="mc", samples=100)
    assert ct.ratio(pair, 2.0, direction) > 0


# ---------------------------------------------------------------------------
# witnesses and search


def test_witness_replay():
    est = ct.search_worst_case(
        sup_norm(2), 2.0, family="supnorm-signs", budget=120, restarts=2, seed=0
    )
    replayed = ct.ratio(ct.replay_witness(est.witness), est.p, est.direction)
    assert replayed == pytest.approx(est.ratio, abs=1e-9)
    assert est.witness_hash and len(est.witness_hash) == 16
    again = ct.search_worst_case(
        sup_norm(2), 2.0, family="supnorm-signs", budget=120, restarts=2, seed=0
    )
    assert again.witness_hash == est.witness_hash
    assert again.ratio == est.ratio


def test_estimate_from_flat_round_trip():
    tree = pm.paley_walsh(2)
    slots = sum(tree.num_nodes(n - 1) for n in (1, 2))
    flat = np.ones(slots)
    est = ct.estimate_from_flat("supnorm-signs", 2, sup_norm(1), flat, 2.0, "decouple-upper")
    assert est.ratio == pytest.approx(1.0, abs=1e-12)
    d = est.as_dict()
    assert d["space"] == "linf:1" and "witness" in d


def test_search_budget_edge_cases():
    est = ct.search_worst_case(
        sup_norm(2), 2.0, family="supnorm-signs", budget=0, restarts=1, seed=0
    )
    assert est.evaluations == 1
    assert est.ratio > 0


def test_search_budget_monotone():
    small = ct.search_worst_case(
        sup_norm(2), 2.0, family="supnorm-signs", budget=20, restarts=4, seed=0
    )
    big = ct.search_worst_case(
        sup_norm(2), 2.0, family="supnorm-signs", budget=800, restarts=4, seed=0
    )
    assert big.ratio >= small.ratio - 1e-12


def test_search_on_hilbert_space_finds_nothing():
    est = ct.search_worst_case(
        euclid(2), 2.0, family="paley-walsh-multipliers", budget=60, restarts=2, seed=0
    )
    assert est.ratio == pytest.approx(1.0, abs=1e-9)


def test_search_warm_start():
    base = ct.search_worst_case(
        sup_norm(2), 2.0, family="supnorm-signs", budget=800, restarts=4, seed=0
    )
    flat = np.concatenate([np.ravel(m) for m in base.witness["multipliers"]])
    warm = ct.search_worst_case(
        sup_norm(2), 2.0, family="supnorm-signs",
        budget=1, restarts=1, seed=0, init=flat,
    )
    assert warm.ratio == pytest.approx(base.ratio, abs=1e-12)


def test_search_validation():
    with pytest.raises(ValueError, match="unknown family"):
        ct.search_worst_case(euclid(2), 2.0, family="mystery")
    with pytest.raises(pm.ModelError):
        ct.search_worst_case(euclid(2), 2.0, family="supnorm-signs")


# ---------------------------------------------------------------------------
# embeddings that preserve observed ratios


def test_coordinate_duplication_preserves_sup_ratio():
    est = ct.search_worst_case(
        sup_norm(2), 2.0, family="supnorm-signs", budget=400, restarts=2, seed=0
    )
    mults = [np.asarray(m, dtype=float) for m in est.witness["multipliers"]]
    tiled = [np.tile(m, (1, 8)) for m in mults]
    tree = pm.paley_walsh(est.witness["depth"])
    big = pm.AdaptedSequence.from_multipliers(tree, sup_norm(16), tiled)
    assert ct.ratio(pm.decouple(big), 2.0) == pytest.approx(est.ratio, rel=1e-12)


def test_scalar_witness_lifts_into_lp():
    gen = stream(8, "lift")
    tree = pm.paley_walsh(3)
    seq = pm.random_general_sequence(gen, tree, euclid(1))
    p = 0.5
    base = ct.ratio(pm.decouple(seq), p)
    lifted_tables = [
        np.concatenate([t, np.zeros((t.shape[0], t.shape[1], 2))], axis=2)
        for t in seq.tables
    ]
    lifted = pm.AdaptedSequence(tree, seq_lp(p, 3), lifted_tables)
    assert ct.ratio(pm.decouple(lifted), p) == pytest.approx(base, rel=1e-12)
