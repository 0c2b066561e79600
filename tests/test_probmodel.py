import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decoupling_lab.probmodel as pm
from decoupling_lab.rng import stream
from decoupling_lab.spaces import euclid, seq_lp, sup_norm


def unit_pw_seq(depth, dim=1, exact=False):
    """Unit-multiplier sign sequence: d_n = xi_n e_1."""
    tree = pm.paley_walsh(depth, exact=exact)
    mults = [np.tile(np.eye(dim)[0], (tree.num_nodes(n - 1), 1)) for n in range(1, depth + 1)]
    return pm.AdaptedSequence.from_multipliers(tree, euclid(dim), mults)


# ---------------------------------------------------------------------------
# trees


def test_paley_walsh_tree():
    tree = pm.paley_walsh(3)
    assert tree.depth == 3
    assert tree.path_count == 8
    assert tree.sizes == (2, 2, 2)
    assert np.allclose(tree.path_probs, np.full(8, 0.125))
    assert list(tree.nodes_at(1)) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert list(tree.nodes_at(3)) == list(range(8))
    assert tree.stride(2) == 2


def test_empty_tree_rejected():
    with pytest.raises(pm.ModelError):
        pm.FiltrationTree([])


def test_level_validation():
    with pytest.raises(pm.ModelError):
        pm.Level((1.0, -1.0), (0.6, 0.6))
    with pytest.raises(pm.ModelError):
        pm.Level((1.0, -1.0), (1.0, 0.0))
    with pytest.raises(pm.ModelError):
        pm.Level((1.0,), (0.5, 0.5))


def test_ancestor_consistency():
    tree = pm.symmetric_three_point(2)
    ids = np.arange(tree.num_nodes(2))
    up = tree.ancestor(ids, 2, 1)
    assert list(up) == [i // 3 for i in range(9)]
    assert list(tree.ancestor(ids, 2, 0)) == [0] * 9


def test_exact_probabilities():
    tree = pm.paley_walsh(2, exact=True)
    assert tree.exact
    assert sum(tree.node_probs_exact(2)) == 1
    assert not pm.paley_walsh(2).exact


# ---------------------------------------------------------------------------
# adapted sequences


def test_unit_multiplier_moments():
    seq = unit_pw_seq(2)
    vals = sorted(float(v) for v in seq.terminal[:, 0])
    assert vals == [-2.0, 0.0, 0.0, 2.0]
    assert seq.terminal_moment(2.0) == pytest.approx(2.0, abs=1e-15)


def test_partial_sums_and_running_max():
    tree = pm.paley_walsh(2)
    mults = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 1.0]])]
    seq = pm.AdaptedSequence.from_multipliers(tree, euclid(2), mults)
    # f_2 = (xi_1, xi_2) on every path
    assert np.allclose(np.abs(seq.terminal), 1.0)
    assert np.allclose(seq.partial_sums[:, 1, 0], [1, 1, -1, -1])
    assert np.allclose(seq.f_star, math.sqrt(2.0))
    assert np.allclose(seq.d_star, 1.0)


def test_from_multipliers_validation():
    tree = pm.paley_walsh(2)
    with pytest.raises(pm.ModelError):
        pm.AdaptedSequence.from_multipliers(tree, euclid(1), [np.ones((1, 1))])
    with pytest.raises(pm.ModelError):
        pm.AdaptedSequence.from_multipliers(
            tree, euclid(1), [np.ones((2, 1)), np.ones((2, 1))]
        )


# ---------------------------------------------------------------------------
# tangent pairs and their verification


def test_tangency_exact_mode():
    tree = pm.paley_walsh(3, exact=True)
    gen = stream(11, "tangency")
    seq = pm.random_multiplier_sequence(gen, tree, euclid(2))
    res = pm.verify_tangency(pm.decouple(seq))
    assert res.ok and res.gap == 0


def test_conditional_independence_exact():
    gen = stream(12, "ci")
    pair = pm.random_pair(gen, seq_lp(0.5, 2), max_depth=4)
    res = pm.verify_conditional_independence(pair)
    assert res.ok and res.gap <= 1e-12


def test_copy_mode_rejected_when_predictable_data_varies():
    # |d_2| depends on xi_1, so a full independent copy is not tangent
    tree = pm.paley_walsh(2)
    mults = [np.array([[1.0]]), np.array([[2.0], [1.0]])]
    seq = pm.AdaptedSequence.from_multipliers(tree, euclid(1), mults)
    bad = pm.independent_copy(seq)
    res = pm.verify_tangency(bad)
    assert not res.ok
    assert res.gap == pytest.approx(0.25, abs=1e-12)
    good = pm.decouple(seq)
    assert pm.verify_tangency(good).ok
    assert pm.verify_conditional_independence(good).ok


def test_copy_mode_breaks_factorization():
    # |d_2| is a function of d_1, so the copy's joint law cannot factorize
    tree = pm.paley_walsh(2)
    mults = [np.array([[1.0]]), np.array([[2.0], [1.0]])]
    seq = pm.AdaptedSequence.from_multipliers(tree, euclid(1), mults)
    res = pm.verify_conditional_independence(pm.independent_copy(seq))
    assert not res.ok
    assert res.gap == pytest.approx(0.125, abs=1e-12)


def test_copy_mode_ok_for_iid_increments():
    # with constant multipliers the copy really is tangent
    seq = unit_pw_seq(2)
    pair = pm.independent_copy(seq)
    assert pm.verify_tangency(pair).ok
    assert pm.verify_conditional_independence(pair).ok


def test_tangent_mode_validation():
    seq = unit_pw_seq(1)
    with pytest.raises(pm.ModelError):
        pm.TangentPair(seq, "weird")


def test_enumeration_guard():
    seq = unit_pw_seq(12)
    pair = pm.decouple(seq)
    assert pair.joint_outcomes() == 4096 ** 2
    with pytest.raises(pm.EnumerationError):
        pair.require_enumerable()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), symmetric=st.booleans())
def test_random_pairs_are_tangent(seed, symmetric):
    gen = stream(seed, "prop-tangency")
    space = [euclid(2), seq_lp(0.5, 2), sup_norm(3)][seed % 3]
    pair = pm.random_pair(gen, space, max_depth=5, symmetric=symmetric)
    assert pm.verify_tangency(pair).gap <= 1e-12
    assert pm.verify_conditional_independence(pair).gap <= 1e-12


# ---------------------------------------------------------------------------
# the davis split


def test_davis_split_partition_and_routing():
    gen = stream(3, "davis")
    pair = pm.random_pair(gen, euclid(2), max_depth=4)
    small, big = pm.davis_split(pair)
    for s, b, t in zip(small.seq.tables, big.seq.tables, pair.seq.tables):
        assert np.allclose(s + b, t)
        assert not (s.astype(bool) & b.astype(bool)).any()


def test_davis_split_constant_increments():
    # constant increment norms: level 1 is big, later levels all small
    seq = unit_pw_seq(3)
    small, big = pm.davis_split(pm.decouple(seq))
    assert not small.seq.tables[0].any()
    assert np.array_equal(big.seq.tables[0], seq.tables[0])
    for n in (1, 2):
        assert np.array_equal(small.seq.tables[n], seq.tables[n])
        assert not big.seq.tables[n].any()


def test_davis_split_growing_increments():
    # ||d_n|| = 3^n beats 2 d*_{n-1}, so everything lands in the big part
    tree = pm.paley_walsh(3)
    mults = [np.full((tree.num_nodes(n - 1), 1), 3.0 ** n) for n in range(1, 4)]
    seq = pm.AdaptedSequence.from_multipliers(tree, euclid(1), mults)
    small, big = pm.davis_split(pm.decouple(seq))
    assert all(not t.any() for t in small.seq.tables)
    assert all(np.array_equal(a, b) for a, b in zip(big.seq.tables, seq.tables))


# ---------------------------------------------------------------------------
# exact joint moments


def test_g_moment_orthogonality():
    gen = stream(21, "orth")
    tree = pm.random_tree(gen, 4)
    seq = pm.random_multiplier_sequence(gen, tree, euclid(3))
    pair = pm.decouple(seq)
    # both sides equal the sum of increment second moments
    assert pm.g_terminal_moment(pair, 2.0) == pytest.approx(
        seq.terminal_moment(2.0), rel=1e-12
    )


def test_sign_randomization_matches_decoupling():
    # on sign filtrations eps_n xi_n is again an independent sign, so the
    # randomized and decoupled sums have the same law
    gen = stream(22, "signs")
    tree = pm.paley_walsh(3)
    seq = pm.random_multiplier_sequence(gen, tree, euclid(2))
    pair = pm.decouple(seq)
    for p in (1.0, 2.0, 3.0):
        assert pm.sign_randomized_moment(seq, p) == pytest.approx(
            pm.g_terminal_moment(pair, p), rel=1e-12
        )


def sign_moment_one_array(seq, p):
    """E||sum eps_k d_k||^p from one (2^N, paths, dim) array of signed sums."""
    n = seq.depth
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    total = np.zeros((2 ** n, seq.tree.path_count, seq.dim))
    for m in range(1, n + 1):
        total += signs[:, m - 1][:, None, None] * seq.path_increments(m)[None, :, :]
    return float((seq.space.norms(total) ** p).mean(axis=0) @ seq.tree.path_probs)


def test_sign_randomized_moment_in_blocks():
    # within one block the sums are formed in the same order as in one array
    gen = stream(24, "sign-blocks")
    tree = pm.FiltrationTree(pm.symmetric_three_point(3).levels + pm.paley_walsh(2).levels)
    small = pm.random_general_sequence(gen, tree, seq_lp(0.5, 3))
    for p in (0.5, 2.0):
        assert pm.sign_randomized_moment(small, p) == sign_moment_one_array(small, p)
    # 2^9 sign patterns x 512 paths x 16 coordinates: three blocks, the last short
    tree = pm.paley_walsh(9)
    seq = pm.random_multiplier_sequence(gen, tree, sup_norm(16))
    assert 2 ** 9 * tree.path_count * 16 > 2 * pm.BLOCK_FLOATS
    for p in (1.0, 3.0):
        assert pm.sign_randomized_moment(seq, p) == pytest.approx(
            sign_moment_one_array(seq, p), rel=1e-12)


def test_sign_randomized_budget():
    seq = unit_pw_seq(12)
    with pytest.raises(pm.EnumerationError):
        pm.sign_randomized_moment(seq, 2.0)


def test_joint_blocks_cover_product_space():
    gen = stream(23, "blocks")
    pair = pm.random_pair(gen, euclid(2), max_depth=3)
    tree = pair.tree
    mass, rows = 0.0, 0
    for w, stats in pm.joint_blocks(pair, block_rows=3):
        assert w.shape[0] <= 3 and w.shape[1] == tree.path_count
        assert stats["g_terminal"].shape == w.shape + (2,)
        assert stats["e_star"].shape == stats["g_star"].shape == w.shape
        mass += float(w.sum())
        rows += w.shape[0]
    assert mass == pytest.approx(1.0, abs=1e-12)
    # one row per depth-(N-1) head: the g side reads omega only through it
    assert rows == tree.num_nodes(tree.depth - 1)


# reference for the joint engine: every (omega, omega~) pair, by direct loops

ENGINE_LEVELS = (
    pm.Level((1.0, -1.0), (0.5, 0.5)),
    pm.Level((-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)),
    pm.Level((-0.5, 2.0), (0.7, 0.3)),
    pm.Level((-1.0, 0.5, 3.0), (0.2, 0.5, 0.3)),
)


def engine_pair(case, mode, symmetric, letters):
    """Random pair on a random tree of depth 1..4 whose levels have 2 or up
    to 3 letters; the case number fixes the depth, the space and the draws."""
    gen = stream(case, "engine-ref")
    choices = [lv for lv in ENGINE_LEVELS
               if lv.size <= letters and (lv.probs == lv.probs[::-1]) == symmetric]
    tree = pm.FiltrationTree([choices[int(gen.integers(len(choices)))]
                              for _ in range(1 + case % 4)])
    space = (euclid(2), seq_lp(0.5, 3), sup_norm(2))[case % 3]
    make = pm.random_multiplier_sequence if symmetric else pm.random_general_sequence
    return pm.TangentPair(make(gen, tree, space), mode)


def naive_joint(pair):
    """(mass, ||g_N||, e*, g*) of every (omega, omega~) pair of the product space."""
    seq, tree, space = pair.seq, pair.tree, pair.space
    probs = tree.path_probs
    out = []
    for w in range(tree.path_count):
        for wt in range(tree.path_count):
            g = np.zeros(seq.dim)
            e_star = g_star = 0.0
            for n in range(1, tree.depth + 1):
                owner = w if pair.mode == "decoupled" else wt
                parent = owner // tree.stride(n - 1)
                letter = (wt // tree.stride(n)) % tree.sizes[n - 1]
                e = seq.tables[n - 1][parent, letter]
                g = g + e
                e_star = max(e_star, space.norm(e))
                g_star = max(g_star, space.norm(g))
            out.append((probs[w] * probs[wt], space.norm(g), e_star, g_star))
    return np.array(out)


def phi_ref(x):
    return np.log1p(x) * x ** 1.5


@pytest.mark.parametrize("mode", ["decoupled", "copy"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("letters", [2, 3])
@pytest.mark.parametrize("case", range(6))
def test_joint_blocks_match_naive_product_space(mode, symmetric, letters, case):
    pair = engine_pair(case, mode, symmetric, letters)
    ref = naive_joint(pair)
    mass, g_norm, e_star, g_star = ref.T
    ts = (0.5, 1.0, 2.5)
    want = ([float(mass @ g_norm ** p) for p in (0.5, 1.0, 2.0, 3.0)]
            + [float(mass @ (e_star > t)) for t in ts]
            + [float(mass @ phi_ref(g_star))])
    for block_rows in (1, None):
        got = np.zeros(len(want))
        total = 0.0
        for w, stats in pm.joint_blocks(pair, block_rows=block_rows):
            total += float(w.sum())
            norms = pair.space.norms(stats["g_terminal"])
            got += ([float(np.sum(w * norms ** p)) for p in (0.5, 1.0, 2.0, 3.0)]
                    + [float(w[stats["e_star"] > t].sum()) for t in ts]
                    + [float(np.sum(w * phi_ref(stats["g_star"])))])
        assert total == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    # a caller gets only what it asks for, with the same values
    for key in pm.JOINT_STATS:
        part = [stats for _, stats in pm.joint_blocks(pair, (key,))]
        full = [stats for _, stats in pm.joint_blocks(pair)]
        assert all(set(a) == {key} for a in part)
        for a, b in zip(part, full):
            assert np.array_equal(a[key], b[key])
    assert pm.g_terminal_moment(pair, 2.0) == pytest.approx(want[2], rel=1e-12)


def test_joint_blocks_rejects_unknown_statistic():
    pair = pm.decouple(unit_pw_seq(2))
    with pytest.raises(ValueError, match="unknown joint statistics"):
        next(pm.joint_blocks(pair, ("f_star",)))


# ---------------------------------------------------------------------------
# sampling


def test_sample_paths_deterministic():
    gen = stream(31, "sample")
    pair = pm.random_pair(gen, euclid(2), max_depth=3)
    a = pm.sample_paths(pair, 500, seed=7)
    b = pm.sample_paths(pair, 500, seed=7)
    assert np.array_equal(a.f_terminal, b.f_terminal)
    assert np.array_equal(a.g_terminal, b.g_terminal)
    c = pm.sample_paths(pair, 500, seed=8)
    assert not np.array_equal(a.f_terminal, c.f_terminal)
    assert len(a.f_terminal) == 500


def test_sample_paths_moments_agree():
    gen = stream(32, "sample-mom")
    pair = pm.random_pair(gen, euclid(2), max_depth=3)
    batch = pm.sample_paths(pair, 40_000, seed=5)
    space = pair.space
    for values, exact in (
        (space.norms(batch.f_terminal) ** 2, pair.seq.terminal_moment(2.0)),
        (space.norms(batch.g_terminal) ** 2, pm.g_terminal_moment(pair, 2.0)),
    ):
        se = float(values.std(ddof=1) / math.sqrt(values.size))
        assert abs(float(values.mean()) - exact) <= 4.0 * se + 1e-12


# ---------------------------------------------------------------------------
# symmetry and serialization


def test_conditional_symmetry_flag():
    gen = stream(41, "sym")
    tree = pm.random_tree(gen, 3, symmetric=True)
    seq = pm.random_multiplier_sequence(gen, tree, euclid(2))
    assert seq.is_conditionally_symmetric()
    drifted = pm.AdaptedSequence(
        tree, seq.space, [t + 0.25 for t in seq.tables]
    )
    assert not drifted.is_conditionally_symmetric()


def test_symmetry_means_sign_flip_invariance():
    gen = stream(42, "symflip")
    tree = pm.random_tree(gen, 3, symmetric=True)
    seq = pm.random_multiplier_sequence(gen, tree, euclid(1))
    assert seq.is_conditionally_symmetric()
    flipped_tables = list(seq.tables)
    flipped_tables[0] = -flipped_tables[0]
    flipped = pm.AdaptedSequence(tree, seq.space, flipped_tables)
    for p in (1.0, 2.0, 3.0):
        assert seq.terminal_moment(p) == pytest.approx(flipped.terminal_moment(p), rel=1e-12)


def test_sequence_spec_round_trip():
    tree = pm.paley_walsh(3, exact=True)
    gen = stream(7, "ser")
    seq = pm.random_general_sequence(gen, tree, seq_lp(0.5, 2))
    spec = pm.sequence_spec(seq)
    back = pm.sequence_from_spec(json.loads(json.dumps(spec)))
    assert back.tree.exact
    assert back.space == seq.space
    for a, b in zip(seq.tables, back.tables):
        assert np.array_equal(a, b)
    assert pm.verify_tangency(pm.decouple(back)).ok


def test_sequence_spec_round_trip_inexact():
    tree = pm.symmetric_three_point(2)
    mults = [np.full((tree.num_nodes(n - 1), 1), float(n)) for n in (1, 2)]
    seq = pm.AdaptedSequence.from_multipliers(tree, euclid(1), mults)
    back = pm.sequence_from_spec(pm.sequence_spec(seq))
    assert not back.tree.exact
    assert np.allclose(back.terminal, seq.terminal)
