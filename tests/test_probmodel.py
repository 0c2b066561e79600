import hashlib
import itertools
import json
import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_increments, path_sums

import decoupling_lab.inequalities as iq
import decoupling_lab.probmodel as pm
from decoupling_lab.rng import stream
from decoupling_lab.spaces import euclid, format_space, parse_space, seq_lp, sup_norm


def unit_pw_seq(depth, dim=1):
    """Unit-multiplier sign sequence: d_n = xi_n e_1."""
    tree = pm.paley_walsh(depth)
    mults = [np.tile(np.eye(dim)[0], (tree.num_nodes(n - 1), 1)) for n in range(1, depth + 1)]
    return pm.AdaptedSequence.from_multipliers(tree, euclid(dim), mults)


def joint_blocks(pair, stats=pm.JOINT_STATS):
    """The joint engine's blocks for one pair: its stack of one, the model axis dropped."""
    for weights, out in pair.stack.joint_blocks(stats):
        yield weights[0], {key: value[0] for key, value in out.items()}


# ---------------------------------------------------------------------------
# trees


def test_paley_walsh_tree():
    tree = pm.paley_walsh(3)
    assert tree.depth == 3
    assert tree.path_count == 8
    assert tree.sizes == (2, 2, 2)
    assert np.allclose(tree.path_probs, np.full(8, 0.125))
    assert [tree.stride(n) for n in range(4)] == [8, 4, 2, 1]


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


@pytest.mark.parametrize("values, probs", [
    ((1.0, -1.0), (float("nan"), 0.5)),
    ((1.0, -1.0), (float("inf"), 0.5)),
    ((float("nan"), -1.0), (0.5, 0.5)),
    (((1.0, float("inf")), (-1.0, 0.0)), (0.5, 0.5)),
])
def test_level_rejects_non_finite_input(values, probs):
    with pytest.raises(pm.ModelError, match="finite"):
        pm.Level(values, probs)
    # the same level read back from JSON text, which spells them NaN and Infinity
    spec = pm.sequence_spec(unit_pw_seq(1))
    spec["levels"][0] = {"values": values, "probs": probs}
    with pytest.raises(pm.ModelError, match="finite"):
        pm.sequence_from_spec(json.loads(json.dumps(spec)))


def test_level_values_are_read_only():
    atoms = np.array([[1.0, 0.0], [-1.0, 0.0]])
    level = pm.Level(atoms, (0.5, 0.5))
    with pytest.raises(ValueError):
        level.values[0, 0] = 2.0
    # the level holds its own copy of the atoms
    atoms[0, 0] = 2.0
    assert level.values[0, 0] == 1.0
    assert level.values.dtype == float and level.values.shape == (2, 2)
    scalar = pm.Level((1, -1), (0.5, 0.5))
    assert scalar.values.shape == (2,) and not scalar.values.flags.writeable
    # the masses too: a read-only float array of its own
    masses = np.array([0.25, 0.75])
    level = pm.Level((1.0, -1.0), masses)
    with pytest.raises(ValueError):
        level.probs[0] = 0.5
    masses[0] = 0.5
    assert level.probs.tolist() == [0.25, 0.75] and level.probs.dtype == float
    assert not scalar.probs.flags.writeable and scalar.probs.shape == (2,)


def test_ancestor_consistency():
    tree = pm.symmetric_three_point(2)
    ids = np.arange(tree.num_nodes(2))
    up = tree.ancestor(ids, 2, 1)
    assert list(up) == [i // 3 for i in range(9)]
    assert list(tree.ancestor(ids, 2, 0)) == [0] * 9


# ---------------------------------------------------------------------------
# adapted sequences


def test_unit_multiplier_moments():
    seq = unit_pw_seq(2)
    vals = sorted(float(v) for v in seq.paths.terminal[0][:, 0])
    assert vals == [-2.0, 0.0, 0.0, 2.0]
    assert seq.terminal_moment(2.0) == pytest.approx(2.0, abs=1e-15)


def test_partial_sums_and_running_max():
    tree = pm.paley_walsh(2)
    mults = [np.array([[1.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 1.0]])]
    seq = pm.AdaptedSequence.from_multipliers(tree, euclid(2), mults)
    # f_2 = (xi_1, xi_2) on every path
    assert np.allclose(np.abs(seq.paths.terminal[0]), 1.0)
    assert np.allclose(seq.paths.node_sums[1][0][:, 0], [1, -1])
    assert np.allclose(seq.paths.f_star[0], math.sqrt(2.0))
    assert np.allclose(seq.paths.d_star[0], 1.0)


@pytest.mark.parametrize("space", [euclid(3), seq_lp(0.5, 2), sup_norm(4)], ids=format_space)
def test_node_walk_matches_the_path_sums(space):
    # f_n, ||f_n|| and f* grow node by node; at every path they are the bits
    # of the cumulative sums of the path increments, in a stack of several
    # models as for each alone, on general and on product trees
    gen = stream(3, "node-walk", format_space(space))
    tree = pm.random_tree(gen, 4, symmetric=False)
    seqs = [pm.random_general_sequence(gen, tree, space) for _ in range(3)]
    models = [iq.random_product_model(gen, space, levels=3, atoms=3) for _ in range(3)]
    tables = [np.stack(level) for level in zip(*(seq.tables for seq in seqs))]
    stacks = [pm.PathStack(tree, space, tables), iq.ProductStack(models)]
    for stack, members in zip(stacks, (seqs, [model.to_sequence() for model in models])):
        for i, seq in enumerate(members):
            sums = path_sums(seq)
            norms = space.norms(sums)
            for n in range(stack.tree.depth + 1):
                stride = stack.tree.stride(n)
                np.testing.assert_array_equal(np.repeat(stack.node_sums[n][i], stride, axis=0),
                                              sums[:, n])
                np.testing.assert_array_equal(np.repeat(stack.node_norms[n][i], stride),
                                              norms[:, n])
            np.testing.assert_array_equal(stack.terminal[i], sums[:, -1])
            np.testing.assert_array_equal(stack.f_star[i], norms.max(axis=1))
            np.testing.assert_array_equal(seq.paths.f_star[0], norms.max(axis=1))


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
    tree = pm.paley_walsh(3)
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
    # the verifiers are admitted by the walk the joint engine makes, heads x
    # paths: Paley-Walsh depth 12 (4096^2 path pairs) runs, depth 13 is refused
    pair = pm.decouple(unit_pw_seq(12))
    assert pm.verify_tangency(pair).gap == 0.0
    assert pm.verify_conditional_independence(pair).gap == 0.0
    deep = pm.decouple(unit_pw_seq(13))
    for check in (pm.verify_tangency, pm.verify_conditional_independence):
        with pytest.raises(pm.EnumerationError, match="33554432 joint outcomes"):
            check(deep)


def test_oversized_tangency_trial_exits_2(monkeypatch, capsys):
    import decoupling_lab.cli as cli

    argv = ["verify", "--suite", "tangency", "--space", "l2:2", "--depth", "5",
            "--trials", "1", "--seed", "2", "--workers", "1"]
    # the tree of trial 0, as the suite draws it
    tree = pm.random_pair(stream(2, "verify", "tangency", 0), euclid(2), 5, False).tree
    walk = pm.require_joint_walk(tree)
    assert tree.path_count ** 2 > walk
    # its increment tables fit under the walk, so the draw is admitted at both budgets
    assert sum(tree.num_nodes(n) for n in range(1, tree.depth + 1)) * 2 < walk
    monkeypatch.setattr(pm, "JOINT_LIMIT", walk - 1)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("decoupling-lab:") and "Traceback" not in err
    assert f"{walk} joint outcomes exceed budget {walk - 1}" in err
    # the walk itself is the budget: path_count^2 path pairs are not counted
    monkeypatch.setattr(pm, "JOINT_LIMIT", walk)
    assert cli.main(argv) == 0


def test_joint_engine_budgets_heads_times_paths():
    # the engine walks depth-(N-1) heads x paths, not path_count^2 pairs
    assert pm.require_joint_walk(pm.paley_walsh(12)) == 2048 * 4096 <= pm.JOINT_LIMIT
    assert pm.require_joint_walk(pm.paley_walsh(12), "copy") == 4096
    with pytest.raises(pm.EnumerationError, match="33554432 joint outcomes"):
        pm.require_joint_walk(pm.paley_walsh(13))
    # refused before a block is formed
    pair = pm.decouple(unit_pw_seq(13))
    with pytest.raises(pm.EnumerationError):
        pm.g_terminal_moment(pair, 2.0)
    with pytest.raises(pm.EnumerationError):
        next(joint_blocks(pair, ("e_star",)))
    # the window table and the factorization check keep their own budgets
    with pytest.raises(pm.EnumerationError):
        pm.decouple(unit_pw_seq(12)).stack.window_table(2.0)
    assert pm.require_sign_patterns(pm.paley_walsh(11)) == 2048 * 2048
    with pytest.raises(pm.EnumerationError):
        pm.require_sign_patterns(pm.paley_walsh(12))


def test_a_mass_gap_of_1e_9_is_no_equal_law():
    # laws are equal up to LAW_TOL = 1e-12 of mass, so a gap a thousand
    # times larger is seen by the symmetry and the tangency checks
    skewed = pm.Level((1.0, -1.0), (0.5 + 1e-9, 0.5 - 1e-9))
    assert not skewed.is_symmetric()
    with pytest.raises(pm.ModelError, match="symmetric"):
        iq.check_levy(iq.ProductModel(euclid(1), (skewed, pm.FAIR_SIGNS)), 0.5)
    # the rows of level 2 put 0.5 +- 1e-9 of mass on +1, so the copy's e_2,
    # which mixes both rows, has a law 1e-9 away from either row's
    level = pm.Level((-1.0, 0.0, 1.0), (0.5 - 1e-9, 2e-9, 0.5 - 1e-9))
    tree = pm.FiltrationTree([pm.FAIR_SIGNS, level])
    tables = [[[[1.0], [-1.0]]], [[[1.0], [1.0], [-1.0]], [[1.0], [-1.0], [-1.0]]]]
    seq = pm.AdaptedSequence(tree, euclid(1), tables)
    assert not seq.is_conditionally_symmetric()
    assert pm.verify_tangency(pm.decouple(seq)).gap == 0.0
    result = pm.verify_tangency(pm.independent_copy(seq))
    assert not result.ok and result.gap == pytest.approx(1e-9, rel=1e-3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6), symmetric=st.booleans())
def test_random_pairs_are_tangent(seed, symmetric):
    gen = stream(seed, "prop-tangency")
    space = [euclid(2), seq_lp(0.5, 2), sup_norm(3)][seed % 3]
    pair = pm.random_pair(gen, space, max_depth=5, symmetric=symmetric)
    assert pm.verify_tangency(pair).gap <= 1e-12
    assert pm.verify_conditional_independence(pair).gap <= 1e-12


def test_a_tangency_trial_forms_its_head_groups_once(monkeypatch, capsys):
    import decoupling_lab.cli as cli

    calls = []
    checked = pm._checked_heads
    monkeypatch.setattr(pm, "_checked_heads",
                        lambda tree, mode: calls.append(mode) or checked(tree, mode))
    argv = ["verify", "--suite", "tangency", "--space", "l2:2", "--depth", "3",
            "--trials", "6", "--seed", "0", "--workers", "1"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    # the six trials fill one window: one set of checked heads per tree shape
    trials = [pm.random_pair(stream(0, "verify", "tangency", i), euclid(2), max_depth=3,
                             symmetric=bool(i % 2)) for i in range(6)]
    assert sum(table.size for pair in trials for table in pair.seq.tables) <= pm.BATCH_FLOATS
    assert len(calls) == len({pair.tree.sizes for pair in trials}) < 6
    # pairs of one shape checked together give each verifier's own result
    gen = stream(4, "head-groups")
    shapes = {}
    for i in range(24):
        pair = pm.random_pair(gen, euclid(2), max_depth=3, symmetric=bool(i % 2))
        shapes.setdefault(pair.tree.sizes, []).append(pair)
    assert max(map(len, shapes.values())) > 2
    failing = 0
    for pairs in shapes.values():
        copies = [pm.independent_copy(pair.seq) for pair in pairs]
        for candidates in (pairs, copies):
            results = pm.verify_tangent_pair(candidates)
            assert results == [(pm.verify_tangency(c), pm.verify_conditional_independence(c))
                               for c in candidates]
            failing += sum(not tangency.ok for tangency, _ in results)
    assert failing > 0


# A wrong row pick in pm.e_rows, the rule the joint engine reads, fails the
# verifiers: they read the same rule.

def shifted_ancestor(tree, mode, heads, n):
    """e_n reads the depth-(n-2) ancestor's row, one level too high."""
    return tree.ancestor(heads, tree.depth - 1, max(n - 2, 0))[:, None]


def neighbour_head(tree, mode, heads, n):
    """e_n reads the row of the next depth-(N-1) head's ancestor."""
    heads = (np.asarray(heads) + 1) % tree.num_nodes(tree.depth - 1)
    return tree.ancestor(heads, tree.depth - 1, n - 1)[:, None]


@pytest.mark.parametrize("rule", [shifted_ancestor, neighbour_head])
def test_verifiers_fail_on_a_wrong_row_pick(rule, monkeypatch, capsys):
    import decoupling_lab.cli as cli

    # |d_2| depends on xi_1, so the two level-2 rows have different laws
    tree = pm.paley_walsh(2)
    mults = [np.array([[1.0]]), np.array([[2.0], [1.0]])]
    pair = pm.decouple(pm.AdaptedSequence.from_multipliers(tree, euclid(1), mults))
    assert pm.verify_tangency(pair).gap == pm.verify_conditional_independence(pair).gap == 0.0
    monkeypatch.setattr(pm, "e_rows", rule)
    res = pm.verify_tangency(pair)
    assert not res.ok and res.gap == 0.5
    argv = ["verify", "--suite", "tangency", "--space", "l2:3", "--depth", "4",
            "--trials", "20", "--seed", "0", "--workers", "1"]
    assert cli.main(argv) == 1
    assert '"holds":false' in capsys.readouterr().out


# ---------------------------------------------------------------------------
# the davis split


def davis_split(pair):
    """The pair's (small, large) Davis split as two tangent pairs of its mode:
    pm.davis_tables of its stack of one."""
    seq = pair.seq
    parts = pm.davis_tables(seq.paths)
    return tuple(pm.TangentPair(pm.AdaptedSequence(seq.tree, seq.space, [t[0] for t in tables]),
                                pair.mode) for tables in parts)


def test_davis_split_partition_and_routing():
    gen = stream(3, "davis")
    pair = pm.random_pair(gen, euclid(2), max_depth=4)
    small, big = davis_split(pair)
    for s, b, t in zip(small.seq.tables, big.seq.tables, pair.seq.tables):
        assert np.allclose(s + b, t)
        assert not (s.astype(bool) & b.astype(bool)).any()


def test_davis_split_constant_increments():
    # constant increment norms: level 1 is big, later levels all small
    seq = unit_pw_seq(3)
    small, big = davis_split(pm.decouple(seq))
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
    small, big = davis_split(pm.decouple(seq))
    assert all(not t.any() for t in small.seq.tables)
    assert all(np.array_equal(a, b) for a, b in zip(big.seq.tables, seq.tables))


def reference_davis_tables(seq):
    """The split tables with d*_{n-1} re-normed from level 1 at every level."""
    small, big = [np.zeros_like(seq.tables[0])], [seq.tables[0].copy()]
    for n in range(2, seq.depth + 1):
        d_star = np.zeros(1)
        for m in range(1, n):
            norms = seq.space.norms(seq.increments(m))
            d_star = np.maximum(np.repeat(d_star, seq.tree.sizes[m - 1]), norms)
        table = seq.tables[n - 1]
        keep = (seq.space.norms(table) <= 2.0 * d_star[:, None]).astype(float)[:, :, None]
        small.append(table * keep)
        big.append(table * (1.0 - keep))
    return small, big


@pytest.mark.parametrize("space", [euclid(2), seq_lp(0.5, 3), sup_norm(3)], ids=format_space)
def test_davis_split_norms_each_level_once(space, monkeypatch):
    # the running d* is carried across levels: one norm call per level, and
    # the tables of the split that re-norms every earlier level
    tree = pm.FiltrationTree([ENGINE_LEVELS[n] for n in (1, 0, 3, 2)])
    for mode in ("decoupled", "copy"):
        seq = pm.random_general_sequence(stream(4, "davis-norms", str(space)), tree, space)
        want = reference_davis_tables(seq)
        calls = []
        norms = type(space).norms
        monkeypatch.setattr(type(space), "norms",
                            lambda self, arr: calls.append(arr.shape) or norms(self, arr))
        parts = davis_split(pm.TangentPair(seq, mode))
        monkeypatch.undo()
        assert len(calls) == tree.depth
        for part, tables in zip(parts, want):
            assert part.mode == mode
            for got, ref in zip(part.seq.tables, tables):
                np.testing.assert_array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))


DAVIS_SPACES = [euclid(2), seq_lp(0.5, 3), sup_norm(3)]


def davis_stack(space, label):
    """Three general pairs on one tree of 3- and 2-letter levels, as one stack."""
    tree = pm.FiltrationTree([ENGINE_LEVELS[n] for n in (1, 0, 3, 2)])
    return [pm.decouple(pm.random_general_sequence(stream(i, label, str(space)), tree, space))
            for i in range(3)]


@pytest.mark.parametrize("space", DAVIS_SPACES, ids=format_space)
def test_davis_tables_of_a_stack_are_each_models_own(space):
    # the split read off the stack's table norms and node d* is, model by
    # model, the split that re-norms every earlier level
    pairs = davis_stack(space, "davis-stack")
    parts = pm.davis_tables(pm.PairStack.of(pairs))
    for i, pair in enumerate(pairs):
        for tables, want in zip(parts, reference_davis_tables(pair.seq)):
            for got, ref in zip(tables, want):
                np.testing.assert_array_equal(got[i], ref)
                assert np.array_equal(np.signbit(got[i]), np.signbit(ref))


@pytest.mark.parametrize("space", DAVIS_SPACES, ids=format_space)
def test_davis_reports_norm_each_table_entry_once(space, monkeypatch):
    # one Space.norms per level (the stack's table norms, which d* and the
    # split share) and one for the large part's terminal sums
    stack = pm.PairStack.of(davis_stack(space, "davis-calls"))
    calls = []
    norms = type(space).norms
    monkeypatch.setattr(type(space), "norms",
                        lambda self, arr: calls.append(arr.shape) or norms(self, arr))
    iq.davis_reports(stack)
    assert len(calls) == len(stack.sizes) + 1


def random_level(gen, size: int) -> pm.Level:
    """A scalar law of ``size`` atoms whose masses are not dyadic, so that
    their products depend on the order they are taken in."""
    probs = gen.uniform(0.1, 1.0, size=size)
    return pm.Level(gen.uniform(-2.0, 2.0, size=size), probs / probs.sum())


@pytest.mark.parametrize("case", range(8))
def test_every_stack_gives_each_model_its_tree_masses(case):
    # PairStack.of, a default PairStack, a ProductStack and a sequence's own
    # stack all multiply the level masses as FiltrationTree does, bit for bit
    gen = stream(case, "stack-masses")
    sizes = [int(gen.integers(2, 4)) for _ in range(int(gen.integers(1, 5)))]
    space = euclid(2)
    trees = [pm.FiltrationTree([random_level(gen, a) for a in sizes]) for _ in range(3)]
    seqs = [pm.random_general_sequence(gen, tree, space) for tree in trees]
    models = [iq.ProductModel(space, tuple(pm.Level(np.column_stack([lv.values, -lv.values]),
                                                    lv.probs) for lv in tree.levels))
              for tree in trees]
    pairs = pm.PairStack.of([pm.decouple(seq) for seq in seqs])
    products = iq.ProductStack(models)
    for i, (tree, seq) in enumerate(zip(trees, seqs)):
        alone = pm.PairStack(tree, space, [t[None] for t in seq.tables])
        for stack, row in ((pairs, i), (products, i), (alone, 0), (seq.paths, 0)):
            np.testing.assert_array_equal(stack.path_probs[row], tree.path_probs)
            for n in range(tree.depth + 1):
                np.testing.assert_array_equal(stack.node_probs(n)[row], tree.node_probs(n))


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
        assert sign_moment(seq, p) == pytest.approx(pm.g_terminal_moment(pair, p), rel=1e-12)


def sign_moment(seq, p):
    """E||sum eps_k d_k||^p of one sequence: the engine on its stack of one."""
    return pm.sign_randomized_moments(seq.paths, p)[0]


def sign_moment_one_array(seq, p):
    """E||sum eps_k d_k||^p from one (2^N, paths, dim) array of signed sums."""
    n = seq.depth
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    total = np.zeros((2 ** n, seq.tree.path_count, seq.dim))
    for m in range(1, n + 1):
        total += signs[:, m - 1][:, None, None] * path_increments(seq, m)[None, :, :]
    return float((seq.space.norms(total) ** p).mean(axis=0) @ seq.tree.path_probs)


def test_sign_randomized_moment_in_blocks():
    # within one block the sums are formed in the same order as in one array
    gen = stream(24, "sign-blocks")
    tree = pm.FiltrationTree(pm.symmetric_three_point(3).levels + pm.paley_walsh(2).levels)
    small = pm.random_general_sequence(gen, tree, seq_lp(0.5, 3))
    for p in (0.5, 2.0):
        assert sign_moment(small, p) == sign_moment_one_array(small, p)
    # 2^9 sign patterns x 512 paths x 16 coordinates: three blocks, the last short
    tree = pm.paley_walsh(9)
    seq = pm.random_multiplier_sequence(gen, tree, sup_norm(16))
    assert 2 ** 9 * tree.path_count * 16 > 2 * pm.BLOCK_FLOATS
    for p in (1.0, 3.0):
        assert sign_moment(seq, p) == pytest.approx(sign_moment_one_array(seq, p), rel=1e-12)


def test_sign_randomized_budget():
    seq = unit_pw_seq(12)
    # 2^12 sign patterns x 4096 paths, refused before a block is formed
    with pytest.raises(pm.EnumerationError,
                       match=f"16777216 sign-path combinations exceed budget {pm.JOINT_LIMIT}"):
        pm.sign_randomized_moments(seq.paths, 2.0)


@pytest.mark.parametrize("text", ("l2:3", "linf:4", "lp:0.5:3", "nested:1x2,3x2"))
def test_stacked_moment_engines_match_each_stack_of_one(text):
    # general (drifted, not symmetric) tables on trees of one shape, each with
    # its own atoms and non-dyadic masses: every moment engine gives each
    # model of a stack the value of its stack of one, bit for bit
    space = parse_space(text)
    gen = stream(25, "stacked-engines", text)
    trees = [pm.FiltrationTree([random_level(gen, a) for a in (2, 3, 2)]) for _ in range(3)]
    pairs = [pm.decouple(pm.random_general_sequence(gen, tree, space)) for tree in trees]
    assert not any(pair.seq.is_conditionally_symmetric() for pair in pairs)
    stack = pm.PairStack.of(pairs)
    for p in (0.5, 1.0, 3.0):
        for engine in (pm.terminal_moments, pm.g_terminal_moments, pm.sign_randomized_moments):
            np.testing.assert_array_equal(engine(stack, p),
                                          [engine(pair.stack, p)[0] for pair in pairs])


def test_joint_blocks_cover_product_space(monkeypatch):
    gen = stream(23, "blocks")
    pair = pm.random_pair(gen, euclid(2), max_depth=3)
    tree = pair.tree
    mass, rows = 0.0, 0
    # blocks of three heads: three rows of path_count x dim floats of g_N
    monkeypatch.setattr(pm, "BLOCK_FLOATS", 3 * tree.path_count * pair.space.dim)
    for w, stats in joint_blocks(pair):
        assert w.shape[0] <= 3 and w.shape[1] == tree.path_count
        assert stats["g_norm"].shape == w.shape
        assert stats["e_star"].shape == w.shape
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
               if lv.size <= letters and np.array_equal(lv.probs, lv.probs[::-1]) == symmetric]
    tree = pm.FiltrationTree([choices[int(gen.integers(len(choices)))]
                              for _ in range(1 + case % 4)])
    space = (euclid(2), seq_lp(0.5, 3), sup_norm(2))[case % 3]
    make = pm.random_multiplier_sequence if symmetric else pm.random_general_sequence
    return pm.TangentPair(make(gen, tree, space), mode)


def naive_joint(pair):
    """(mass, ||g_N||, e*) of every (omega, omega~) pair of the product space."""
    seq, tree, space = pair.seq, pair.tree, pair.space
    probs = tree.path_probs
    out = []
    for w in range(tree.path_count):
        for wt in range(tree.path_count):
            g = np.zeros(seq.dim)
            e_star = 0.0
            for n in range(1, tree.depth + 1):
                owner = w if pair.mode == "decoupled" else wt
                parent = owner // tree.stride(n - 1)
                letter = (wt // tree.stride(n)) % tree.sizes[n - 1]
                e = seq.tables[n - 1][parent, letter]
                g = g + e
                e_star = max(e_star, space.norms(e[None])[0])
            out.append((probs[w] * probs[wt], space.norms(g[None])[0], e_star))
    return np.array(out)


@pytest.mark.parametrize("mode", ["decoupled", "copy"])
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("letters", [2, 3])
@pytest.mark.parametrize("case", range(6))
def test_joint_blocks_match_naive_product_space(mode, symmetric, letters, case, monkeypatch):
    pair = engine_pair(case, mode, symmetric, letters)
    ref = naive_joint(pair)
    mass, g_norm, e_star = ref.T
    ts = (0.5, 1.0, 2.5)
    want = ([float(mass @ g_norm ** p) for p in (0.5, 1.0, 2.0, 3.0)]
            + [float(mass @ (e_star > t)) for t in ts])
    # one head per block, then the default blocks
    for block_floats in (1, pm.BLOCK_FLOATS):
        monkeypatch.setattr(pm, "BLOCK_FLOATS", block_floats)
        got = np.zeros(len(want))
        total = 0.0
        for w, stats in joint_blocks(pair):
            total += float(w.sum())
            norms = stats["g_norm"]
            got += ([float(np.sum(w * norms ** p)) for p in (0.5, 1.0, 2.0, 3.0)]
                    + [float(w[stats["e_star"] > t].sum()) for t in ts])
        assert total == pytest.approx(1.0, abs=1e-12)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    # a caller gets only what it asks for, with the same values
    for key in pm.JOINT_STATS:
        part = [stats for _, stats in joint_blocks(pair, (key,))]
        full = [stats for _, stats in joint_blocks(pair)]
        assert all(set(a) == {key} for a in part)
        for a, b in zip(part, full):
            assert np.array_equal(a[key], b[key])
    assert pm.g_terminal_moment(pair, 2.0) == pytest.approx(want[2], rel=1e-12)


def naive_outcomes(pair):
    """||g_N|| and e* of every (head, omega~) outcome the engine walks, by
    direct loops: heads are the depth-(N-1) nodes (decoupled) or the root (copy)."""
    seq, tree, space = pair.seq, pair.tree, pair.space
    depth = tree.depth
    heads = tree.num_nodes(depth - 1) if pair.mode == "decoupled" else 1
    out = np.zeros((2, heads, tree.path_count))
    for head in range(heads):
        for wt in range(tree.path_count):
            g = np.zeros(seq.dim)
            e_star = 0.0
            for n in range(1, depth + 1):
                if pair.mode == "decoupled":
                    parent = head // (tree.num_nodes(depth - 1) // tree.num_nodes(n - 1))
                else:
                    parent = wt // tree.stride(n - 1)
                e = seq.tables[n - 1][parent, (wt // tree.stride(n)) % tree.sizes[n - 1]]
                g = g + e
                e_star = max(e_star, space.norms(e[None])[0])
            out[:, head, wt] = space.norms(g[None])[0], e_star
    return out


DEEP_LEVELS = (ENGINE_LEVELS[1], ENGINE_LEVELS[0], ENGINE_LEVELS[3], ENGINE_LEVELS[2],
               ENGINE_LEVELS[0], ENGINE_LEVELS[1])


@pytest.mark.parametrize("mode, depth", [("decoupled", 4), ("decoupled", 5),
                                         ("copy", 4), ("copy", 5), ("copy", 6)])
def test_joint_blocks_match_naive_outcomes_at_depth(mode, depth, monkeypatch):
    # two- and three-letter levels mixed: the digit-reversed omega~ order and
    # the copy-mode row pick differ from the natural order only at such depths
    tree = pm.FiltrationTree(DEEP_LEVELS[:depth])
    default = pm.BLOCK_FLOATS
    for space in (euclid(2), seq_lp(0.5, 3), sup_norm(2)):
        gen = stream(depth, "engine-deep", mode, str(space))
        pair = pm.TangentPair(pm.random_general_sequence(gen, tree, space), mode)
        want = naive_outcomes(pair)
        # one head per block, then the default blocks
        for block_floats in (1, default):
            monkeypatch.setattr(pm, "BLOCK_FLOATS", block_floats)
            blocks = [stats for _, stats in joint_blocks(pair)]
            for i, key in enumerate(pm.JOINT_STATS):
                np.testing.assert_array_equal(np.concatenate([b[key] for b in blocks]), want[i])


def naive_gaps(pair):
    """The tangency and factorization gaps by direct loops over (omega, omega~):
    e_n reads the row of omega's depth-(n-1) node (decoupled) or omega~'s (copy)."""
    seq, tree = pair.seq, pair.tree
    probs = tree.path_probs
    tangency = independence = 0.0
    for w in range(tree.path_count):
        joint = {}
        for wt in range(tree.path_count):
            owner = w if pair.mode == "decoupled" else wt
            key = tuple(tuple(seq.tables[n - 1][owner // tree.stride(n - 1),
                                                (wt // tree.stride(n)) % tree.sizes[n - 1]] + 0.0)
                        for n in range(1, tree.depth + 1))
            joint[key] = joint.get(key, 0.0) + probs[wt]
        marginals = []
        for n in range(tree.depth):
            e_law, d_law = {}, {}
            for key, mass in joint.items():
                e_law[key[n]] = e_law.get(key[n], 0.0) + mass
            for value, mass in zip(seq.tables[n][w // tree.stride(n)], tree.levels[n].probs):
                d_law[tuple(value + 0.0)] = d_law.get(tuple(value + 0.0), 0.0) + mass
            tangency = max(tangency, *(abs(e_law.get(k, 0.0) - d_law.get(k, 0.0))
                                       for k in e_law | d_law))
            marginals.append(e_law)
        if w and joint == last:
            continue  # the same law as for omega - 1 (every omega in copy mode)
        last = joint
        for combo in itertools.product(*(m.items() for m in marginals)):
            mass = math.prod(m for _, m in combo)
            independence = max(independence, abs(joint.get(tuple(k for k, _ in combo), 0.0) - mass))
    return tangency, independence


def late_rows_pair(mode):
    """A pair on asymmetric 3-, 2-, 3- and 2-letter levels whose rows differ
    only at level 3: one row at parent 1, another at every other parent, and
    one row for every parent at the other levels.  Its copy gaps then sit at
    level 3, where the omega~ nodes' digit-reversed order is not their
    natural order, and depend on the mass of the nodes that read parent 1's
    row (with a row of its own at every parent the largest gap would not)."""
    tree = pm.FiltrationTree([ENGINE_LEVELS[3], ENGINE_LEVELS[2]] * 2)
    seq = pm.random_general_sequence(stream(8, "late-rows"), tree, euclid(2))
    tables = [np.broadcast_to(t[:1], t.shape).copy() for t in seq.tables]
    tables[2][1] = seq.tables[2][1]
    return pm.TangentPair(pm.AdaptedSequence(tree, seq.space, tables), mode)


@pytest.mark.parametrize("mode", ["decoupled", "copy"])
@pytest.mark.parametrize("case", range(9))
def test_verifiers_match_naive_gaps(mode, case):
    # asymmetric two- and three-letter levels, depth 1..4: omega~ node masses
    # differ, so a row read at the wrong omega~ node moves the copy's gaps;
    # case 8 has its copy-mode gaps past level 2 only
    pair = engine_pair(case, mode, False, 3) if case < 8 else late_rows_pair(mode)
    tangency, independence = naive_gaps(pair)
    assert pm.verify_tangency(pair).gap == pytest.approx(tangency, abs=1e-12)
    assert pm.verify_conditional_independence(pair).gap == pytest.approx(independence, abs=1e-12)


# ---------------------------------------------------------------------------
# finite laws against the bytes-keyed dict reference


def ref_atom(vec) -> bytes:
    """Exact label of a vector atom; 0.0 and -0.0 share one label."""
    return (np.asarray(vec) + 0.0).tobytes()


def ref_merge_law(vectors, probs) -> dict:
    """A finite law as {atom label: mass}; masses add up in input order."""
    masses = {}
    for vec, p in zip(vectors, probs):
        key = ref_atom(vec)
        masses[key] = masses.get(key, 0.0) + p
    return masses


def ref_law_gap(law_a, law_b) -> float:
    keys = set(law_a) | set(law_b)
    return max(float(abs(law_a.get(k, 0) - law_b.get(k, 0))) for k in keys)


def ref_law_ids(vectors, probs):
    """Atom id of every vector and the mass of every atom, ids in first-seen order."""
    law = ref_merge_law(vectors, probs)
    index = {key: i for i, key in enumerate(law)}
    return np.array([index[ref_atom(v)] for v in vectors]), np.array(list(law.values()))


def ref_symmetry_gap(vectors, probs) -> float:
    vectors = np.asarray(vectors)
    return ref_law_gap(ref_merge_law(vectors, probs), ref_merge_law(-vectors, probs))


def ref_head_groups(tree, mode) -> list[np.ndarray]:
    """The checked heads, grouped by the rows e_rows gives them at every
    level and omega~ node: one law of (e_1..e_N) given F_inf per group."""
    groups = {}
    for head in pm._checked_heads(tree, mode):
        rows = [np.broadcast_to(pm.e_rows(tree, mode, np.array([head]), n),
                                (1, tree.num_nodes(n - 1))).tobytes()
                for n in range(1, tree.depth + 1)]
        groups.setdefault(tuple(rows), []).append(head)
    return [np.array(members) for members in groups.values()]


def ref_tangency_gap(pair) -> float:
    seq, tree = pair.seq, pair.tree
    worst = 0.0
    for members in ref_head_groups(tree, pair.mode):
        for n in range(1, tree.depth + 1):
            e_law = ref_merge_law(pm._e_values(seq, pair.mode, members[0], n), tree.node_probs(n))
            for u in np.unique(tree.ancestor(members, tree.depth - 1, n - 1)):
                d_law = ref_merge_law(seq.tables[n - 1][u], tree.levels[n - 1].probs)
                worst = max(worst, ref_law_gap(d_law, e_law))
    return worst


def ref_factorization_gap(pair) -> float:
    seq, tree = pair.seq, pair.tree
    worst = 0.0
    for members in ref_head_groups(tree, pair.mode):
        level_ids, level_masses = [], []
        for n in range(1, tree.depth + 1):
            nodes = np.arange(tree.path_count) // tree.stride(n)
            values = pm._e_values(seq, pair.mode, members[0], n)[nodes]
            ids, masses = ref_law_ids(values, tree.path_probs)
            level_ids.append(ids)
            level_masses.append(masses)
        product = reduce(np.multiply.outer, level_masses).reshape(-1)
        joint = np.zeros(len(product))
        flat = np.ravel_multi_index(tuple(level_ids), tuple(len(m) for m in level_masses))
        np.add.at(joint, flat, tree.path_probs)
        worst = max(worst, float(np.max(np.abs(joint - product))))
    return worst


# two NaN payloads; negating either flips its sign bit only
NANS = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(float)


def law_stack(gen, laws, atoms, dim, symmetric):
    """(laws, atoms[, dim]) atoms from a small alphabet with 0.0 and -0.0,
    repeated atoms, and masses uniform or not; symmetric laws pair each atom
    with its negative (so atoms is even there)."""
    shape = (laws, atoms // 2 if symmetric else atoms) + (() if dim is None else (dim,))
    values = gen.choice([0.0, -0.0, 1.0, -1.0, 0.5, 3.0], size=shape)
    if symmetric:
        values = np.concatenate([values, -values], axis=1)
    if gen.random() < 0.3:
        probs = np.full((laws, atoms), 1.0 / atoms)
    else:
        weights = gen.uniform(0.1, 1.0, size=(laws, atoms // 2 if symmetric else atoms))
        probs = np.concatenate([weights, weights], axis=1) if symmetric else weights
        probs = probs / probs.sum(axis=1, keepdims=True)
    return values, probs


def test_symmetry_gaps_match_the_dict_reference():
    gen = stream(0, "symmetry-gaps")
    exact_zero = nonzero = 0
    for _ in range(400):
        symmetric = bool(gen.random() < 0.5)
        atoms = int(gen.integers(1, 4)) * 2 if symmetric else int(gen.integers(1, 7))
        dim = (None, 1, 2, 3)[int(gen.integers(4))]
        values, probs = law_stack(gen, int(gen.integers(1, 6)), atoms, dim, symmetric)
        gaps = pm.symmetry_gaps(values, probs)
        want = [ref_symmetry_gap(v, p) for v, p in zip(values, probs)]
        np.testing.assert_array_equal(gaps, want)
        assert [pm.Level(v, p).is_symmetric() for v, p in zip(values, probs)] == [
            g <= 1e-12 for g in want]
        exact_zero += int((gaps == 0.0).sum())
        nonzero += int((gaps > 1e-12).sum())
    assert exact_zero > 100 and nonzero > 100


def test_conditional_symmetry_matches_the_dict_reference():
    # tables may hold any float, NaN payloads and -0.0 included
    tree = pm.FiltrationTree([ENGINE_LEVELS[0], ENGINE_LEVELS[1], pm.Level((2.0, 0.5, -2.0,
                                                                            -0.5), (0.25,) * 4)])
    gen = stream(1, "conditional-symmetry")
    flags = []
    for trial in range(40):
        seq = pm.random_multiplier_sequence(gen, tree, euclid(2))
        tables = []
        for level, table in zip(tree.levels, seq.tables):
            # some coordinates of some rows become c on a positive innovation,
            # -c on a negative one and 0.0 on a zero one (symmetric laws
            # still), or, on odd trials, c on a random innovation
            c = gen.choice([0.0, -0.0, *NANS, *-NANS], size=table.shape[::2])[:, None, :]
            sign = level.values[None, :, None]
            mirrored = np.where(sign < 0, -c, np.where(sign > 0, c, 0.0))
            hit = gen.random(table.shape[::2])[:, None, :] < 0.3
            if trial % 2:
                mirrored = np.where(gen.random(table.shape) < 0.5, c, table)
            tables.append(np.where(hit, mirrored, table))
        seq = pm.AdaptedSequence(tree, seq.space, tables)
        want = []
        for level, table in zip(tree.levels, tables):
            gaps = pm.symmetry_gaps(table, np.broadcast_to(level.probs, table.shape[:2]))
            ref = [ref_symmetry_gap(row, level.probs) for row in table]
            np.testing.assert_array_equal(gaps, ref)
            want += ref
        flags.append(seq.is_conditionally_symmetric())
        assert flags[-1] == all(g <= 1e-12 for g in want)
    assert any(flags) and not all(flags)


def odd_atoms_pair(case, mode):
    """An engine pair whose tables also hold 0.0, -0.0, NaN payloads and
    atoms repeated within and across rows."""
    pair = engine_pair(case, mode, False, 3)
    gen = stream(case, "odd-atoms", mode)
    tables = [t.copy() for t in pair.seq.tables]
    for table in tables:
        hit = gen.random(table.shape[:2]) < 0.3
        table[hit] = gen.choice([0.0, -0.0, *NANS, *-NANS, 1.0], size=(int(hit.sum()), 1))
        if table.shape[1] > 1:
            table[gen.random(len(table)) < 0.3, 1] = table[0, 0]
    return pm.TangentPair(pm.AdaptedSequence(pair.tree, pair.space, tables), mode)


def same_rows_pair(case, mode):
    """A pair whose rows are one row per level, with repeated atoms, on
    levels of three or four letters with non-dyadic masses: its copy gaps
    are rounding errors, whose bits show the order the masses are added in."""
    gen = stream(case, "same-rows")
    levels = []
    for size in (3, 4, 3):
        weights = gen.uniform(0.1, 1.0, size=size)
        levels.append(pm.Level(np.arange(size, dtype=float), weights / weights.sum()))
    tree = pm.FiltrationTree(levels)
    tables = [np.broadcast_to(gen.choice([1.0, -0.0], size=(1, size, 2)),
                              (tree.num_nodes(n), size, 2)) for n, size in enumerate(tree.sizes)]
    return pm.TangentPair(pm.AdaptedSequence(tree, euclid(2), tables), mode)


@pytest.mark.parametrize("mode", ["decoupled", "copy"])
def test_verifier_gaps_match_the_dict_reference(mode):
    pairs = [engine_pair(case, mode, False, 3) for case in range(8)]
    pairs += [late_rows_pair(mode)] + [odd_atoms_pair(case, mode) for case in range(12)]
    pairs += [same_rows_pair(case, mode) for case in range(12)]
    for pair in pairs:
        # no checked head in decoupled mode; one group of them in copy mode
        assert len(ref_head_groups(pair.tree, mode)) == (mode == "copy" and pair.tree.depth > 1)
        np.testing.assert_array_equal(pm.verify_tangency(pair).gap, ref_tangency_gap(pair))
        np.testing.assert_array_equal(pm.verify_conditional_independence(pair).gap,
                                      ref_factorization_gap(pair))


def test_joint_blocks_rejects_unknown_statistic():
    pair = pm.decouple(unit_pw_seq(2))
    with pytest.raises(ValueError, match="unknown joint statistics"):
        next(joint_blocks(pair, ("f_star",)))


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


def wilson_interval(count, n, z=5.0):
    """The z-sigma Wilson score interval of a frequency count / n."""
    phat, z2 = count / n, z * z
    centre = (phat + z2 / (2 * n)) / (1 + z2 / n)
    half = z * np.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return centre - half, centre + half


def exact_norm_laws(pair):
    """(values, masses) of ||f_N|| (path masses) and of ||g_N|| (joint engine weights)."""
    blocks = list(joint_blocks(pair, ("g_norm",)))
    return ((pair.space.norms(pair.seq.paths.terminal[0]), pair.tree.path_probs),
            (np.concatenate([stats["g_norm"].ravel() for _, stats in blocks]),
             np.concatenate([weights.ravel() for weights, _ in blocks])))


def law_misses(values, masses, draws):
    """The atoms whose exact mass lies outside the 5-sigma Wilson interval of
    their frequency among the draws (values rounded to 9 places, so that one
    atom reached along two float routes stays one atom)."""
    ids = pm.atom_ids(np.round(np.concatenate([values, draws]), 9)[:, None])
    size = int(ids.max()) + 1
    exact = np.bincount(ids[:values.size], weights=masses, minlength=size)
    low, high = wilson_interval(np.bincount(ids[values.size:], minlength=size), draws.size)
    return int(((exact < low) | (exact > high)).sum())


def sampled_norm_misses(pair, laws, count, seed):
    """law_misses of sample_paths' ||f_N|| and ||g_N|| draws against the exact laws."""
    batch = pm.sample_paths(pair, count, seed)
    return tuple(law_misses(*law, pair.space.norms(draws))
                 for law, draws in zip(laws, (batch.f_terminal, batch.g_terminal)))


def sample_law_pairs(label):
    """Decoupled pairs of random depth-3 sequences with drift, on trees of two-
    and three-letter levels."""
    gen = stream(33, "sample-laws", label)
    for i in range(4):
        tree = pm.FiltrationTree(pm.random_tree(gen, 1, symmetric=bool(i % 2)).levels * 3)
        yield pm.decouple(pm.random_general_sequence(gen, tree, [euclid(2), sup_norm(3)][i % 2]))


def test_sample_paths_draw_the_exact_laws():
    # every atom of ||f_N|| and ||g_N|| is drawn at its exact mass, within 5 sigma
    for i, pair in enumerate(sample_law_pairs("exact")):
        for tangent in (pair, pm.independent_copy(pair.seq)):
            assert sampled_norm_misses(tangent, exact_norm_laws(tangent), 20_000, seed=i) == (0, 0)


def test_sample_paths_with_the_copy_rule_miss_the_decoupled_law(monkeypatch):
    # sample_paths reads e_rows; with the copy rule in its place, the ||g_N||
    # draws of a decoupled pair leave the decoupled law's intervals
    pairs = list(sample_law_pairs("copy-rule"))
    laws = [exact_norm_laws(pair) for pair in pairs]
    e_rows = pm.e_rows
    monkeypatch.setattr(pm, "e_rows", lambda tree, mode, heads, n: e_rows(tree, "copy", heads, n))
    for i, (pair, law) in enumerate(zip(pairs, laws)):
        f_misses, g_misses = sampled_norm_misses(pair, law, 20_000, seed=i)
        assert f_misses == 0 and g_misses > 0, i

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
    tree = pm.paley_walsh(3)
    gen = stream(7, "ser")
    seq = pm.random_general_sequence(gen, tree, seq_lp(0.5, 2))
    spec = pm.sequence_spec(seq)
    back = pm.sequence_from_spec(json.loads(json.dumps(spec)))
    assert back.space == seq.space
    assert ([level.probs.tolist() for level in back.tree.levels]
            == [level.probs.tolist() for level in tree.levels])
    for a, b in zip(seq.tables, back.tables):
        assert np.array_equal(a, b)
    res = pm.verify_tangency(pm.decouple(back))
    assert res.ok and res.gap == 0


# sha256 of the JSON of three specs: scalar Paley-Walsh levels, a scalar level
# then a vector level (with int and -0.0 atoms), and a product model with vector
# laws.  Re-taken when masses became floats only: the new JSON is the old one
# with the first spec's "probs_exact" entries removed, and the other two specs
# keep their JSON byte for byte.
SEQUENCE_SPEC_SHA256 = "d48ce8696c5d7c2efa331dc3c63ced001a142cb40390e8190c8ee4ca129cceb1"


def test_sequence_spec_json_is_pinned():
    scalar = pm.random_general_sequence(stream(7, "ser"), pm.paley_walsh(3), seq_lp(0.5, 2))
    tree = pm.FiltrationTree([pm.Level((1, -0.0, -2.5), (0.25, 0.5, 0.25)),
                              pm.Level(((1.0, 0), (-0.0, 2.0)), (0.5, 0.5))])
    tables = [np.arange(6.0).reshape(1, 3, 2), -np.arange(12.0).reshape(3, 2, 2)]
    mixed = pm.AdaptedSequence(tree, euclid(2), tables)
    gen = stream(6, "spec-pin")
    laws = tuple(iq.random_symmetric_law(gen, 2, atoms) for atoms in (1, 3))
    product = iq.ProductModel(euclid(2), laws).to_sequence()
    seqs = (scalar, mixed, product)
    text = json.dumps([pm.sequence_spec(s) for s in seqs], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SEQUENCE_SPEC_SHA256
    for seq, spec in zip(seqs, json.loads(text)):
        back = pm.sequence_from_spec(spec)
        for a, b in zip(seq.tree.levels, back.tree.levels):
            assert np.array_equal(a.values, b.values) and np.array_equal(a.probs, b.probs)
        for a, b in zip(seq.tables, back.tables):
            assert np.array_equal(a, b)


def test_sequence_spec_round_trip_inexact():
    tree = pm.symmetric_three_point(2)
    mults = [np.full((tree.num_nodes(n - 1), 1), float(n)) for n in (1, 2)]
    seq = pm.AdaptedSequence.from_multipliers(tree, euclid(1), mults)
    back = pm.sequence_from_spec(pm.sequence_spec(seq))
    assert np.allclose(back.paths.terminal[0], seq.paths.terminal[0])


# ---------------------------------------------------------------------------
# the kernels verify draws and thresholds with

# values with ties: a few repeated atoms, and any float but -0.0 (which the
# sort may place apart from 0.0 unlike numpy's partition) and NaN
QUANTILE_VALUES = st.lists(
    st.one_of(st.sampled_from((0.0, 1.0, 2.5, 3.0, math.inf)),
              st.floats(allow_nan=False).map(lambda x: x + 0.0)),
    min_size=1, max_size=64)
QUANTILE_QS = ([0.7], [0.25, 0.5, 0.9], list(np.linspace(0.05, 0.95, 7)), [0.0, 1.0])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=QUANTILE_VALUES)
def test_quantiles_are_numpys_bit_for_bit(values):
    x = np.array(values)
    for qs in QUANTILE_QS:
        with np.errstate(all="ignore"):  # infinities make numpy's lerp warn
            want = np.quantile(x, qs)
        got = np.array(pm.quantiles(x, qs))
        assert got.tobytes() == want.tobytes(), qs


def test_quantiles_of_values_with_a_nan_are_nan():
    got = pm.quantiles(np.array([1.0, math.nan, 2.0]), [0.0, 0.5, 1.0])
    assert all(math.isnan(x) for x in got)


def test_distinct_is_numpys_unique():
    gen = stream(0, "distinct-test")
    for size in (1, 2, 7, 50):
        values = gen.integers(0, 6, size=size)
        np.testing.assert_array_equal(pm.distinct(values), np.unique(values))


def test_table_draws_are_generator_choice():
    # table[gen.integers(0, len(table), size)] draws what gen.choice(table,
    # size) does, and leaves the stream where choice leaves it
    for seed in range(20):
        for table, size in (((1.0, 2.0, 3.0), None), ((0.5, 2.0 / 3.0), None),
                            (pm.MULT_ALPHABET, (3, 4)), ((0.0, 0.5, -0.5, 1.0), (2, 1, 3))):
            ours, numpys = stream(seed, "draw-test"), stream(seed, "draw-test")
            got = np.asarray(table)[ours.integers(0, len(table), size)]
            want = numpys.choice(table, size)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
            assert ours.random() == numpys.random()
