"""The batched worst-case search: each slot's letters are measured in one pass
of the moment engines, and every value and the whole search trajectory are
bit-identical to measuring one candidate at a time."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import path_sums

import decoupling_lab.constants as ct
import decoupling_lab.inequalities as iq
import decoupling_lab.probmodel as pm
from decoupling_lab.rng import stream
from decoupling_lab.spaces import parse_space

SPACES = ("l2:3", "linf:4", "lp:0.5:3", "nested:1x2,3x2")
PS = (0.5, 1.0, 2.0, 4.0)


def family_cases():
    for family in sorted(ct.FAMILIES):
        for text in SPACES:
            if family != "supnorm-signs" or text.startswith("linf"):
                yield family, text


def random_flats(family, tree, space, count, label):
    alphabet = np.array(ct.FAMILIES[family][0])
    slots = sum(tree.num_nodes(n) for n in range(tree.depth)) * space.dim
    gen = stream(0, "batch-test", label)
    return alphabet[gen.integers(0, len(alphabet), size=(count, slots))]


def one_at_a_time(tree, space, flats, p, direction):
    """ratio of each candidate through its own model, as the search did before."""
    out = []
    for flat in flats:
        mults = ct._split_multipliers(tree, space.dim, flat)
        seq = pm.AdaptedSequence.from_multipliers(tree, space, mults)
        out.append(ct.ratio(pm.decouple(seq), p, direction))
    return np.array(out)


@pytest.mark.parametrize("family, text", list(family_cases()))
def test_batched_ratios_are_bit_identical(family, text):
    space = parse_space(text)
    tree = ct._family_tree(ct.FAMILIES[family][1], 3)
    flats = random_flats(family, tree, space, 5, f"{family} {text}")
    for p in PS:
        for direction in ct.DIRECTIONS:
            got = ct.multiplier_ratios(tree, space, flats, p, direction)
            np.testing.assert_array_equal(got, one_at_a_time(tree, space, flats, p, direction))


@pytest.mark.parametrize("text", SPACES)
def test_terminal_moment_matches_path_sums(text):
    # f_N grows node by node (PathStack.terminal); the per-path partial sums
    # give the same bits, for a stack of several models as for each alone
    space = parse_space(text)
    for tree in (pm.paley_walsh(4), pm.symmetric_three_point(3)):
        seqs = [pm.random_multiplier_sequence(stream(i, "f-side", text), tree, space)
                for i in (1, 2, 3)]
        tables = [np.stack(level) for level in zip(*(seq.tables for seq in seqs))]
        stack = pm.PathStack(tree, space, tables)
        np.testing.assert_array_equal(stack.terminal, [path_sums(seq)[:, -1] for seq in seqs])
        for p in PS:
            want = [float(tree.path_probs @ space.norms(path_sums(seq)[:, -1]) ** p)
                    for seq in seqs]
            assert [seq.terminal_moment(p) for seq in seqs] == want
            assert pm.terminal_moments(stack, p) == want
    # product models: each level a broadcast view over its parents
    models = [iq.random_product_model(stream(i, "f-side-product", text), space, levels=3)
              for i in range(3)]
    stack = iq.ProductStack(models)
    np.testing.assert_array_equal(stack.terminal, [path_sums(model.to_sequence())[:, -1]
                                                   for model in models])


@pytest.mark.parametrize("text", ("l2:3", "lp:0.5:3"))
def test_batch_spanning_several_blocks(text, monkeypatch):
    # block rows are counted across the batch, so a batch of B meets the
    # blocks of a single evaluation at BLOCK_FLOATS / B
    space = parse_space(text)
    tree = pm.paley_walsh(3)
    flats = random_flats("paley-walsh-multipliers", tree, space, 5, f"blocks {text}")
    row_floats = len(flats) * tree.path_count * space.dim
    tables = pm.multiplier_tables(tree, ct._split_multipliers(tree, space.dim, flats))
    for block_floats in (row_floats, 3 * row_floats):
        monkeypatch.setattr(pm, "BLOCK_FLOATS", block_floats)
        blocks = list(pm.PairStack(tree, space, tables).joint_blocks(("g_norm",)))
        assert len(blocks) == math.ceil(tree.num_nodes(2) / (block_floats // row_floats)) > 1
        for p in (1.0, 3.0):
            for direction in ("decouple-upper", "decouple-lower"):
                monkeypatch.setattr(pm, "BLOCK_FLOATS", block_floats)
                got = ct.multiplier_ratios(tree, space, flats, p, direction)
                monkeypatch.setattr(pm, "BLOCK_FLOATS", block_floats // len(flats))
                want = one_at_a_time(tree, space, flats, p, direction)
                np.testing.assert_array_equal(got, want)


def sequential_search(space, p, direction, family, budget, restarts, seed, depth):
    """The search measuring one candidate at a time, its slot loop as written
    before batching.  Returns the estimate and how often a slot's original
    letter was measured again after an accept in the same slot."""
    budget = max(1, budget)
    alphabet, tree_kind = ct.FAMILIES[family]
    tree = ct._family_tree(tree_kind, depth)
    slots = sum(tree.num_nodes(n - 1) for n in range(1, depth + 1)) * space.dim

    def evaluate(flat):
        return one_at_a_time(tree, space, flat[None], p, direction)[0]

    best_flat, best_val = None, -math.inf
    evals = reevaluated = 0
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
                original = flat[slot]
                for letter in alphabet:
                    if letter == flat[slot]:
                        continue
                    if evals >= budget:
                        break
                    cand = flat.copy()
                    cand[slot] = letter
                    evals += 1
                    reevaluated += letter == original
                    cand_val = evaluate(cand)
                    if cand_val > val + 1e-15:
                        flat, val = cand, cand_val
                        improved = True
                        if val > best_val:
                            best_flat, best_val = flat.copy(), val
                else:
                    continue
                break
    est = ct.estimate_from_flat(family, depth, space, best_flat, p, direction,
                                evaluations=evals, seed=seed)
    return est, reevaluated


@pytest.mark.parametrize("text, p, direction, family, reaccepts", [
    ("l2:2", 1.0, "decouple-upper", "gaussian-multipliers", True),
    ("linf:3", 3.0, "decouple-lower", "gaussian-multipliers", True),
    ("linf:2", 1.0, "randomized-plus", "supnorm-signs", False),
    ("lp:0.5:3", 1.0, "randomized-minus", "gaussian-multipliers", False),
])
def test_search_replays_the_sequential_trajectory(text, p, direction, family, reaccepts):
    space = parse_space(text)
    args = dict(space=space, p=p, direction=direction, family=family, restarts=2, seed=0, depth=2)
    _, reevaluated = sequential_search(budget=80, **args)
    # within 80 evaluations an accept comes before a slot's original letter,
    # and most budgets stop part-way through a slot
    if reaccepts:
        assert reevaluated > 0
    for budget in range(1, 81):
        want, _ = sequential_search(budget=budget, **args)
        got = ct.search_worst_case(budget=budget, **args)
        assert (got.ratio, got.witness, got.evaluations) == (
            want.ratio, want.witness, want.evaluations), budget


def test_search_refuses_a_value_its_witness_does_not_replay_to(monkeypatch):
    measure = ct.multiplier_ratios

    def one_ulp_up(*args):
        return [np.nextafter(value, math.inf) for value in measure(*args)]

    args = dict(space=parse_space("l2:2"), p=3.0, budget=20, restarts=1, depth=2)
    ct.search_worst_case(**args)
    monkeypatch.setattr(ct, "multiplier_ratios", one_ulp_up)
    with pytest.raises(RuntimeError, match="replays to"):
        ct.search_worst_case(**args)


@pytest.mark.parametrize("text", ("linf:4", "nested:1x2,3x2"))
def test_one_batched_evaluation_stays_within_the_cap(text):
    # depth 7: 64 heads x 128 paths x 4 coordinates = 32768 joint floats per
    # candidate, so the cap splits a slot's five letters into batches of two
    space = parse_space(text)
    tree = pm.paley_walsh(7)
    per_candidate = tree.num_nodes(6) * tree.path_count * space.dim
    assert 5 * per_candidate > pm.BATCH_FLOATS >= 2 * per_candidate
    args = dict(space=space, p=3.0, budget=6, restarts=1, depth=7)
    ct.search_worst_case(**args)  # warm
    tracemalloc.start()
    try:
        est = ct.search_worst_case(**args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.evaluations == 6
    # the joint state, the next level's sums and a norm's |g| copy
    assert peak <= 3 * 8 * pm.BATCH_FLOATS


def test_large_models_run_as_batches_of_one():
    # the exact-large benchmark models: Paley-Walsh depth 8 on linf:4 and
    # three-point depth 5 on lp:0.5:3
    for tree, dim in ((pm.paley_walsh(8), 4), (pm.symmetric_three_point(5), 3)):
        per_candidate = tree.num_nodes(tree.depth - 1) * tree.path_count * dim
        assert pm.BATCH_FLOATS // per_candidate <= 1


def recorded_rows(monkeypatch, args, batch_floats=None):
    """The search's estimate, every candidate row it measured and its
    multiplier_ratios calls, with BATCH_FLOATS at batch_floats when given."""
    measure, rows, calls = ct.multiplier_ratios, [], []

    def record(tree, space, flats, p, direction):
        rows.extend(map(bytes, flats))
        calls.append(len(flats))
        return measure(tree, space, flats, p, direction)

    with monkeypatch.context() as patch:
        patch.setattr(ct, "multiplier_ratios", record)
        if batch_floats is not None:
            patch.setattr(ct, "BATCH_FLOATS", batch_floats)
        est = ct.search_worst_case(**args)
    return est, rows, len(calls)


def one_slot_floats(args):
    """A BATCH_FLOATS at which a batch holds one slot's letters and no more,
    so the search measures no slot ahead, as it did before it looked ahead."""
    tree = ct._family_tree(ct.FAMILIES[args["family"]][1], args["depth"])
    letters = len(ct.FAMILIES[args["family"]][0]) - 1
    return letters * pm.require_joint_walk(tree) * args["space"].dim


ATLAS_ARGS = dict(space=parse_space("linf:4"), p=1.0, direction="decouple-upper",
                  family="paley-walsh-multipliers", budget=400, restarts=6, seed=0, depth=3)


def test_a_failing_candidate_measured_ahead_leaves_the_search_as_it_was(monkeypatch):
    args = ATLAS_ARGS
    want, reached, _ = recorded_rows(monkeypatch, args, one_slot_floats(args))
    _, measured, _ = recorded_rows(monkeypatch, args)
    # candidates measured ahead of an accept, which the accept rule never reaches
    unreached = set(measured) - set(reached)
    assert unreached
    measure, refused = ct.multiplier_ratios, []

    def refuse_unreached(tree, space, flats, p, direction):
        if unreached & set(map(bytes, flats)):
            refused.append(len(flats))
            raise pm.ModelError("degenerate model: zero moment in the denominator")
        return measure(tree, space, flats, p, direction)

    monkeypatch.setattr(ct, "multiplier_ratios", refuse_unreached)
    got = ct.search_worst_case(**args)
    assert refused
    assert (got.ratio, got.witness, got.evaluations) == (
        want.ratio, want.witness, want.evaluations)


def test_a_failing_candidate_the_rule_reaches_raises_its_own_error(monkeypatch):
    # the same candidate, reached one slot at a time and with the look-ahead,
    # gives the same error
    args = dict(ATLAS_ARGS, budget=120)
    _, reached, _ = recorded_rows(monkeypatch, args, one_slot_floats(args))
    bad = reached[len(reached) // 2]
    measure = ct.multiplier_ratios

    def refuse_bad(tree, space, flats, p, direction):
        if bad in map(bytes, flats):
            raise pm.ModelError("degenerate model: zero moment in the denominator")
        return measure(tree, space, flats, p, direction)

    monkeypatch.setattr(ct, "multiplier_ratios", refuse_bad)
    with pytest.raises(pm.ModelError, match="zero moment"):
        ct.search_worst_case(**args)
    monkeypatch.setattr(ct, "BATCH_FLOATS", one_slot_floats(args))
    with pytest.raises(pm.ModelError, match="zero moment"):
        ct.search_worst_case(**args)


def test_measuring_ahead_cuts_the_calls_of_an_atlas_cell(monkeypatch):
    # the benchmark's atlas job at depth 3: about 80 calls per cell measuring
    # one slot per call; the look-ahead needs at most 50, for the same
    # evaluations and estimates
    one_slot_calls = ahead_calls = cells = 0
    for text in ("l2:2", "l2:4", "linf:2", "linf:4", "linf:8"):
        for p in (1.0, 2.0, 4.0):
            args = dict(ATLAS_ARGS, space=parse_space(text), p=p)
            want, _, calls = recorded_rows(monkeypatch, args, one_slot_floats(args))
            one_slot_calls += calls
            got, _, calls = recorded_rows(monkeypatch, args)
            ahead_calls += calls
            cells += 1
            assert (got.ratio, got.witness, got.evaluations) == (
                want.ratio, want.witness, want.evaluations)
    assert one_slot_calls >= 75 * cells
    assert ahead_calls <= 50 * cells
