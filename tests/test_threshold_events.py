"""Why verify's threshold events are safe.

verify takes its thresholds from quantiles of f* and d*, so a threshold sits
exactly on an atom of the statistic it is compared with almost always.  A
verdict then holds only because both sides of each event read the same bits.
These tests pin that: every e* atom of the joint engine and every d* atom of
a stack is, bit for bit, the norm of one table entry, and the contraction
check's all-ones sub-sum has the model's terminal norms, on every space kind.
"""

import numpy as np
import pytest

import decoupling_lab.inequalities as iq
import decoupling_lab.probmodel as pm
from decoupling_lab.rng import stream
from decoupling_lab.spaces import parse_space

SPACES = ("l2:4", "lp:0.5:3", "linf:3", "nested:1x2,3x2")


def entry_norms(tables, space) -> set[bytes]:
    """The bytes of the norm of every table entry of one model, each entry
    normed alone."""
    return {bytes(x) for table in tables for x in space.norms(table).reshape(-1)}


def atoms(values) -> set[bytes]:
    return {bytes(x) for x in np.asarray(values, dtype=float).reshape(-1)}


def shape_groups(pairs):
    groups = {}
    for pair in pairs:
        groups.setdefault(pair.tree.sizes, []).append(pair)
    return groups.values()


@pytest.mark.parametrize("text", SPACES)
def test_e_star_and_d_star_atoms_are_table_entry_norms(text):
    # the tail suite's draws, stacked by tree shape as verify stacks them
    space = parse_space(text)
    pairs = [pm.random_pair(stream(0, "verify", "tail", index), space, max_depth=4)
             for index in range(40)]
    checked = 0
    for group in shape_groups(pairs):
        stack = pm.PairStack.of(group)
        norms = [entry_norms(pair.seq.tables, space) for pair in group]
        for i, allowed in enumerate(norms):
            assert atoms(stack.d_star[i]) <= allowed
        for _, stats in stack.joint_blocks(("e_star",)):
            for i, allowed in enumerate(norms):
                assert atoms(stats["e_star"][i]) <= allowed
                checked += 1
    assert checked >= len(pairs)


def product_models(space, count=12):
    """The product suites' models, as verify draws them at depth 4, and as
    many whose atoms are not dyadic, so that their sums depend on the order
    of the additions."""
    out = []
    for index in range(count):
        gen = stream(0, "verify", "levy", index)
        out.append(iq.random_product_model(gen, space, levels=int(gen.integers(2, 5))))
        rows = [gen.uniform(-2.0, 2.0, size=(2, space.dim))
                for _ in range(int(gen.integers(2, 5)))]
        out.append(iq.ProductModel(space, tuple(
            pm.Level(np.vstack([r, -r]), np.full(4, 0.25)) for r in rows)))
    return out


@pytest.mark.parametrize("text", SPACES)
def test_product_d_star_atoms_are_table_entry_norms(text):
    space = parse_space(text)
    for model in product_models(space):
        stack = iq.ProductStack((model,))
        tables = [law.values.reshape(len(law.probs), -1) for law in model.laws]
        assert atoms(stack.d_star[0]) <= entry_norms(tables, space)


@pytest.mark.parametrize("text", SPACES)
def test_the_all_ones_sub_sum_has_the_terminal_norms(text):
    # a threshold on each terminal-norm atom: the kept sub-sum of all levels
    # must put every atom on the same side of t as ||f_N|| does, so its tail
    # mass is the terminal norms' own, bit for bit
    space = parse_space(text)
    for model in product_models(space):
        stack = iq.ProductStack((model,))
        terminal, probs = stack.node_norms[-1][0], stack.path_probs[0]
        ts = sorted(set(terminal.tolist()))
        ones = [1.0] * len(model.laws)
        reports = iq.contraction_reports(iq.ProductStack((model,) * len(ts)),
                                         [ones] * len(ts), ts)
        for t, report in zip(ts, reports):
            assert report.lhs == float(probs[terminal > t].sum())
