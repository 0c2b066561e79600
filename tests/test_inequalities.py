import contextlib
import dataclasses
import functools
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import path_sums

import decoupling_lab.inequalities as iq
import decoupling_lab.probmodel as pm
from decoupling_lab.rng import stream
from decoupling_lab.spaces import (euclid, format_space, lu_constants, nested, parse_space,
                                   seq_lp, sup_norm)


def unit_pw_pair(depth):
    tree = pm.paley_walsh(depth)
    mults = [np.ones((tree.num_nodes(n - 1), 1)) for n in range(1, depth + 1)]
    seq = pm.AdaptedSequence.from_multipliers(tree, euclid(1), mults)
    return pm.decouple(seq)


def rademacher_model(depth):
    """The sum of depth independent fair signs."""
    rad = iq.Level(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    return iq.ProductModel(euclid(1), (rad,) * depth)


def calibrated_A(pair, p, b):
    """The threshold A at which the pair's window profile certifies smallness b."""
    return iq._calibrated(pair.stack, p, b)[0]


def conditional_norm_star(pair, p):
    """T*_p(f) = max_n T_p(f^n), per path."""
    return pair.stack.window_table(p).norm_star[0]


def chebyshev_ok(pair, p, A):
    """Chebyshev's chain for the window profile at threshold A, with slack
    1e-12: at each atom of positive mass and t_sup, P(win > A t_sup | atom) <=
    E[win^p | atom] / (A t_sup)^p, and b_hat <= (d_hat / A)^p.  Nothing to
    check at A = 0."""
    if A <= 0:
        return True
    for win, probs, mass, t_sup in pair.stack.window_table(p).atoms.values():
        for w, pb, m, t in zip(win[0], probs[0], mass[0], t_sup[0]):
            if m > 0 and t > 0 and (float(pb[w > A * t].sum()) / m
                                    > float(pb @ w ** p) / m / (A * t) ** p + 1e-12):
                return False
    prof = iq.bmo_condition(pair, p, A)
    return prof.b_hat <= prof.d_hat ** p / A ** p + 1e-12


def test_report_as_dict():
    rep = iq.IneqReport("x", {"t": 1}, np.float64(1.0), 2.0, True, 1.0)
    d = rep.as_dict()
    assert isinstance(d["lhs"], float) and d["holds"] is True


def test_report_as_dict_matches_asdict():
    rep = iq.IneqReport("x", {"t": 1, "m": [0.0, 1.0]}, np.float64(1.5), 2.0,
                        np.bool_(True), np.float64(0.5), status="vacuous",
                        extra={"grid": [{"lambda": 1.0}]})
    want = dataclasses.asdict(rep)
    for key in ("lhs", "rhs", "margin"):
        want[key] = float(want[key])
    got = rep.as_dict()
    assert got == want and list(got) == list(want)
    assert all(type(got[key]) is float for key in ("lhs", "rhs", "margin"))
    got["params"]["t"] = 2
    assert rep.params["t"] == 1


def test_one_sided_reports_allow_1e_12():
    upper = iq._one_sided("x", {"t": 1.0}, 1.0 + 1e-13, 1.0)
    assert upper.holds and upper.margin == 1.0 - (1.0 + 1e-13) and upper.params == {"t": 1.0}
    assert not iq._one_sided("x", {}, 1.0 + 1e-11, 1.0).holds
    lower = iq._one_sided("x", {}, 1.0, 1.0 + 1e-13, lower=True)
    assert lower.holds and lower.margin == 1.0 - (1.0 + 1e-13)
    assert not iq._one_sided("x", {}, 1.0, 1.0 + 1e-11, lower=True).holds


def test_one_sided_slack_scales_with_scaled_sides():
    # moments and norms: 1e-12 relative, at any size
    big, small = 2.0 ** 40, 2.0 ** -60
    assert iq._one_sided("x", {}, big * (1 + 2 ** -45), big, scaled=True).holds
    assert not iq._one_sided("x", {}, big * (1 + 2 ** -35), big, scaled=True).holds
    assert not iq._one_sided("x", {}, small, 0.5 * small, scaled=True).holds
    assert iq._one_sided("x", {}, 0.0, 0.0, scaled=True).holds
    # probabilities: 1e-12 absolute, as the unit-free sides are
    assert not iq._one_sided("x", {}, big * (1 + 2 ** -45), big).holds
    assert iq._one_sided("x", {}, small, 0.5 * small).holds


def test_one_sided_reports_the_first_side_of_least_margin():
    for lhs, rhs in (([1.0, 3.0, 2.0, 0.0], [2.0, 2.5, 1.5, 1.0]),
                     (np.array([1.0, 3.0, 2.0, 0.0]), np.array([2.0, 2.5, 1.5, 1.0]))):
        rep = iq._one_sided("x", {"t": 1.0}, lhs, rhs, scaled=True, extra={"grid": []})
        assert (rep.lhs, rep.rhs, rep.margin, rep.holds) == (3.0, 2.5, -0.5, False)
        assert all(type(v) is float for v in (rep.lhs, rep.rhs, rep.margin))
        assert type(rep.holds) is bool and rep.extra == {"grid": []}
    # every element must hold, within its own slack
    rep = iq._one_sided("x", {}, [2.0 ** 40 * (1 + 2 ** -45), 1.0], [2.0 ** 40, 2.0], scaled=True)
    assert rep.holds and rep.lhs == 2.0 ** 40 * (1 + 2 ** -45)
    lower = iq._one_sided("x", {}, [1.0, 0.5], [0.5, 0.75], lower=True, status="vacuous")
    assert (lower.lhs, lower.margin, lower.holds, lower.status) == (0.5, -0.25, False, "vacuous")


@pytest.mark.parametrize("lhs, rhs", [(math.nan, 1.0), (1.0, math.inf), ([1.0, math.nan], [1.0, 2.0]),
                                      (np.array([1.0, 2.0]), np.array([-math.inf, 2.0]))])
def test_one_sided_has_no_verdict_on_a_side_that_is_not_finite(lhs, rhs):
    with pytest.raises(pm.ModelError, match="^levy-max-sum: a side is not finite"):
        iq._one_sided("levy-max-sum", {}, lhs, rhs)


# ---------------------------------------------------------------------------
# moment functionals


def test_power_functional():
    phi = iq.power(2.0)
    assert phi(3.0) == 9.0
    assert iq.power(2.0) is phi and iq.power(3.0) is not phi
    out = phi(np.array([1.0, 2.0]))
    assert np.allclose(out, [1.0, 4.0])


@pytest.mark.parametrize("phi", [iq.power(0.5), iq.power(2.0), iq.power(3.7),
                                 iq.power_log(1.0), iq.power_log(2.5)], ids=lambda phi: phi.name)
def test_functional_on_arrays_matches_the_elementwise_calls(phi):
    gen = np.random.default_rng(5)
    t = np.abs(gen.standard_normal((81, 27))) * np.logspace(-3, 3, 27)
    t[0, :4] = [0.0, 1.0, 1e-300, 2.0 ** 60]
    for arr in (t, t.T, t[::2, 1::3], t[5, 7], np.arange(12).reshape(3, 4)):
        want = np.array([phi.fn(float(x)) for x in np.ravel(arr)]).reshape(np.shape(arr))
        np.testing.assert_array_equal(phi(arr), want)


def test_power_log_is_admissible():
    phi = iq.power_log(2.0)
    assert phi(0.0) == 0.0
    assert phi(1.0) == pytest.approx(math.log(2.0))
    with pytest.raises(iq.PhiError):
        iq.power_log(0.5)


def test_functional_growth_contract_enforced():
    # quadratic growth declared as order 1
    with pytest.raises(iq.PhiError, match="Phi\\(st\\)"):
        iq.MomentFunctional(lambda t: t * t, 1.0)
    with pytest.raises(iq.PhiError, match="nondecreasing"):
        iq.MomentFunctional(lambda t: t * math.exp(-t), 1.0)
    with pytest.raises(iq.PhiError, match="must be 0"):
        iq.MomentFunctional(lambda t: t + 1.0, 1.0)
    with pytest.raises(iq.PhiError, match="nonnegative"):
        iq.MomentFunctional(lambda t: -t, 1.0)
    with pytest.raises(iq.PhiError):
        iq.MomentFunctional(lambda t: t, 0.0)


# ---------------------------------------------------------------------------
# finite laws and product models


def test_finite_law_validation():
    law = iq.Level(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    assert law.values.shape == (2,)
    with pytest.raises(pm.ModelError):
        iq.Level(np.array([1.0, -1.0]), np.array([0.7, 0.7]))
    with pytest.raises(pm.ModelError):
        iq.Level(np.array([1.0]), np.array([0.5, 0.5]))


def test_finite_law_symmetry():
    assert iq.Level(np.array([1.0, -1.0]), np.array([0.5, 0.5])).is_symmetric()
    assert not iq.Level(np.array([1.0, -1.0]), np.array([0.7, 0.3])).is_symmetric()
    # duplicate rows must be aggregated before comparing masses
    dup = iq.Level(np.array([1.0, 1.0, -1.0]), np.array([0.25, 0.25, 0.5]))
    assert dup.is_symmetric()
    assert iq.Level(np.array([0.0, 0.0]), np.array([0.5, 0.5])).is_symmetric()


def test_product_model():
    rad = iq.Level(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    model = iq.ProductModel(euclid(1), (rad, rad))
    assert model.outcome_count == 4
    seq = model.to_sequence()
    assert seq.terminal_moment(2.0) == pytest.approx(2.0)
    with pytest.raises(pm.ModelError):
        iq.ProductModel(euclid(2), (rad,))
    # every parent node of level n carries the atoms of law n
    gen = stream(6, "product-tables")
    laws = tuple(iq.random_symmetric_law(gen, 2, atoms) for atoms in (1, 3, 2))
    seq = iq.ProductModel(euclid(2), laws).to_sequence()
    for n, law in enumerate(laws, start=1):
        table = seq.tables[n - 1]
        assert table.shape == (seq.tree.num_nodes(n - 1),) + law.values.shape
        for u in range(table.shape[0]):
            assert np.array_equal(table[u], law.values)


def test_to_sequence_levels_are_the_model_laws(monkeypatch):
    gen = stream(6, "product-levels")
    laws = tuple(iq.random_symmetric_law(gen, 2, atoms) for atoms in (1, 3, 2))
    model = iq.ProductModel(euclid(2), laws)
    monkeypatch.setattr(pm.Level, "__post_init__", lambda self: pytest.fail("built a Level"))
    seq = model.to_sequence()
    assert len(seq.tree.levels) == len(laws)
    assert all(level is law for level, law in zip(seq.tree.levels, laws))


def test_product_model_budget_counts_path_sum_floats(monkeypatch):
    # 11 levels of 4 atoms on l2:4: 4^11 outcomes x 12 partial sums x 4 coordinates
    gen = stream(6, "product-budget")
    model = iq.random_product_model(gen, euclid(4), levels=11)
    assert model.outcome_count == 4 ** 11
    tracemalloc.start()
    try:
        with pytest.raises(pm.EnumerationError, match=f"{4 ** 11 * 12 * 4} partial-sum floats"):
            model.to_sequence()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # the rule is floats <= JOINT_LIMIT, outcomes x (levels + 1) x dim
    small = iq.random_product_model(gen, euclid(4), levels=3)
    monkeypatch.setattr(iq, "JOINT_LIMIT", 4 ** 3 * 4 * 4)
    assert small.to_sequence().tree.path_count == 4 ** 3
    monkeypatch.setattr(iq, "JOINT_LIMIT", 4 ** 3 * 4 * 4 - 1)
    with pytest.raises(pm.EnumerationError, match="over budget"):
        small.to_sequence()


def test_product_suites_build_each_model_once(monkeypatch):
    import decoupling_lab.cli as cli

    built = []
    node_sums = iq.ProductStack.node_sums.func
    counted = functools.cached_property(
        lambda stack: built.extend(stack.models) or node_sums(stack))
    counted.__set_name__(iq.ProductStack, "node_sums")
    monkeypatch.setattr(iq.ProductStack, "node_sums", counted)
    # each model is enumerated in one stack; contraction reads its sub-sum
    # off that enumeration
    for suite in ("levy", "revkol", "contraction", "symsum"):
        built.clear()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--suite", suite, "--space", "l2:2", "--trials", "10",
                             "--seed", "0", "--workers", "1"]) == 0
        assert len(built) == 10, suite
        assert len({id(model) for model in built}) == len(built), suite


def _per_trial_values(suite, model, t, p, variant, mults):
    """(lhs, rhs) of one product-suite trial, from its outcomes enumerated by
    explicit digits (outcome o reads atom (o // stride_n) mod a_n of law n,
    stride_n the product of the later laws' atom counts), not by a PathStack:
    the checks as they ran one model at a time."""
    space, sizes = model.space, model.shape
    outcomes = np.arange(model.outcome_count)
    incs, sums, probs = [], [np.zeros((len(outcomes), space.dim))], np.ones(len(outcomes))
    for n, law in enumerate(model.laws, start=1):
        digits = outcomes // math.prod(sizes[n:]) % sizes[n - 1]
        incs.append(law.values.reshape(law.size, -1)[digits])
        sums.append(sums[-1] + incs[-1])
        probs = probs * law.probs[digits]
    norms = space.norms(np.stack(sums, axis=1))
    d_star = np.max([space.norms(inc) for inc in incs], axis=0)
    thresh = 2.0 ** (1.0 - 1.0 / space.r) * t
    _, upper = lu_constants(p / space.r)
    if suite == "levy":
        stat = norms[:, 1:].max(axis=1) if variant == "max-sum" else d_star
        return float(probs[stat > t].sum()), 2.0 * float(probs[norms[:, -1] > thresh].sum())
    if suite == "contraction":
        sub = np.zeros((len(outcomes), space.dim))
        for inc, m in zip(incs, mults):
            if m == 1.0:
                sub += inc
        return (float(probs[space.norms(sub) > t].sum()),
                2.0 * float(probs[norms[:, -1] > thresh].sum()))
    if suite == "revkol":
        denom = float((norms[:, -1] ** p) @ probs)
        star = float((d_star ** p) @ probs)
        return (float(probs[norms[:, 1:].max(axis=1) > t].sum()),
                2.0 ** (p - 1.0) * (upper ** -2.0 - (t ** p + star) / denom))
    total = space.norms(sums[-1]) ** p
    return (float((space.norms(incs[0]) ** p) @ probs),
            2.0 ** (1.0 - p) * upper * float(total @ probs))


@pytest.mark.parametrize("text", ["l2:4", "lp:0.5:3", "lp:3:8", "linf:3", "nested:1x2,3x2"])
def test_stacked_product_reports_match_per_trial(text, monkeypatch):
    import decoupling_lab.cli as cli

    space, p, depth, seed, trials = parse_space(text), 1.5, 6, 4, 24
    stacks = []
    init = iq.ProductStack.__init__
    monkeypatch.setattr(iq.ProductStack, "__init__",
                        lambda stack, models: stacks.append(models) or init(stack, models))
    for suite in ("levy", "contraction", "revkol", "symsum"):
        # three ranges, so shape groups span ranges as with --workers 3
        rows = []
        for start, stop in ((0, 7), (7, 16), (16, trials)):
            chunks, failed = cli._verify_one((suite, text, p, depth, start, stop, seed, "json"))
            rows += json.loads("[" + ",".join(chunks) + "]")
            assert not failed
        assert [row["model"] for row in rows] == list(range(trials))
        want, alone = [], 0
        for index in range(trials):
            gen = stream(seed, "verify", suite, index)
            if suite == "symsum":
                xi, zeta = (iq.random_symmetric_law(gen, space.dim) for _ in range(2))
                model, rep = iq.ProductModel(space, (xi, zeta)), iq.check_symsum(space, xi, zeta, p)
                want.append(_per_trial_values(suite, model, 0.0, p, None, None))
            else:
                model = iq.random_product_model(gen, space, levels=int(gen.integers(2, depth + 1)))
                factor = float(gen.choice([0.5, 1.0, 1.5]))
                mults = (gen.integers(0, 2, size=len(model.laws)).astype(float)
                         if suite == "contraction" else None)
                seq = model.to_sequence()
                f_star = space.norms(path_sums(seq)).max(axis=1)
                np.testing.assert_array_equal(seq.paths.f_star[0], f_star)
                t = (float(np.quantile(f_star, 0.7)) or 1.0) * factor
                variant = ("max-sum", "max-term")[index % 2]
                want.append(_per_trial_values(suite, model, t, p, variant, mults))
                rep = {"levy": lambda: iq.check_levy(model, t, variant),
                       "contraction": lambda: iq.check_contraction(model, mults, t),
                       "revkol": lambda: iq.check_reverse_kolmogorov(model, t, p)}[suite]()
            # the checker is the stack of one, and gives the row the stack gives
            assert {**rep.as_dict(), "model": index} == rows[index]
            alone += model.floats > pm.BATCH_FLOATS
        for i, key in enumerate(("lhs", "rhs")):
            np.testing.assert_array_equal([row[key] for row in rows], [w[i] for w in want])
        if suite != "symsum":
            assert alone > 0, suite
    # a stack over BATCH_FLOATS holds one model; the others hold at most that
    for models in stacks:
        assert len(models) == 1 or sum(m.floats for m in models) <= pm.BATCH_FLOATS
    assert any(len(models) > 2 for models in stacks)


def _per_trial_pair_reports(suite, pair, p):
    """One pair-suite trial's reports from the check_* calls, the stack of one."""
    if suite == "tail":
        ts = sorted(set(float(x) for x in np.quantile(pair.seq.paths.d_star[0], [0.25, 0.5, 0.9])))
        return iq.check_tail_comparison(pair, ts)
    if suite == "goodlambda":
        return iq.check_goodlambda(pair, p, A=calibrated_A(pair, p, 0.5), b=0.5)
    if suite == "davis":
        return [iq.check_davis_pathwise(pair)]
    return [iq.check_extrapolation(pair, p, q=2.0)]


@pytest.mark.parametrize("text", ["l2:4", "lp:0.5:3", "lp:3:8", "linf:3", "nested:1x2,3x2"])
def test_stacked_pair_reports_match_per_trial(text, monkeypatch):
    import decoupling_lab.cli as cli

    space, p, depth, seed, trials = parse_space(text), 1.5, 5, 4, 24
    stacks = []
    of = pm.PairStack.of.__func__
    monkeypatch.setattr(pm.PairStack, "of",
                        classmethod(lambda cls, pairs: stacks.append(pairs) or of(cls, pairs)))
    alone = 0
    for suite in ("tail", "goodlambda", "davis", "extrapolation"):
        # three ranges, so shape groups span ranges as with --workers 3
        rows = []
        for start, stop in ((0, 7), (7, 16), (16, trials)):
            chunks, failed = cli._verify_one((suite, text, p, depth, start, stop, seed, "json"))
            rows += json.loads("[" + ",".join(chunks) + "]")
            assert not failed
        want = []
        for index in range(trials):
            pair = pm.random_pair(stream(seed, "verify", suite, index), space, max_depth=depth)
            want += [{**rep.as_dict(), "model": index}
                     for rep in _per_trial_pair_reports(suite, pair, p)]
            alone += pm.pair_floats(pair.tree.sizes, space) > pm.BATCH_FLOATS
        assert rows == want, suite
    assert alone > 0
    # a stack over BATCH_FLOATS holds one pair; the others hold at most that
    for pairs in stacks:
        floats = sum(pm.pair_floats(pair.tree.sizes, space) for pair in pairs)
        assert len(pairs) == 1 or floats <= pm.BATCH_FLOATS
        assert len({pair.tree.sizes for pair in pairs}) == 1
    assert any(len(pairs) > 2 for pairs in stacks)


@pytest.mark.parametrize("text", ["l2:3", "lp:0.5:2", "linf:2", "nested:1x2,3x2"])
def test_pair_stack_models_keep_their_own_masses(text):
    # one shape, every model its own level masses and tables: each model's
    # reports are those of its stack of one
    space = parse_space(text)
    gen = stream(8, "own-masses", text)
    pairs = []
    for centers in ((0.5, 2 / 3, 0.5), (2 / 3, 0.5, 2 / 3), (0.5, 0.5, 0.5), (2 / 3, 2 / 3, 0.5)):
        tree = pm.FiltrationTree([pm._three_point(2.0, c) for c in centers])
        pairs.append(pm.decouple(pm.random_general_sequence(gen, tree, space)))
    stack = pm.PairStack.of(pairs)
    tss = [[0.5, 1.0, 2.0]] * len(pairs)
    checks = {
        "tail": lambda stack: iq.tail_reports(stack, tss[:len(stack.tables[0])]),
        "goodlambda": lambda stack: iq.goodlambda_reports(stack, 1.5, None, 0.5),
        "davis": lambda stack: [[rep] for rep in iq.davis_reports(stack)],
        "extrapolation": lambda stack: [[rep] for rep in iq.extrapolation_reports(
            stack, 1.5, 2.0, b=1e-3)],
        "bmo": lambda stack: [[prof] for prof in iq.bmo_profiles(stack, 1.5, [0.5, 1.0, 2.0, 4.0])],
    }
    for name, check in checks.items():
        got = check(stack)
        for i, pair in enumerate(pairs):
            if name == "bmo":
                want = [iq.bmo_condition(pair, 1.5, [0.5, 1.0, 2.0, 4.0][i])]
            else:
                want = check(pm.PairStack.of([pair]))[0]
            assert got[i] == want, (name, i)


@pytest.mark.parametrize("seed", [0, 6])
def test_a_failing_stack_raises_the_first_failing_trial_in_index_order(seed, monkeypatch,
                                                                         capsys):
    import decoupling_lab.cli as cli

    # davis refuses each model whose first level has three letters and a
    # negative first increment, naming the model by its d*
    davis, raised = iq.davis_reports, []

    def refusing(stack):
        reports = davis(stack)
        for i in range(len(reports)):
            if stack.sizes[0] == 3 and stack.tables[0][i, 0, 0, 0] < 0:
                raised.append(f"model with d*={stack.d_star[i].max():.17g} refused")
                raise pm.ModelError(raised[-1])
        return reports

    monkeypatch.setattr(iq, "davis_reports", refusing)
    first = None
    for index in range(12):
        try:
            refusing(pm.random_pair(stream(seed, "verify", "davis", index), euclid(2),
                                    max_depth=3).stack)
        except pm.ModelError as exc:
            first = str(exc)
            break
    raised.clear()
    assert cli.main(["verify", "--suite", "davis", "--space", "l2:2", "--depth", "3",
                     "--trials", "12", "--seed", str(seed), "--workers", "1"]) == 2
    assert capsys.readouterr().err == f"decoupling-lab: {first}\n"
    # the stacks met a later trial's refusal first
    assert raised[0] != first


def test_a_failing_product_stack_raises_the_first_failing_trial_in_index_order(monkeypatch,
                                                                                 capsys):
    import decoupling_lab.cli as cli

    # levy refuses each model whose first law's first atom is negative,
    # naming the model by its laws' atoms
    levy, raised = iq.levy_reports, []

    def refusing(stack, ts, variants):
        for model in stack.models:
            if model.laws[0].values.flat[0] < 0:
                raised.append(f"model {[law.values.tolist() for law in model.laws]} refused")
                raise pm.ModelError(raised[-1])
        return levy(stack, ts, variants)

    monkeypatch.setattr(iq, "levy_reports", refusing)
    space, depth = euclid(2), 4
    for index in range(12):
        gen = stream(0, "verify", "levy", index)
        first = iq.random_product_model(gen, space, levels=int(gen.integers(2, depth + 1)))
        if first.laws[0].values.flat[0] < 0:
            break
    with pytest.raises(pm.ModelError) as alone:
        refusing(iq.ProductStack([first]), [1.0], ["max-sum"])
    raised.clear()
    assert cli.main(["verify", "--suite", "levy", "--space", "l2:2", "--depth", str(depth),
                     "--trials", "12", "--seed", "0", "--workers", "1"]) == 2
    assert capsys.readouterr().err == f"decoupling-lab: {alone.value}\n"
    # the first shape group checked met a later trial's refusal
    assert raised[0] != str(alone.value)


@pytest.mark.parametrize("text", ["l2:4", "lp:0.5:3"])
def test_stacked_verify_bytes_do_not_depend_on_workers(text):
    import decoupling_lab.cli as cli

    outputs = []
    for workers in ("1", "2"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["verify", "--suite", "all", "--space", text, "--depth", "4",
                             "--trials", "30", "--seed", "7", "--workers", workers]) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("text", ["l2:4", "lp:0.5:3", "linf:3", "nested:1x2,3x2"])
def test_pair_stack_at_the_batch_edge_holds_its_budget(text):
    # the most pairs of the widest depth-4 shape one stack admits: every
    # pair check holds at most BATCH_FLOATS floats, and a little beside them
    space = parse_space(text)
    tree = pm.symmetric_three_point(4)
    count = pm.BATCH_FLOATS // pm.pair_floats(tree.sizes, space)
    assert count > 1 and (count + 1) * pm.pair_floats(tree.sizes, space) > pm.BATCH_FLOATS
    pairs = [pm.decouple(pm.random_multiplier_sequence(stream(9, "stack-edge", i), tree, space))
             for i in range(count)]
    iq.extrapolation_reports(pm.PairStack.of(pairs[:1]), 2.0, 2.0)  # caches filled once
    for check in (lambda stack: iq.tail_reports(stack, [[0.5, 1.0]] * count),
                  lambda stack: iq.goodlambda_reports(stack, 2.0, None, 0.5),
                  iq.davis_reports,
                  lambda stack: iq.extrapolation_reports(stack, 2.0, 2.0)):
        stack = pm.PairStack.of(pairs)
        tracemalloc.start()
        try:
            check(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * pm.BATCH_FLOATS + 2 ** 18


def test_extrapolation_constant_is_evaluated_once_per_distinct_arguments(monkeypatch):
    import decoupling_lab.bounds as bd
    import decoupling_lab.cli as cli

    calls = []
    constant = bd.extrapolation_constant
    monkeypatch.setattr(bd, "extrapolation_constant",
                        lambda *args: calls.append(args) or constant(*args))
    iq._extrapolation_value.cache_clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["verify", "--suite", "extrapolation", "--space", "l2:4", "--depth", "4",
                         "--trials", "60", "--seed", "0", "--workers", "1"]) == 0
    iq._extrapolation_value.cache_clear()
    constants = {tuple(row["params"][key] for key in ("p", "q", "A", "b"))
                 for row in json.loads(out.getvalue())["results"]}
    assert sorted(calls) == sorted((*args, 1.0) for args in constants)
    assert len(calls) < 60


def test_product_stack_checks_symmetry_once_per_level(monkeypatch):
    # every model's law at a level is checked in one symmetry_gaps call
    calls = []
    gaps = pm.symmetry_gaps
    monkeypatch.setattr(iq, "symmetry_gaps",
                        lambda values, probs: calls.append(values.shape) or gaps(values, probs))
    gen = stream(11, "symmetry-calls")
    stack = iq.ProductStack([iq.random_product_model(gen, euclid(2), levels=4) for _ in range(3)])
    for check in (lambda: iq.levy_reports(stack, [1.0] * 3, ["max-sum", "max-term", "max-sum"]),
                  lambda: iq.contraction_reports(stack, [[1.0, 0.0, 1.0, 1.0]] * 3, [1.0] * 3),
                  lambda: iq.reverse_kolmogorov_reports(stack, [1.0] * 3, 1.5)):
        calls.clear()
        check()
        assert calls == [(3, 4, 2)] * 4
    pairs = iq.ProductStack([iq.ProductModel(euclid(2), (iq.random_symmetric_law(gen, 2, 1),
                                                         iq.random_symmetric_law(gen, 2, 3)))
                             for _ in range(5)])
    calls.clear()
    iq.symsum_reports(pairs, 1.5)
    assert calls == [(5, 6, 2)]


def test_asymmetric_laws_raise_the_same_error_from_every_check():
    gen = stream(12, "asymmetric")
    good = iq.random_product_model(gen, euclid(2), levels=3)
    # four atoms, as the symmetric laws have; (1, 0) has mass 1/4, (-1, 0) mass 1/2
    lopsided = iq.Level(np.array([[1.0, 0.0], [-1.0, -0.0], [2.0, 1.0], [-1.0, 0.0]]),
                        (0.25, 0.25, 0.25, 0.25))
    assert not lopsided.is_symmetric()
    bad = iq.ProductModel(euclid(2), good.laws[:2] + (lopsided,))
    stack = iq.ProductStack((good, bad))
    laws = "^increment laws must be symmetric for this bound$"
    for check in (lambda: iq.levy_reports(stack, [1.0, 1.0], ["max-sum", "max-term"]),
                  lambda: iq.contraction_reports(stack, [[1.0, 1.0, 0.0]] * 2, [1.0, 1.0]),
                  lambda: iq.reverse_kolmogorov_reports(stack, [1.0, 1.0], 2.0),
                  lambda: iq.check_levy(bad, 1.0, "max-term"),
                  lambda: iq.check_contraction(bad, [1.0, 0.0, 1.0], 1.0),
                  lambda: iq.check_reverse_kolmogorov(bad, 1.0, 2.0)):
        with pytest.raises(pm.ModelError, match=laws):
            check()
    zeta = iq.random_symmetric_law(gen, 2)
    pairs = iq.ProductStack([iq.ProductModel(euclid(2), (zeta, law)) for law in (zeta, lopsided)])
    with pytest.raises(pm.ModelError, match="^zeta must be symmetric$"):
        iq.symsum_reports(pairs, 1.0)
    with pytest.raises(pm.ModelError, match="^zeta must be symmetric$"):
        iq.check_symsum(euclid(2), zeta, lopsided, 1.0)
    # symsum asks nothing of xi
    assert iq.check_symsum(euclid(2), lopsided, zeta, 1.0).holds


def test_levy_forms_increment_norms_only_for_max_term(monkeypatch):
    # only max-term reads d*, the increment norms (one norm per atom), so a
    # stack forms them only when one of its trials takes that variant
    built = []
    d_star = iq.ProductStack.d_star.func
    counted = functools.cached_property(lambda stack: built.append(stack) or d_star(stack))
    counted.__set_name__(iq.ProductStack, "d_star")
    monkeypatch.setattr(iq.ProductStack, "d_star", counted)
    model = rademacher_model(3)
    iq.check_levy(model, 1.0, "max-sum")
    iq.levy_reports(iq.ProductStack((model, model)), [1.0, 0.5], ["max-sum", "max-sum"])
    assert built == []
    iq.levy_reports(iq.ProductStack((model, model)), [1.0, 0.5], ["max-sum", "max-term"])
    iq.check_levy(model, 1.0, "max-term")
    assert len(built) == 2


def test_scalar_and_column_atoms_give_the_same_reports():
    gen = stream(9, "scalar-column")
    columns = tuple(iq.random_symmetric_law(gen, 1, atoms) for atoms in (1, 2, 3))
    scalars = tuple(iq.Level(law.values[:, 0], law.probs) for law in columns)
    assert all(law.values.shape == (law.size,) for law in scalars)
    by_column = iq.ProductModel(euclid(1), columns)
    by_scalar = iq.ProductModel(euclid(1), scalars)
    for t in (0.0, 0.5, 1.0, 2.5):
        for variant in ("max-sum", "max-term"):
            assert (iq.check_levy(by_scalar, t, variant).as_dict()
                    == iq.check_levy(by_column, t, variant).as_dict())
        for p in (0.5, 1.0, 3.0):
            assert (iq.check_reverse_kolmogorov(by_scalar, t, p).as_dict()
                    == iq.check_reverse_kolmogorov(by_column, t, p).as_dict())


# ---------------------------------------------------------------------------
# distributional bounds for symmetric sums


def test_levy_sharp_on_signs():
    rep = iq.check_levy(rademacher_model(3), 1.5)
    assert rep.holds
    assert rep.lhs == pytest.approx(0.5)
    assert rep.rhs == pytest.approx(0.5)
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_levy_max_term_variant():
    rep = iq.check_levy(rademacher_model(3), 1.5, variant="max-term")
    assert rep.holds and rep.lhs == 0.0
    with pytest.raises(ValueError):
        iq.check_levy(rademacher_model(2), 1.0, variant="median")


def test_levy_quasinorm_threshold():
    gen = stream(6, "levy-quasi")
    model = iq.random_product_model(gen, seq_lp(0.5, 2), levels=3)
    rep = iq.check_levy(model, 0.8)
    assert rep.params["r"] == 0.5
    assert rep.holds


def test_levy_rejects_asymmetric():
    law = iq.Level(np.array([1.0, -2.0]), np.array([0.5, 0.5]))
    model = iq.ProductModel(euclid(1), (law, law))
    with pytest.raises(pm.ModelError, match="symmetric"):
        iq.check_levy(model, 1.0)


def test_contraction():
    gen = stream(7, "contraction")
    model = iq.random_product_model(gen, euclid(2), levels=3)
    assert iq.check_contraction(model, [1.0, 1.0, 1.0], 0.9).holds
    zero = iq.check_contraction(model, [0.0, 0.0, 0.0], 0.9)
    assert zero.holds and zero.lhs == 0.0
    assert iq.check_contraction(model, [1.0, 0.0, 1.0], 0.4).holds
    with pytest.raises(pm.ModelError, match="0 or 1"):
        iq.check_contraction(model, [0.5, 1.0, 1.0], 0.9)
    with pytest.raises(pm.ModelError, match="one multiplier per increment"):
        iq.check_contraction(model, [1.0, 1.0], 0.9)


@pytest.mark.parametrize("space", [euclid(1), euclid(4), euclid(9), seq_lp(0.5, 3),
                                   seq_lp(1.5, 10), sup_norm(4), nested([(1, 2), (3, 2)])],
                         ids=format_space)
def test_contraction_sub_sum_matches_the_scaled_model_bit_for_bit(space, monkeypatch):
    """The kept sub-sum, f_N of the model's tables scaled by the 0-1
    multipliers, has the terminal norms of the model whose laws are so
    scaled, -0.0 atoms and all."""
    gen = stream(13, "contraction-bits")
    norms = type(space).norms
    signed_zeros = 0
    for _ in range(12):
        base = iq.random_product_model(gen, space, levels=int(gen.integers(2, 5)),
                                       atoms=int(gen.integers(1, 4)))
        # non-dyadic atoms, so that the order of the additions shows in the bits
        model = iq.ProductModel(space, tuple(iq.Level(gen.uniform(0.1, 3.0) * law.values,
                                                      law.probs) for law in base.laws))
        mults = [float(m) for m in gen.integers(0, 2, size=len(model.laws))]
        scaled = iq.ProductModel(space, tuple(iq.Level(m * law.values, law.probs)
                                              for m, law in zip(mults, model.laws)))
        # a 0 multiplier turns the law's negative atoms into -0.0 increments
        signed_zeros += sum(np.signbit(law.values[law.values == 0]).any()
                            for law in scaled.laws)
        want = space.norms(path_sums(scaled.to_sequence())[:, -1])
        # the sub-sum's norms are those the check takes of the f_N of the one
        # PathStack it builds, here for a stack of one
        stacks, seen = [], []
        monkeypatch.setattr(iq, "PathStack",
                            lambda *args: stacks.append(pm.PathStack(*args)) or stacks[-1])
        monkeypatch.setattr(type(space), "norms",
                            lambda self, arr: seen.append((arr, norms(self, arr))) or seen[-1][1])
        iq.check_contraction(model, mults, 1.0)
        monkeypatch.undo()
        [sub] = stacks
        [got] = [out[0] for arr, out in seen if arr is sub.terminal]
        np.testing.assert_array_equal(got, want)
    assert signed_zeros > 0


def test_symsum_point_mass_cases():
    one = iq.Level(np.array([1.0]), np.array([1.0]))
    rad = iq.Level(np.array([1.0, -1.0]), np.array([0.5, 0.5]))
    # adding a fair sign to a unit point mass: sharp at p = 1
    rep = iq.check_symsum(euclid(1), one, rad, 1.0)
    assert rep.holds and rep.margin == pytest.approx(0.0, abs=1e-12)
    rep2 = iq.check_symsum(euclid(1), one, rad, 2.0)
    assert rep2.holds and rep2.lhs == pytest.approx(1.0) and rep2.rhs == pytest.approx(2.0)
    # degenerate zero summand: the bound collapses to E||xi||^p <= c E||xi||^p
    null = iq.Level(np.array([0.0]), np.array([1.0]))
    rep3 = iq.check_symsum(euclid(1), one, null, 1.0)
    assert rep3.holds and rep3.margin == pytest.approx(0.0, abs=1e-12)


def test_check_symsum_tests_symmetry_once(monkeypatch):
    calls = []
    gaps = pm.symmetry_gaps

    def counted(*args):
        calls.append(args)
        return gaps(*args)

    # Level.is_symmetric reads probmodel's name, ProductStack inequalities'
    monkeypatch.setattr(pm, "symmetry_gaps", counted)
    monkeypatch.setattr(iq, "symmetry_gaps", counted)
    gen = stream(8, "symsum-once")
    xi, zeta = iq.random_symmetric_law(gen, 2), iq.random_symmetric_law(gen, 2)
    assert iq.check_symsum(euclid(2), xi, zeta, 1.0).holds
    assert len(calls) == 1


def test_symsum_quasinorm():
    gen = stream(8, "symsum-quasi")
    xi = iq.random_symmetric_law(gen, 2)
    zeta = iq.random_symmetric_law(gen, 2)
    rep = iq.check_symsum(seq_lp(0.5, 2), xi, zeta, 0.7)
    assert rep.holds and rep.params["r"] == 0.5
    with pytest.raises(pm.ModelError, match="symmetric"):
        bad = iq.Level(np.array([1.0]), np.array([1.0]))
        iq.check_symsum(euclid(1), xi, bad, 1.0)


def test_reverse_kolmogorov():
    model = rademacher_model(3)
    rep = iq.check_reverse_kolmogorov(model, 0.0, 1.0)
    assert rep.holds and rep.lhs == pytest.approx(1.0)
    # huge threshold makes the right side negative, trivially true
    far = iq.check_reverse_kolmogorov(model, 50.0, 2.0)
    assert far.holds and far.rhs < 0
    null = iq.Level(np.array([0.0]), np.array([1.0]))
    degenerate = iq.ProductModel(euclid(1), (null, null))
    rep0 = iq.check_reverse_kolmogorov(degenerate, 1.0, 2.0)
    assert rep0.holds and rep0.status == "vacuous"


def test_reverse_kolmogorov_randomized():
    gen = stream(9, "revkol")
    for i in range(10):
        space = [euclid(4), sup_norm(4), seq_lp(0.5, 2)][i % 3]
        model = iq.random_product_model(gen, space, levels=3)
        seq = model.to_sequence()
        sups = seq.space.norms(path_sums(seq)).max(axis=1)
        np.testing.assert_array_equal(seq.paths.f_star[0], sups)
        t = float(np.quantile(sups, 0.6))
        assert iq.check_reverse_kolmogorov(model, t, [0.5, 1.0, 2.0][i % 3]).holds


# ---------------------------------------------------------------------------
# tail comparison


def test_tail_comparison_exact():
    gen = stream(10, "tail")
    pair = pm.random_pair(gen, euclid(2), max_depth=4)
    d_star = pair.seq.paths.d_star[0]
    ts = [0.0, float(np.median(d_star)), float(d_star.max()) + 1.0]
    reports = iq.check_tail_comparison(pair, ts)
    assert len(reports) == 2 * len(ts)
    assert all(r.holds for r in reports)
    # beyond the support both tails vanish
    last_pair = [r for r in reports if r.params["t"] == ts[-1]]
    assert all(r.lhs == 0.0 and r.rhs == 0.0 for r in last_pair)
    # a repeated threshold gets the reports it gets once
    again = iq.check_tail_comparison(pair, [ts[0]] * 3)
    assert [r.as_dict() for r in again] == [r.as_dict() for r in reports[:2]] * 3


def brute_tail_masses(pair, ts):
    """P(d* > t) summed over paths and P(e* > t) summed over (omega, omega~)
    path pairs, at each t, with e_n = table[u_{n-1}(omega), j_n(omega~)] read
    straight from the tables (no joint engine)."""
    seq, tree = pair.seq, pair.tree
    paths, probs = np.arange(tree.path_count), tree.path_probs
    d_star = np.zeros(len(paths))
    e_star = np.zeros((len(paths), len(paths)))
    for n, table in enumerate(seq.tables, start=1):
        norms = seq.space.norms(table)
        parent = paths // tree.stride(n - 1)
        letter = paths // tree.stride(n) % tree.sizes[n - 1]
        d_star = np.maximum(d_star, norms[parent, letter])
        e_star = np.maximum(e_star, norms[parent[:, None], letter[None, :]])
    joint = np.outer(probs, probs)
    return ([float(probs[d_star > t].sum()) for t in ts],
            [float(joint[e_star > t].sum()) for t in ts])


@pytest.mark.parametrize("text", ("l2:2", "linf:3", "lp:0.5:3"))
def test_each_tail_bound_is_twice_the_other_brute_force_mass(text):
    # P(e* > t) <= 2 P(d* > t) and P(d* > t) <= 2 P(e* > t): each report's
    # rhs is twice the other's lhs, and each lhs is the brute-force mass, so a
    # changed constant or a misread mass fails without reading a digest
    tree = pm.FiltrationTree(pm.symmetric_three_point(2).levels + pm.paley_walsh(2).levels)
    space = parse_space(text)
    for case in range(3):
        gen = stream(case, "tail-brute", text)
        seq = (pm.random_multiplier_sequence if case == 0 else pm.random_general_sequence)(
            gen, tree, space)
        pair = pm.decouple(seq)
        atoms = sorted(set(np.concatenate([space.norms(t).ravel() for t in seq.tables]).tolist()))
        ts = [0.0, *atoms[::3], atoms[-1] + 1.0]
        d_mass, e_mass = brute_tail_masses(pair, ts)
        assert 0.0 < d_mass[0] and 0.0 < e_mass[0]
        reports = iq.check_tail_comparison(pair, ts)
        for t, e_by_d, d_by_e, d, e in zip(ts, reports[::2], reports[1::2], d_mass, e_mass):
            assert (e_by_d.inequality, d_by_e.inequality) == ("tail-e-by-d", "tail-d-by-e")
            assert e_by_d.params["t"] == d_by_e.params["t"] == t
            assert e_by_d.rhs == 2.0 * d_by_e.lhs and d_by_e.rhs == 2.0 * e_by_d.lhs
            assert d_by_e.lhs == pytest.approx(d, rel=1e-12, abs=1e-15)
            assert e_by_d.lhs == pytest.approx(e, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# conditional norms and the window profile


def test_conditional_norm_on_signs():
    pair = unit_pw_pair(3)
    for n in (1, 2, 3):
        nodes = np.arange(pair.tree.path_count) // pair.tree.stride(n - 1)
        vals = iq.window_conditional_norm(pair, 2.0, 0, n)[nodes]
        assert vals.shape == (pair.tree.path_count,)
        assert np.allclose(vals, math.sqrt(n), atol=1e-12)
    star = conditional_norm_star(pair, 2.0)
    assert np.allclose(star, math.sqrt(3.0), atol=1e-12)


def test_conditional_norm_dual_route():
    # E T_p(f)^p computed per atom must match the joint enumeration
    gen = stream(12, "dual")
    tree = pm.random_tree(gen, 4)
    seq = pm.random_general_sequence(gen, tree, seq_lp(0.5, 2))
    pair = pm.decouple(seq)
    n = tree.depth
    for p in (0.5, 1.0, 2.0):
        t_p = iq.window_conditional_norm(pair, p, 0, n)[np.arange(tree.path_count)
                                                         // tree.stride(n - 1)]
        lhs = float(t_p ** p @ tree.path_probs)
        assert lhs == pytest.approx(pm.g_terminal_moment(pair, p), rel=1e-12)
        # the running sup over n dominates the last window
        star = conditional_norm_star(pair, p)
        assert np.all(star >= t_p)


def test_window_norm_validation():
    pair = unit_pw_pair(3)
    with pytest.raises(pm.ModelError):
        iq.window_conditional_norm(pair, 2.0, 2, 2)
    copy = pm.independent_copy(pair.seq)
    with pytest.raises(pm.ModelError):
        iq.window_conditional_norm(copy, 2.0, 0, 1)


def test_bmo_profile_on_signs():
    pair = unit_pw_pair(3)
    prof = iq.bmo_condition(pair, 2.0, 2.0)
    assert prof.b_hat == 0.0
    assert prof.d_hat == pytest.approx(1.0, rel=1e-12)
    assert chebyshev_ok(pair, 2.0, 2.0)
    assert pair.stack.window_table(2.0).windows_built == 6
    wide = iq.bmo_condition(pair, 2.0, 0.0)
    assert wide.b_hat == pytest.approx(1.0)


def test_bmo_chebyshev_chain_randomized():
    gen = stream(14, "bmo")
    for i in range(8):
        pair = pm.random_pair(gen, euclid(2), max_depth=3, symmetric=bool(i % 2))
        prof = iq.bmo_condition(pair, 2.0, 4.0)
        assert chebyshev_ok(pair, 2.0, 4.0)
        assert 0.0 <= prof.b_hat <= 1.0
        assert prof.d_hat >= 1.0 - 1e-9  # the full window (0, N] has ratio 1


def test_a_nan_window_ratio_leaves_the_calibrated_checks_without_a_threshold():
    # verify's goodlambda trial 1 on l2:2 at p = 700: some window's two p-th
    # moments both overflow, so its ratio is inf / inf, while the full window
    # (0, N] alone has ratio 1
    pair = pm.random_pair(stream(0, "verify", "goodlambda", 1), euclid(2), max_depth=3,
                          symmetric=True)
    stack = pm.PairStack.of([pair])
    with np.errstate(all="ignore"):
        assert math.isnan(stack.window_table(700.0).d_hat[0])
        for inequality in ("goodlambda", "extrapolated-phi-domination"):
            with pytest.raises(pm.ModelError, match=f"^{inequality}: the window moment ratio "
                               "d_hat is not finite at p=700 on l2:2$"):
                iq._calibrated(stack, 700.0, 0.5, inequality)
        with pytest.raises(pm.ModelError, match="^goodlambda: "):
            iq.goodlambda_reports(stack, 700.0, None, 0.5)
        # at a given A the report's own parameter rule refuses the NaN d_hat
        with pytest.raises(pm.ModelError, match="^extrapolated-phi-domination: parameter "
                           "d_hat=nan is not finite"):
            iq.extrapolation_reports(stack, 700.0, 2.0, As=[1.0])


def test_a_goodlambda_level_that_is_not_finite_gives_no_verdict():
    # on lp:1e300:2 the norms overflow, so f* and the lambda grid read off it do
    pair = pm.random_pair(stream(0, "verify", "goodlambda", 0), parse_space("lp:1e300:2"),
                          max_depth=3, symmetric=True)
    with np.errstate(all="ignore"), pytest.raises(
            pm.ModelError, match="^goodlambda: parameter lambda=nan is not finite"):
        iq.check_goodlambda(pair, 2.0, A=1.0, b=0.5)


# ---------------------------------------------------------------------------
# the window table against per-window reference formulas


def reference_window_norm(pair, p, k, l):
    """T_p of the window (k, l] by its own enumeration of levels k+1..l."""
    seq, tree = pair.seq, pair.tree
    sizes = [tree.sizes[m - 1] for m in range(k + 1, l + 1)]
    combos = math.prod(sizes)
    picks = np.zeros((l - k, combos), dtype=np.int64)
    probs = np.ones(combos)
    rep = combos
    for i, m in enumerate(range(k + 1, l + 1)):
        rep //= sizes[i]
        idx = np.tile(np.repeat(np.arange(sizes[i]), rep), combos // (rep * sizes[i]))
        picks[i] = idx
        probs *= tree.levels[m - 1].probs[idx]
    node_ids = np.arange(tree.num_nodes(l - 1))
    total = np.zeros((node_ids.size, combos, seq.dim))
    for i, m in enumerate(range(k + 1, l + 1)):
        parents = tree.ancestor(node_ids, l - 1, m - 1)
        total += seq.tables[m - 1][parents][:, picks[i], :]
    return (seq.space.norms(total) ** p @ probs) ** (1.0 / p)


def reference_bmo(pair, p, A):
    """The window profile at A and whether Chebyshev's chain holds there,
    every statistic recomputed per window and atom."""
    seq, tree = pair.seq, pair.tree
    sums, path_probs = path_sums(seq), tree.path_probs
    b_hat, d_hat, cheb_ok = 0.0, 0.0, True
    for k in range(seq.depth):
        for l in range(k + 1, seq.depth + 1):
            t_nodes = reference_window_norm(pair, p, k, l)
            t_paths = t_nodes[np.arange(tree.path_count) // tree.stride(l - 1)]
            win = seq.space.norms(sums[:, l] - sums[:, k])
            atoms = tree.num_nodes(k - 1) if k > 0 else 1
            stride = tree.path_count // atoms
            node_stride = tree.num_nodes(l - 1) // atoms
            for b in range(atoms):
                rows = slice(b * stride, (b + 1) * stride)
                pb = path_probs[rows]
                mass = pb.sum()
                t_sup = float(t_nodes[b * node_stride:(b + 1) * node_stride].max())
                pcond = float(pb[win[rows] > A * t_sup].sum()) / mass
                num = float(pb @ (win[rows] ** p)) / mass
                den = float(pb @ (t_paths[rows] ** p)) / mass
                b_hat = max(b_hat, pcond)
                d_hat = max(d_hat, (num / den) ** (1.0 / p) if den > 0 else 0.0)
                if A > 0 and t_sup > 0 and pcond > num / (A * t_sup) ** p + 1e-12:
                    cheb_ok = False
    if A > 0 and b_hat > d_hat ** p / A ** p + 1e-12:
        cheb_ok = False
    return iq.BmoProfile(p, A, b_hat, d_hat), cheb_ok


TABLE_SPACES = [euclid(4), seq_lp(0.5, 3), sup_norm(3), nested([(1.0, 2), (3.0, 2)])]


def table_pairs(label, count=8):
    """Random depth-4 pairs, symmetric and general, on two- and three-letter trees."""
    gen = stream(21, "window-table", label)
    for i in range(count):
        space = TABLE_SPACES[i % len(TABLE_SPACES)]
        tree = pm.random_tree(gen, 4, symmetric=bool(i % 3))
        build = pm.random_multiplier_sequence if i % 2 else pm.random_general_sequence
        yield pm.decouple(build(gen, tree, space))


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_window_table_matches_per_window_formula(p):
    for pair in table_pairs(p, count=16):
        table = pair.stack.window_table(p)
        depth = pair.seq.depth
        assert list(table.norms) == [(k, l) for k in range(depth) for l in range(k + 1, depth + 1)]
        assert table.windows_built == depth * (depth + 1) // 2
        for (k, l), norms in table.norms.items():
            np.testing.assert_array_equal(norms, [reference_window_norm(pair, p, k, l)])
            assert iq.window_conditional_norm(pair, p, k, l).base is norms
        assert pair.stack.window_table(p) is table


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
def test_bmo_condition_matches_brute_force(p):
    b = 0.5
    for pair in table_pairs(f"bmo-{p}"):
        at_zero, _ = reference_bmo(pair, p, 0.0)
        A = at_zero.d_hat * b ** (-1.0 / p) if at_zero.d_hat > 0 else 1.0
        assert calibrated_A(pair, p, b) == A
        for a in (0.0, A, 0.5 * A):
            (want, cheb_ok), got = reference_bmo(pair, p, a), iq.bmo_condition(pair, p, a)
            for name in want.__dataclass_fields__:
                assert getattr(got, name) == getattr(want, name), name
            assert chebyshev_ok(pair, p, a) == cheb_ok


def test_window_table_is_read_only():
    pair = unit_pw_pair(2)
    norms = iq.window_conditional_norm(pair, 2.0, 0, 2)
    with pytest.raises(ValueError):
        norms[0] = 0.0


def test_window_table_budget_counts_window_floats(monkeypatch):
    # Paley-Walsh depth 11 on l2:5: the (0, 11] window holds W = 1024 heads x
    # 2048 combos x 5 coordinates, over the budget though its 1024 x 2048 walk
    # is not; its norms add W / 5, and one norm block BLOCK_FLOATS and its
    # innermost sums BLOCK_FLOATS / 5
    seq = pm.random_multiplier_sequence(stream(3, "window-budget"), pm.paley_walsh(11), euclid(5))
    pair = pm.decouple(seq)
    pm.require_joint_walk(pair.tree)
    window, block = 1024 * 2048 * 5, pm.BLOCK_FLOATS
    tracemalloc.start()
    try:
        with pytest.raises(pm.EnumerationError,
                           match=f"needs {window + window // 5 + block + block // 5} floats"):
            pair.stack.window_table(2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # the rule is W + W / dim + B + B / d <= JOINT_LIMIT, B the block's floats
    # and d the innermost width: on Paley-Walsh depth 3 and l2:3, W = B =
    # 4 x 8 x 3 = 96, and 96 + 32 + 96 + 32 = 256
    gen = stream(4, "window-budget")
    small = pm.random_multiplier_sequence(gen, pm.paley_walsh(3), euclid(3))
    monkeypatch.setattr(pm, "JOINT_LIMIT", 256)
    assert pm.decouple(small).stack.window_table(2.0).windows_built == 6
    monkeypatch.setattr(pm, "JOINT_LIMIT", 255)
    with pytest.raises(pm.EnumerationError, match="needs 256 floats, over budget 255"):
        pm.decouple(small).stack.window_table(2.0)
    # a stack counts every model's windows: two such pairs need 2 x 128 + 192 + 64
    monkeypatch.setattr(pm, "JOINT_LIMIT", 511)
    with pytest.raises(pm.EnumerationError, match="needs 512 floats, over budget 511"):
        pm.PairStack.of([pm.decouple(small)] * 2).window_table(2.0)


def _window_peak_at_the_budget_edge(monkeypatch, space):
    """The window build's traced peak at the budget's edge, which holds no
    more floats than the budget, and the refusal one float below it."""
    pair = pm.decouple(pm.random_multiplier_sequence(stream(5, "window-peak"), pm.paley_walsh(9),
                                                     space))
    pair.stack.node_sums
    window = 256 * 512 * space.dim
    block = min(256 * 512, pm.BLOCK_FLOATS // space.dim) * space.dim
    limit = window + window // space.dim + block + block // space.shape[-1][1]
    monkeypatch.setattr(pm, "JOINT_LIMIT", limit)
    tracemalloc.start()
    try:
        pair.stack.window_table(2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * limit + 2 ** 20
    monkeypatch.setattr(pm, "JOINT_LIMIT", limit - 1)
    with pytest.raises(pm.EnumerationError, match="over budget"):
        pm.decouple(pair.seq).stack.window_table(2.0)


WINDOW_PEAK_SPACES = [euclid(4), euclid(1), sup_norm(3), nested([(1.0, 3), (2.0, 2)])]


@pytest.mark.parametrize("space", WINDOW_PEAK_SPACES, ids=format_space)
def test_window_table_peak_within_budget(monkeypatch, space):
    _window_peak_at_the_budget_edge(monkeypatch, space)


@pytest.mark.parametrize("space", WINDOW_PEAK_SPACES, ids=format_space)
def test_window_norms_in_blocks_hold_no_window_sized_temporary(monkeypatch, space):
    # blocks of 4096 floats: the budget counts no norm temporary as large as
    # the window, and the build stays within it
    monkeypatch.setattr(pm, "BLOCK_FLOATS", 4096)
    _window_peak_at_the_budget_edge(monkeypatch, space)


def test_verify_exits_2_on_a_window_table_over_budget(monkeypatch, capsys):
    import decoupling_lab.cli as cli

    # every depth-2 tree on l2:16 walks at most 3 x 9 (head, path) outcomes
    # but has at least 2 x 4 x 16 = 128 window floats
    monkeypatch.setattr(pm, "JOINT_LIMIT", 100)
    assert cli.main(["verify", "--suite", "goodlambda", "--space", "l2:16", "--depth", "2",
                     "--trials", "6", "--seed", "0", "--workers", "1"]) == 2
    assert "floats, over budget 100" in capsys.readouterr().err


def test_verify_trial_builds_each_window_once(monkeypatch):
    import decoupling_lab.cli as cli

    builds = []
    init = pm.WindowTable.__init__

    def counted(table, stack, p):
        init(table, stack, p)
        builds.append((stack, p, table.windows_built))

    monkeypatch.setattr(pm.WindowTable, "__init__", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--suite", "all", "--space", "l2:3", "--depth", "4",
                         "--trials", "1", "--seed", "0", "--workers", "1"]) == 0
    # the goodlambda and the extrapolation suite each draw one pair
    assert len(builds) == 2
    assert builds[0][0] is not builds[1][0]
    for stack, p, built in builds:
        depth = stack.tree.depth
        assert p == 2.0 and built == depth * (depth + 1) // 2


# ---------------------------------------------------------------------------
# good-lambda


def test_goodlambda_worked_example():
    pair = unit_pw_pair(3)
    reports = iq.check_goodlambda(pair, 2.0, A=2.0, b=0.5)
    assert len(reports) == 2
    for rep in reports:
        assert rep.holds and rep.status == "ok"
        # beta^rho = 1 + (2 A^rho + 1) delta^rho with A=2, delta=0.2, rho=1
        assert rep.params["beta"] == pytest.approx(2.0, rel=1e-12)


def test_goodlambda_not_applicable():
    pair = unit_pw_pair(3)
    reports = iq.check_goodlambda(pair, 2.0, A=0.1, b=1e-6)
    assert [r.status for r in reports] == ["not-applicable", "not-applicable"]
    assert all(r.holds for r in reports)


def test_goodlambda_far_lambda():
    pair = unit_pw_pair(3)
    reports = iq.check_goodlambda(pair, 2.0, A=2.0, b=0.5, lambdas=[1e9])
    assert all(r.holds and r.lhs == 0.0 and r.rhs == 0.0 for r in reports)


def test_goodlambda_randomized():
    gen = stream(15, "gl")
    for i in range(6):
        pair = pm.random_pair(gen, [euclid(2), sup_norm(3)][i % 2], max_depth=3)
        prof = iq.bmo_condition(pair, 2.0, 0.0)
        b = 0.5
        A = prof.d_hat * b ** -0.5 if prof.d_hat > 0 else 1.0
        for rep in iq.check_goodlambda(pair, 2.0, A=A, b=b):
            assert rep.holds


# ---------------------------------------------------------------------------
# phi moments, extrapolation and the davis bound


def test_moment_phi_routes():
    gen = stream(16, "phi")
    pair = pm.random_pair(gen, euclid(2), max_depth=3)
    phi = iq.power(2.0)
    assert iq.moment_phi(pair, phi, "g_norm") == pytest.approx(
        pm.g_terminal_moment(pair, 2.0), rel=1e-12
    )
    f_star = pair.seq.paths.f_star[0]
    assert iq.moment_phi(pair, iq.power(1.0), "f_star") == pytest.approx(
        float(f_star @ pair.tree.path_probs), rel=1e-12
    )
    with pytest.raises(ValueError):
        iq.moment_phi(pair, phi, "h_norm")


def test_moment_phi_zero_sequence():
    tree = pm.paley_walsh(2)
    zero = pm.AdaptedSequence(tree, euclid(1), [np.zeros((1, 2, 1)), np.zeros((2, 2, 1))])
    pair = pm.decouple(zero)
    assert iq.moment_phi(pair, iq.power(2.0), "f_star") == 0.0
    assert iq.moment_phi(pair, iq.power(2.0), "g_norm") == 0.0


def test_extrapolation_defaults():
    pair = unit_pw_pair(3)
    rep = iq.check_extrapolation(pair, 2.0, 2.0)
    assert rep.holds
    assert rep.params["b_hat"] <= rep.params["b"]
    # calibrated certificate: A = b^(-1/p) d_hat
    assert rep.params["A"] == pytest.approx(
        rep.params["d_hat"] * rep.params["b"] ** -0.5, rel=1e-12
    )


def test_extrapolation_parameter_validation():
    pair = unit_pw_pair(2)
    with pytest.raises(iq.PhiError):
        iq.check_extrapolation(pair, 2.0, 2.0, phi=iq.power(3.0))
    with pytest.raises(pm.ModelError, match="b must lie"):
        iq.check_extrapolation(pair, 2.0, 2.0, b=0.9)
    with pytest.raises(pm.ModelError, match="certificate failed"):
        iq.check_extrapolation(pair, 2.0, 2.0, A=0.01)


def test_extrapolation_with_phi_log():
    gen = stream(17, "extrap-log")
    pair = pm.random_pair(gen, euclid(2), max_depth=3)
    rep = iq.check_extrapolation(pair, 1.0, 2.0, phi=iq.power_log(2.0))
    assert rep.holds and rep.params["phi"] == "power_log(2)"


def test_davis_pathwise_on_signs():
    # only level 1 is a large jump, so the worst path has lhs 1 against rhs 2
    rep = iq.check_davis_pathwise(unit_pw_pair(3))
    assert rep.holds
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(2.0)


def test_davis_pathwise_near_tight_on_jump_chain():
    # increments 2.5^n are all large; the aligned path approaches the cap
    tree = pm.paley_walsh(3)
    mults = [np.full((tree.num_nodes(n - 1), 1), 2.5 ** n) for n in range(1, 4)]
    seq = pm.AdaptedSequence.from_multipliers(tree, euclid(1), mults)
    rep = iq.check_davis_pathwise(pm.decouple(seq))
    assert rep.holds
    assert rep.lhs == pytest.approx(2.5 + 6.25 + 15.625)
    assert rep.rhs == pytest.approx(2.0 * 15.625)


def test_davis_pathwise_randomized():
    gen = stream(19, "davis-rand")
    for i in range(10):
        space = [euclid(3), seq_lp(0.5, 2), sup_norm(4)][i % 3]
        pair = pm.random_pair(gen, space, max_depth=4, symmetric=bool(i % 2))
        assert iq.check_davis_pathwise(pair).holds


# ---------------------------------------------------------------------------
# verdicts under exact rescaling
#
# Every check is homogeneous: scaling d and e by 2^k scales both sides of a
# moment bound by the same power of two and moves no probability (thresholds
# scale with the model).  A 2^k rescaling is exact in floats, so it must never
# move a verdict.

SCALES = range(-40, 41, 10)
SCALE_SPACES = [euclid(3), seq_lp(0.5, 3), sup_norm(3), nested([(1.0, 2), (3.0, 2)])]


def scaled_model(model, k):
    return iq.ProductModel(model.space, tuple(iq.Level(law.values * 2.0 ** k, law.probs)
                                              for law in model.laws))


def scaled_pair(pair, k):
    tables = [table * 2.0 ** k for table in pair.seq.tables]
    return pm.TangentPair(pm.AdaptedSequence(pair.tree, pair.space, tables), pair.mode)


def product_verdicts(model, k, p):
    """The holds of every product check on the model scaled by 2^k, at
    thresholds read off the model and scaled by 2^k."""
    seq = model.to_sequence()
    f_star = model.space.norms(path_sums(seq)).max(axis=1)
    np.testing.assert_array_equal(seq.paths.f_star[0], f_star)
    t = float(np.quantile(f_star, 0.7))
    scaled, ts = scaled_model(model, k), [2.0 ** k * t * f for f in (0.5, 1.0, 1.5)]
    mults = [float(n % 2) for n in range(len(model.laws))]
    xi, zeta = scaled.laws[:2]
    return ([iq.check_levy(scaled, s, v).holds for s in ts for v in ("max-sum", "max-term")]
            + [iq.check_contraction(scaled, mults, s).holds for s in ts]
            + [iq.check_reverse_kolmogorov(scaled, s, p).holds for s in ts]
            + [iq.check_symsum(model.space, xi, zeta, p).holds])


def pair_verdicts(pair, k, p):
    """The holds of every pair check (and the Chebyshev certificate) on the
    pair scaled by 2^k; A and b are unit-free, the tail thresholds are read
    off the pair and scaled by 2^k."""
    ts = [2.0 ** k * float(t) for t in np.quantile(pair.seq.paths.d_star[0], [0.25, 0.5, 0.9])]
    pair = scaled_pair(pair, k)
    A = calibrated_A(pair, p, 0.5)
    return ([rep.holds for rep in iq.check_tail_comparison(pair, ts)]
            + [rep.holds for rep in iq.check_goodlambda(pair, p, A=A, b=0.5)]
            + [chebyshev_ok(pair, p, a) for a in (A, 0.5 * A)]
            + [iq.check_davis_pathwise(pair).holds, iq.check_extrapolation(pair, p, 2.0).holds])


def sharp_symsum_holds(space, x, y, k):
    """check_symsum's holds on xi a point mass at 2^k x e_1 and zeta = +-2^k y e_1,
    y <= x, at p = 1: for r = 1, E||xi + zeta|| = E||xi|| = 2^k x exactly, so the
    two sides differ only by the rounding of the mean."""
    unit = 2.0 ** k * np.eye(space.dim)[:1]
    xi = iq.Level(x * unit, (1.0,))
    zeta = iq.Level(np.concatenate([y * unit, -y * unit]), (0.5, 0.5))
    return iq.check_symsum(space, xi, zeta, 1.0).holds


@pytest.mark.parametrize("space", SCALE_SPACES, ids=format_space)
def test_exact_rescaling_moves_no_verdict(space):
    gen = stream(22, "rescaled", format_space(space))
    for _ in range(100):
        x, y = sorted(gen.uniform(0.1, 1.0, size=2), reverse=True)
        assert {sharp_symsum_holds(space, x, y, k) for k in SCALES} == {True}, (x, y)
    for i in range(4):
        p = (0.5, 1.0, 1.5, 2.0)[i]
        model = iq.random_product_model(gen, space, levels=3, atoms=int(gen.integers(1, 4)))
        # non-dyadic atoms, so that the sums round
        model = iq.ProductModel(space, tuple(iq.Level(gen.uniform(0.1, 3.0) * law.values, law.probs)
                                             for law in model.laws))
        want = product_verdicts(model, 0, p)
        for k in SCALES:
            assert product_verdicts(model, k, p) == want, (i, k)
        pair = pm.random_pair(gen, space, max_depth=4, symmetric=bool(i % 2))
        want = pair_verdicts(pair, 0, p)
        for k in SCALES:
            assert pair_verdicts(pair, k, p) == want, (i, k)


@pytest.mark.parametrize("space", SCALE_SPACES, ids=format_space)
def test_a_cut_constant_fails_at_every_scale(space, monkeypatch):
    # symsum and davis see their right side cut to a tenth, as their constant
    # cut to a tenth would give
    one_sided = iq._one_sided

    def cut(inequality, params, lhs, rhs, **kwargs):
        if inequality in ("symmetric-summand", "davis-large-part-pathwise"):
            rhs = np.multiply(rhs, 0.1)
        return one_sided(inequality, params, lhs, rhs, **kwargs)

    monkeypatch.setattr(iq, "_one_sided", cut)
    gen = stream(24, "cut-constant", format_space(space))
    failed = np.zeros(2, dtype=int)
    for i in range(6):
        xi, zeta = (iq.random_symmetric_law(gen, space.dim) for _ in range(2))
        pair = pm.random_pair(gen, space, max_depth=4, symmetric=bool(i % 2))
        at = {k: [iq.check_symsum(space, iq.Level(2.0 ** k * xi.values, xi.probs),
                                  iq.Level(2.0 ** k * zeta.values, zeta.probs), 1.5).holds,
                  iq.check_davis_pathwise(scaled_pair(pair, k)).holds]
              for k in (0, -40)}
        assert at[-40] == at[0]
        failed += np.logical_not(at[0])
    # each cut constant fails on most of the models
    assert (failed >= 4).all(), failed


# ---------------------------------------------------------------------------
# random generators


def test_random_symmetric_law():
    gen = stream(20, "laws")
    for _ in range(5):
        law = iq.random_symmetric_law(gen, 3)
        assert law.is_symmetric()
        assert sum(law.probs) == pytest.approx(1.0)


def test_random_product_model():
    gen = stream(21, "models")
    model = iq.random_product_model(gen, euclid(2), levels=4)
    assert len(model.laws) == 4
    assert all(law.is_symmetric() for law in model.laws)
