import math

import numpy as np
import pytest

import decoupling_lab.stochint as st
from decoupling_lab.probmodel import ModelError
from decoupling_lab.rng import stream
from decoupling_lab.spaces import euclid, nested, seq_lp, sup_norm


def test_is_hilbert_like():
    assert st.is_hilbert_like(euclid(3))
    assert st.is_hilbert_like(seq_lp(2.0, 5))
    assert st.is_hilbert_like(nested([(2.0, 2), (2.0, 3)]))
    assert st.is_hilbert_like(sup_norm(1))  # one dimension, every norm agrees
    assert not st.is_hilbert_like(sup_norm(3))
    assert not st.is_hilbert_like(seq_lp(0.5, 2))


def test_driver_validation_and_grid():
    with pytest.raises(ModelError):
        st.BrownianDriver(0)
    with pytest.raises(ModelError):
        st.BrownianDriver(1, steps=0)
    with pytest.raises(ModelError):
        st.BrownianDriver(1, horizon=0.0)
    drv = st.BrownianDriver(2, horizon=2.0, steps=8)
    assert drv.dt == 0.25
    assert drv.grid[0] == 0.0 and drv.grid[-1] == 2.0 and len(drv.grid) == 9


def test_driver_chunks_deterministic():
    drv = st.BrownianDriver(2, steps=16)
    def collect():
        parts = [(start, stop, dW.copy()) for start, stop, dW in drv.increment_chunks(4100, 7)]
        return parts
    a, b = collect(), collect()
    assert [(s, t) for s, t, _ in a] == [(0, 4096), (4096, 4100)]
    for (_, _, x), (_, _, y) in zip(a, b):
        np.testing.assert_array_equal(x, y)
    # a different label is a different stream
    other = next(iter(drv.increment_chunks(4100, 7, label="elsewhere")))[2]
    assert not np.array_equal(other, a[0][2])


def test_driver_increment_moments():
    drv = st.BrownianDriver(1, steps=16)
    _, _, dW = next(iter(drv.increment_chunks(4000, 11)))
    flat = dW.ravel()
    assert abs(flat.mean()) < 4 * flat.std() / math.sqrt(flat.size)
    assert flat.var() == pytest.approx(drv.dt, rel=0.03)


def test_step_process_validation():
    rule = lambda n, m, past: np.ones(1)
    with pytest.raises(ModelError, match="increase from 0"):
        st.StepProcess([1, 4], 1, 1, rule)
    with pytest.raises(ModelError, match="increase from 0"):
        st.StepProcess([0, 4, 4], 1, 1, rule)
    with pytest.raises(ModelError, match="rank"):
        st.StepProcess([0, 4], 0, 1, rule)
    proc = st.StepProcess([0, 4], 1, 1, rule)
    assert proc.intervals == 1
    with pytest.raises(ModelError, match="last grid index"):
        proc.check_driver(st.BrownianDriver(1, steps=8))
    wide = st.StepProcess([0, 4], 3, 1, rule)
    with pytest.raises(ModelError, match="rank exceeds"):
        wide.check_driver(st.BrownianDriver(2, steps=4))


def test_rule_cannot_touch_its_own_interval():
    drv = st.BrownianDriver(1, steps=4)

    def peeking(n, m, past):
        return past[:, past.shape[1], 0][:, None]  # one step beyond the legal past

    proc = st.StepProcess([0, 2, 4], 1, 1, peeking)
    _, _, dW = next(iter(drv.increment_chunks(8, 0)))
    with pytest.raises(ModelError, match="read outside its past"):
        proc.coefficients(dW)

    def writing(n, m, past):
        if past.shape[1]:
            past[:, 0, 0] = 0.0
        return np.ones(1)

    proc2 = st.StepProcess([0, 2, 4], 1, 1, writing)
    with pytest.raises(ValueError, match="read-only"):
        proc2.coefficients(dW)

    def misshapen(n, m, past):
        return np.ones(3)

    proc3 = st.StepProcess([0, 2, 4], 1, 1, misshapen)
    with pytest.raises(ModelError, match="returned shape"):
        proc3.coefficients(dW)


def test_integrate_matches_manual_sum():
    drv = st.BrownianDriver(2, steps=8)
    e1, e2 = np.eye(2)
    proc = st.constant_process([0, 4, 8], [[e1, e2], [2 * e1, -e2]], 2)
    _, _, dW = next(iter(drv.increment_chunks(16, 3)))
    vals = st.integrate(proc, drv, dW, proc.coefficients(dW))
    assert vals.shape == (16, 9, 2)
    np.testing.assert_array_equal(vals[:, 0], 0.0)
    first = dW[:, :4, 0].sum(axis=1)
    second = dW[:, :4, 1].sum(axis=1)
    manual_end = np.stack(
        [first + 2.0 * dW[:, 4:, 0].sum(axis=1), second - dW[:, 4:, 1].sum(axis=1)], axis=1
    )
    np.testing.assert_allclose(vals[:, -1], manual_end, atol=1e-12)
    # midpoint only sees the first interval's coefficients
    np.testing.assert_allclose(vals[:, 4], np.stack([first, second], axis=1), atol=1e-12)


def test_integrate_is_linear():
    drv = st.BrownianDriver(2, steps=8)
    e1, e2 = np.eye(2)
    base = st.constant_process([0, 4, 8], [[e1, e2], [e2, e1]], 2)
    tripled = st.constant_process([0, 4, 8], [[3 * e1, 3 * e2], [3 * e2, 3 * e1]], 2)
    _, _, dW = next(iter(drv.increment_chunks(32, 5)))
    np.testing.assert_allclose(
        st.integrate(tripled, drv, dW, tripled.coefficients(dW)),
        3.0 * st.integrate(base, drv, dW, base.coefficients(dW)),
        atol=1e-12,
    )


def test_gamma_norm_exact_for_basis_coefficients():
    drv = st.BrownianDriver(4, steps=16)
    proc = st.make_family("deterministic", euclid(4), drv, intervals=4)
    _, _, dW = next(iter(drv.increment_chunks(10, 0)))
    gam = st.gamma_norm(proc, drv, proc.coefficients(dW), euclid(4))
    # per (interval, direction) one unit vector: squared norm = rank * horizon
    np.testing.assert_array_equal(gam, np.full(10, 2.0))


def test_gamma_norm_scales_linearly():
    drv = st.BrownianDriver(2, steps=8)
    e1, e2 = np.eye(2)
    base = st.constant_process([0, 8], [[e1, e2]], 2)
    scaled = st.constant_process([0, 8], [[3 * e1, 3 * e2]], 2)
    _, _, dW = next(iter(drv.increment_chunks(6, 0)))
    np.testing.assert_allclose(
        st.gamma_norm(scaled, drv, scaled.coefficients(dW), euclid(2)),
        3.0 * st.gamma_norm(base, drv, base.coefficients(dW), euclid(2)),
        atol=1e-12,
    )


def test_gamma_norm_mc_matches_two_sided_max():
    # one interval, two unit directions in sup norm: the series is
    # (xi_1, xi_2) and E max(|xi_1|, |xi_2|)^2 = 1 + 2/pi
    drv = st.BrownianDriver(2, steps=4)
    e1, e2 = np.eye(2)
    proc = st.constant_process([0, 4], [[e1, e2]], 2)
    _, _, dW = next(iter(drv.increment_chunks(3, 0)))
    coefs = proc.coefficients(dW)
    gam = st.gamma_norm(proc, drv, coefs, sup_norm(2), inner=50_000, seed=9)
    want = math.sqrt(1.0 + 2.0 / math.pi)
    np.testing.assert_allclose(gam, np.full(3, want), rtol=0.02)
    with pytest.raises(ModelError, match="inner-product"):
        st.gamma_norm(proc, drv, coefs, sup_norm(2), exact=True)


def test_gamma_norm_mc_in_blocks(monkeypatch):
    # blocks of 7 draws leave a partial last block at inner = 50; the running
    # total must equal the mean over one (inner, paths, dim) series array
    drv = st.BrownianDriver(3, steps=8)
    space = seq_lp(0.5, 3)
    proc = st.make_family("adapted-sign", space, drv)
    _, _, dW = next(iter(drv.increment_chunks(40, 2)))
    coefs = proc.coefficients(dW)
    monkeypatch.setattr(st, "BLOCK_FLOATS", 7 * 40 * 3)
    gam = st.gamma_norm(proc, drv, coefs, space, inner=50, seed=6)
    draws = stream(6, "gamma-inner").normal(size=(50, proc.intervals, proc.rank))
    lengths = np.diff(drv.grid[list(proc.partition)])
    series = np.einsum("inm,pnmx->ipx", np.einsum("inm,n->inm", draws, np.sqrt(lengths)), coefs)
    np.testing.assert_array_equal(gam, np.sqrt(np.mean(space.norms(series) ** 2, axis=0)))


def test_simulate_shapes_and_determinism():
    drv = st.BrownianDriver(2, steps=16)
    proc = st.make_family("rotating", euclid(2), drv)
    a = st.simulate(proc, drv, euclid(2), 500, seed=4)
    b = st.simulate(proc, drv, euclid(2), 500, seed=4)
    c = st.simulate(proc, drv, euclid(2), 500, seed=5)
    assert a.sup.shape == (500,)
    np.testing.assert_array_equal(a.sup, b.sup)
    np.testing.assert_array_equal(a.gamma, b.gamma)
    assert not np.array_equal(a.sup, c.sup)
    assert np.all(a.sup >= a.terminal - 1e-12)
    with pytest.raises(ModelError, match="space dimension"):
        st.simulate(proc, drv, euclid(3), 10)


def test_ito_isometry_at_p2():
    # E ||integral_T||^2 equals the squared gamma norm for deterministic rows
    drv = st.BrownianDriver(2, steps=32)
    out = st.bdg_sweep(euclid(2), [2.0], "deterministic", drv, 20_000, seed=2)[0]
    assert out["gamma_moment"] == pytest.approx(2.0, abs=1e-12)  # rank * horizon
    assert out["terminal_moment"] == pytest.approx(2.0, abs=4.5 * out["terminal_se"])
    # Doob at p = 2: E sup^2 <= 4 E terminal^2, observed well inside
    assert out["terminal_moment"] - 4.5 * out["terminal_se"] <= out["sup_moment"]
    assert out["sup_moment"] <= 4.0 * out["terminal_moment"] * 1.05
    assert out["status"] == "ok"
    assert out["kappa_over_p"] == pytest.approx(out["kappa"] / 2.0)


def test_kappa_agrees_across_equivalent_hilbert_spaces():
    # l2:8, lp:2:8 and nested:2x4,2x2 differ by the scale 1/sqrt(8) at most,
    # and kappa is scale invariant
    drv = st.BrownianDriver(2, steps=16)
    outs = [st.bdg_sweep(space, [2.0], "deterministic", drv, 500, seed=3)[0]
            for space in (euclid(8), seq_lp(2.0, 8), nested([(2.0, 4), (2.0, 2)]))]
    for out in outs[1:]:
        assert out["kappa"] == pytest.approx(outs[0]["kappa"], rel=1e-12)
    # exact gamma norms obey the Ito isometry in the nested norm too
    nested_out = outs[2]
    assert nested_out["gamma_moment"] == pytest.approx(outs[0]["gamma_moment"] / 8.0,
                                                       rel=1e-12)
    assert nested_out["terminal_moment"] == pytest.approx(
        nested_out["gamma_moment"], abs=4.5 * nested_out["terminal_se"])


def test_bdg_experiment_adapted_sign_gamma_exact():
    # signs never change coefficient magnitude, so gamma is deterministic
    drv = st.BrownianDriver(4, steps=16)
    out = st.bdg_sweep(euclid(4), [3.0], "adapted-sign", drv, 600, seed=1)[0]
    assert out["gamma_moment"] == 2.0 ** 3
    assert out["gamma_se"] == 0.0
    assert out["kappa"] == pytest.approx((out["sup_moment"] / 8.0) ** (1 / 3), rel=1e-12)


def test_bdg_experiment_vacuous(monkeypatch):
    drv = st.BrownianDriver(2, steps=8)
    monkeypatch.setattr(
        st, "make_family",
        lambda *a, **k: st.constant_process([0, 8], [[np.zeros(2)]], 2),
    )
    out = st.bdg_sweep(euclid(2), [2.0], "deterministic", drv, 50, seed=0)[0]
    assert out["status"] == "vacuous"
    assert out["kappa"] == 0.0


def test_bdg_sweep_orders_results():
    drv = st.BrownianDriver(2, steps=8)
    rows = st.bdg_sweep(euclid(2), [1.0, 2.0], "deterministic", drv, 200, seed=0)
    assert [r["p"] for r in rows] == [1.0, 2.0]
    assert all(r["family"] == "deterministic" for r in rows)


def test_bdg_sweep_simulates_once(monkeypatch):
    # four exponents over two chunks: one simulation, coefficients once per chunk
    calls = {"simulate": 0, "coefficients": 0}
    simulate, coefficients = st.simulate, st.StepProcess.coefficients

    def counted_simulate(*args, **kwargs):
        calls["simulate"] += 1
        return simulate(*args, **kwargs)

    def counted_coefficients(self, dW):
        calls["coefficients"] += 1
        return coefficients(self, dW)

    monkeypatch.setattr(st, "simulate", counted_simulate)
    monkeypatch.setattr(st.StepProcess, "coefficients", counted_coefficients)
    drv = st.BrownianDriver(2, steps=8)
    rows = st.bdg_sweep(euclid(2), [1.0, 2.0, 4.0, 8.0], "adapted-sign", drv, 4100, seed=0)
    assert len(rows) == 4
    assert calls == {"simulate": 1, "coefficients": 2}


def test_bdg_sweep_rows_match_single_exponent():
    drv = st.BrownianDriver(2, steps=8)
    ps = [0.5, 1.0, 3.0]
    rows = st.bdg_sweep(sup_norm(2), ps, "adapted-sign", drv, 300, seed=4)
    for p, row in zip(ps, rows):
        assert row == st.bdg_sweep(sup_norm(2), [p], "adapted-sign", drv, 300, seed=4)[0]


def test_make_family_validation():
    drv = st.BrownianDriver(2, steps=2)
    with pytest.raises(ModelError, match="more intervals"):
        st.make_family("deterministic", euclid(2), drv, intervals=4)
    with pytest.raises(ValueError, match="unknown family"):
        st.make_family("surprising", euclid(2), st.BrownianDriver(2, steps=8))


def test_family_rank_defaults_to_min_dim():
    drv = st.BrownianDriver(3, steps=8)
    proc = st.make_family("deterministic", euclid(2), drv)
    assert proc.rank == 2
    wide = st.make_family("adapted-sign", euclid(5), drv)
    assert wide.rank == 3
