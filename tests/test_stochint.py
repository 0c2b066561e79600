import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import decoupling_lab.stochint as st
from decoupling_lab.probmodel import ModelError
from decoupling_lab.rng import CHUNK, stream
from decoupling_lab.spaces import euclid, nested, parse_space, seq_lp, sup_norm


def constant_process(partition, vectors, x_dim: int) -> st.StepProcess:
    """Deterministic step process: vectors[n-1][m] is the coefficient."""
    table = [np.atleast_2d(np.asarray(v, dtype=float)) for v in vectors]
    rank = table[0].shape[0]

    def rule(n, m, past):
        return table[n - 1][m]

    return st.StepProcess(partition, rank, x_dim, rule, name="deterministic")


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
    proc = constant_process([0, 4, 8], [[e1, e2], [2 * e1, -e2]], 2)
    _, _, dW = next(iter(drv.increment_chunks(16, 3)))
    space = euclid(2)
    sup, terminal = st.integrate(proc, drv, dW, proc.coefficients(dW), space)
    assert sup.shape == terminal.shape == (16,)
    first = dW[:, :4, 0].sum(axis=1)
    second = dW[:, :4, 1].sum(axis=1)
    manual_end = np.stack(
        [first + 2.0 * dW[:, 4:, 0].sum(axis=1), second - dW[:, 4:, 1].sum(axis=1)], axis=1
    )
    np.testing.assert_allclose(terminal, space.norms(manual_end), atol=1e-12)
    # the midpoint only sees the first interval's coefficients, and the sup sees it
    midpoint = space.norms(np.stack([first, second], axis=1))
    assert np.all(sup >= midpoint - 1e-12)
    assert np.all(sup >= terminal)


def test_integrate_is_linear():
    drv = st.BrownianDriver(2, steps=8)
    e1, e2 = np.eye(2)
    base = constant_process([0, 4, 8], [[e1, e2], [e2, e1]], 2)
    tripled = constant_process([0, 4, 8], [[3 * e1, 3 * e2], [3 * e2, 3 * e1]], 2)
    _, _, dW = next(iter(drv.increment_chunks(32, 5)))
    got = st.integrate(tripled, drv, dW, tripled.coefficients(dW), euclid(2))
    want = st.integrate(base, drv, dW, base.coefficients(dW), euclid(2))
    for tripled_norms, base_norms in zip(got, want):
        np.testing.assert_allclose(tripled_norms, 3.0 * base_norms, atol=1e-12)


def _full_grid_norms(proc, drv, dW, coefs, space):
    """The integral at every grid point as one (paths, steps+1, x_dim) array,
    then its norms: the max over the grid and the last point."""
    out = np.zeros((dW.shape[0], drv.steps + 1, proc.x_dim))
    interval_of = np.searchsorted(np.array(proc.partition), np.arange(drv.steps), side="right")
    for k in range(drv.steps):
        n = interval_of[k]
        step = np.einsum("pmx,pm->px", coefs[:, n - 1, :, :], dW[:, k, : proc.rank])
        out[:, k + 1] = out[:, k] + step
    norms = space.norms(out)
    return norms.max(axis=1), norms[:, -1]


@pytest.mark.parametrize("text", ["l2:3", "l2:9", "linf:4", "lp:0.5:3", "lp:3:8",
                                  "nested:1x2,3x2"])
def test_integrate_matches_the_full_grid_bit_for_bit(text):
    # 10 steps in 4 intervals give the partition 0, 2, 5, 8, 10; 4100 paths
    # leave a 4-path last chunk
    space = parse_space(text)
    drv = st.BrownianDriver(min(space.dim, 3), steps=10)
    for family in ("deterministic", "rotating", "adapted-sign"):
        proc = st.make_family(family, space, drv)
        assert len(set(np.diff(proc.partition))) > 1
        chunks = list(drv.increment_chunks(4100, 6))
        assert [stop - start for start, stop, _ in chunks] == [4096, 4]
        for _, _, dW in chunks:
            coefs = proc.coefficients(dW)
            got = st.integrate(proc, drv, dW, coefs, space)
            for streamed, full in zip(got, _full_grid_norms(proc, drv, dW, coefs, space)):
                np.testing.assert_array_equal(streamed, full, f"{text} {family}")


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text", ["l2:4", "linf:4", "lp:3:4"])
def test_simulate_memory_is_one_chunk_of_increments_and_coefficients(text):
    # a 4096-path chunk holds its increments and coefficients, then the
    # coefficients and the gamma norm's work (the exact route squares the
    # coefficients, the MC route lays them out again and adds a block), and
    # O(paths * x_dim) floats besides; no array spans the grid and x_dim, and
    # nothing of the first chunk is alive while the second is drawn.  The lp
    # norm fills its block budget, so a block kept alive into the next shows
    space, paths = parse_space(text), CHUNK
    exact = st.is_hilbert_like(space)
    integrate_peaks = []
    for steps in (16, 128):
        drv = st.BrownianDriver(space.dim, steps=steps)
        proc = st.make_family("adapted-sign", space, drv)
        st.simulate(proc, drv, space, 64)  # first-use allocations are not the chunk's
        dW_bytes = 8 * paths * steps * drv.dim
        coef_bytes = 8 * paths * proc.intervals * proc.rank * space.dim
        gamma_bytes = coef_bytes + (0 if exact else 8 * st.BLOCK_FLOATS)
        work = 8 * 8 * paths * space.dim
        peak = _traced_peak(st.simulate, proc, drv, space, 2 * paths)
        assert peak <= coef_bytes + max(dW_bytes, gamma_bytes) + work + 256 * 1024, steps
        _, _, dW = next(iter(drv.increment_chunks(paths, 0)))
        coefs = proc.coefficients(dW)
        integrate_peaks.append(_traced_peak(st.integrate, proc, drv, dW, coefs, space))
        assert integrate_peaks[-1] <= work, steps
    assert integrate_peaks[1] <= integrate_peaks[0] + 64 * 1024


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
    base = constant_process([0, 8], [[e1, e2]], 2)
    scaled = constant_process([0, 8], [[3 * e1, 3 * e2]], 2)
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
    proc = constant_process([0, 4], [[e1, e2]], 2)
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
    # 7 draws of (2 * dim + 1) * paths floats: series, |series| and norms
    monkeypatch.setattr(st, "BLOCK_FLOATS", 7 * (2 * 3 + 1) * 40)
    gam = st.gamma_norm(proc, drv, coefs, space, inner=50, seed=6)
    draws = stream(6, "gamma-inner").normal(size=(50, proc.intervals, proc.rank))
    lengths = np.diff(drv.grid[list(proc.partition)])
    series = np.einsum("inm,pnmx->ipx", np.einsum("inm,n->inm", draws, np.sqrt(lengths)), coefs)
    np.testing.assert_array_equal(gam, np.sqrt(np.mean(space.norms(series) ** 2, axis=0)))


@pytest.mark.parametrize("text", ["linf:4", "lp:3:4", "nested:1x2,3x2"])
def test_gamma_norm_has_no_one_draw_block(monkeypatch, text):
    # blocks of 3 of 4 draws would leave one draw for the last product,
    # which numpy sends to gemv, and gemv sums in another order than gemm;
    # blocks of 2 and 4 draws divide 4
    space, paths = parse_space(text), 200
    drv = st.BrownianDriver(4, steps=8)
    # dense coefficients that differ from path to path, so that each series
    # entry sums 16 nonzero products
    vectors = stream(0, "dense").normal(size=(4, 4, space.dim))
    proc = st.StepProcess([0, 2, 4, 6, 8], 4, space.dim, lambda n, m, past: (
        vectors[n - 1, m] * (1.0 + np.abs(past).sum(axis=(1, 2)))[:, None]))
    _, _, dW = next(iter(drv.increment_chunks(paths, 3)))
    coefs = proc.coefficients(dW)
    per_draw = st._draw_floats(space) * paths
    gammas = []
    for rows in (2, 3, 4):
        monkeypatch.setattr(st, "BLOCK_FLOATS", rows * per_draw)
        gammas.append(st.gamma_norm(proc, drv, coefs, space, inner=4, seed=1))
    np.testing.assert_array_equal(gammas[1], gammas[0])
    np.testing.assert_array_equal(gammas[2], gammas[0])


def _einsum_gamma(proc, drv, coefs, space, inner, seed):
    """The Gaussian-series formula as one einsum per 64 draws: mean over the
    draws of ||sum_{n,m} g_{nm} sqrt(dt_n) xi_{nm}||^2, square-rooted."""
    draws = stream(seed, "gamma-inner").normal(size=(inner, proc.intervals, proc.rank))
    scaled = draws * np.sqrt(np.diff(drv.grid[list(proc.partition)]))[:, None]
    total = sum(
        (space.norms(np.einsum("inm,pnmx->ipx", scaled[i:i + 64], coefs)) ** 2).sum(axis=0)
        for i in range(0, inner, 64)
    )
    return np.sqrt(total / inner)


@pytest.mark.parametrize("text", ["linf:4", "linf:16", "lp:0.5:3", "lp:3:4", "nested:1x2,3x2"])
def test_gamma_norm_mc_matches_series_formula(text):
    # 300 paths at the default block budget leave a partial last block of draws
    space = parse_space(text)
    drv = st.BrownianDriver(min(space.dim, 3), steps=8)
    proc = st.make_family("adapted-sign", space, drv)
    _, _, dW = next(iter(drv.increment_chunks(300, 4)))
    coefs = proc.coefficients(dW)
    assert st.GAMMA_INNER % (st.BLOCK_FLOATS // ((2 * space.dim + 1) * 300)) != 0
    gam = st.gamma_norm(proc, drv, coefs, space, seed=8)
    np.testing.assert_allclose(gam, _einsum_gamma(proc, drv, coefs, space, st.GAMMA_INNER, 8),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("text", ["linf:16", "lp:3:16", "lp:0.5:16", "nested:1x2,3x2",
                                  "nested:1x16,3x2", "nested:0.5x8,3x2"])
def test_gamma_norm_mc_memory_within_block_budget(monkeypatch, text):
    # blocks of 32 draws for linf/lp; the coefficient matrix (4 intervals,
    # rank 1) is small next to a block, so an (inner, paths, dim) series, or a
    # norm temporary the budget does not count, overruns the bound by at least
    # 1 MiB.  A nested norm's first sums (dim / 2 per vector here) are alive
    # beside its |series| temporary: left uncounted, they overrun it on
    # nested:1x16,3x2 and nested:0.5x8,3x2.
    space, paths, inner = parse_space(text), 256, 200
    drv = st.BrownianDriver(1, steps=8)
    proc = st.make_family("adapted-sign", space, drv)
    _, _, dW = next(iter(drv.increment_chunks(paths, 1)))
    coefs = proc.coefficients(dW)
    monkeypatch.setattr(st, "BLOCK_FLOATS", 32 * (2 * space.dim + 1) * paths)
    tracemalloc.start()
    try:
        st.gamma_norm(proc, drv, coefs, space, inner=inner, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    draws = inner * proc.intervals * proc.rank
    assert peak <= 8 * (st.BLOCK_FLOATS + coefs.size + draws) + 256 * 1024


def _path_floats(proc, drv):
    """The floats of one path in a block: its coefficients beside the larger
    of its increments and the coefficients' gamma layout."""
    coefficients = proc.intervals * proc.rank * proc.x_dim
    return coefficients + max(drv.steps * drv.dim, coefficients)


@pytest.mark.parametrize("text", ["l2:1", "l2:4", "l2:9", "l2:16", "nested:2x2,2x3", "nested:2x4"])
@pytest.mark.parametrize("family", ["deterministic", "rotating", "adapted-sign"])
def test_exact_gamma_blocks_match_the_whole_contraction(monkeypatch, text, family):
    # simulate's path blocks give each path the closed form contracted over
    # the whole chunk
    space, paths = parse_space(text), 1000
    drv = st.BrownianDriver(3, steps=12)
    proc = st.make_family(family, space, drv)
    _, _, dW = next(iter(drv.increment_chunks(paths, 4)))
    coefs = proc.coefficients(dW)
    sq = np.einsum("pnmx,n->p", coefs ** 2, np.diff(drv.grid[list(proc.partition)]))
    want = np.sqrt(sq / space.dim if space.kind == "nested" else sq)
    per_path = _path_floats(proc, drv)
    # one block, then blocks of 7 paths with a partial last block (1000 = 142 * 7 + 6)
    for budget, block in ((paths * per_path, paths), (7 * per_path, 7)):
        monkeypatch.setattr(st, "BLOCK_FLOATS", budget)
        assert st.block_paths(proc, drv, space, paths) == block
        np.testing.assert_array_equal(st.simulate(proc, drv, space, paths, seed=4).gamma, want)
    # at the 7-path budget a block's increments, coefficients and squares are
    # all the route holds beside the results (l2:16: 1.4 MiB of coefficients
    # for the chunk)
    assert _traced_peak(st.simulate, proc, drv, space, paths, 4) <= (
        8 * (st.BLOCK_FLOATS + 3 * paths) + 64 * 1024)


def test_increment_blocks_are_the_chunks_one_call_draw():
    # 4100 paths leave a 4-path last chunk; blocks of 7 paths a partial last
    # block in each chunk
    drv = st.BrownianDriver(3, steps=5)
    chunks = list(drv.increment_chunks(4100, 7))
    for block in (1, 7, CHUNK):
        blocks = list(drv.increment_chunks(4100, 7, block=block))
        assert all(0 < stop - start <= block for start, stop, _ in blocks)
        assert [start for start, _, _ in blocks] == list(range(0, 4096, block)) + list(
            range(4096, 4100, block))
        for start, stop, dW in chunks:
            np.testing.assert_array_equal(
                np.concatenate([x for s, _, x in blocks if start <= s < stop]), dW)


@pytest.mark.parametrize("text", ["l2:4", "linf:4", "lp:0.5:3", "nested:1x2,3x2", "linf:16"])
def test_simulate_does_not_depend_on_the_block_size(monkeypatch, text):
    # blocks of the whole chunk and of 999 paths over 4100 paths (the second
    # chunk's inner draws are keyed on its own start), and blocks of one path
    # over the first 40: a tiny budget also makes the gamma draw blocks tiny
    space = parse_space(text)
    drv = st.BrownianDriver(min(space.dim, 2), steps=4)
    proc = st.make_family("adapted-sign", space, drv)
    per_path = _path_floats(proc, drv)
    runs = []
    for block, paths in ((CHUNK, 4100), (999, 4100), (1, 40)):
        monkeypatch.setattr(st, "BLOCK_FLOATS", block * per_path)
        assert st.block_paths(proc, drv, space, paths) == block
        runs.append(st.simulate(proc, drv, space, paths, seed=5))
    for run in runs[1:]:
        for name in ("sup", "terminal", "gamma"):
            got = getattr(run, name)
            np.testing.assert_array_equal(got, getattr(runs[0], name)[:got.size], name)


@pytest.mark.parametrize("text", ["linf:4", "linf:16", "lp:3:16"])
def test_simulate_memory_is_one_block_budget(text):
    # at bdg's defaults (64 steps, driver_dim = dim) a block holds at most
    # BLOCK_FLOATS floats of increments and coefficients, or of coefficients
    # and their gamma layout, beside one gamma draw block of BLOCK_FLOATS;
    # the chunk's inner draws and three floats per path are all else that
    # lives.  Coefficients and their layout over a whole chunk (32 MiB each
    # on linf:16) overrun it.
    space, paths = parse_space(text), CHUNK + 4
    drv = st.BrownianDriver(space.dim, steps=64)
    proc = st.make_family("adapted-sign", space, drv)
    st.simulate(proc, drv, space, 64)  # first-use allocations are not the run's
    draws = st.GAMMA_INNER * proc.intervals * proc.rank
    assert _traced_peak(st.simulate, proc, drv, space, paths) <= (
        8 * (2 * st.BLOCK_FLOATS + draws + 3 * paths) + 256 * 1024)


def test_simulate_admits_before_any_draw(monkeypatch):
    drv = st.BrownianDriver(2, steps=8)
    proc = st.make_family("adapted-sign", sup_norm(2), drv)
    drawn = []
    monkeypatch.setattr(st.BrownianDriver, "increment_chunks",
                        lambda *args, **kwargs: drawn.append(args) or iter(()))
    with pytest.raises(ModelError, match="result floats, over budget"):
        st.simulate(proc, drv, sup_norm(2), st.JOINT_LIMIT // 3 + 1)
    monkeypatch.setattr(st, "BLOCK_FLOATS", _path_floats(proc, drv) - 1)
    with pytest.raises(ModelError, match="do not fit the block budget"):
        st.simulate(proc, drv, sup_norm(2), 10)
    assert drawn == []


def test_bdg_report_does_not_depend_on_blas_threads():
    # the MC gamma norm runs through BLAS; the report bytes must not move with
    # its thread count
    src = Path(__file__).resolve().parents[1] / "src"
    argv = [sys.executable, "-m", "decoupling_lab.cli", "bdg", "--space", "linf:4",
            "--samples", "512", "--seed", "0", "--workers", "1"]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(src))
        outs.append(subprocess.run(argv, env=env, capture_output=True, check=True,
                                   timeout=120).stdout)
    assert outs[0] == outs[1] and outs[0].startswith(b"{")


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
        lambda *a, **k: constant_process([0, 8], [[np.zeros(2)]], 2),
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
    # four exponents over two chunks: one simulation per chunk, coefficients
    # once per chunk
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
    assert calls == {"simulate": 2, "coefficients": 2}


def test_bdg_sweep_gives_the_moments_of_simulate():
    # one chunk per task: the joined chunks are simulate's paths, bit for bit
    drv = st.BrownianDriver(2, steps=8)
    proc = st.make_family("adapted-sign", sup_norm(2), drv)
    stats = st.simulate(proc, drv, sup_norm(2), 4100, seed=3)
    row = st.bdg_sweep(sup_norm(2), [3.0], "adapted-sign", drv, 4100, seed=3)[0]
    for name in ("sup", "terminal", "gamma"):
        assert (row[f"{name}_moment"], row[f"{name}_se"]) == st._moment(getattr(stats, name), 3.0)


@pytest.mark.parametrize("text", ["linf:4", "lp:0.5:3", "nested:1x2,3x2", "l2:4"])
def test_bdg_report_does_not_depend_on_the_worker_count(text):
    # 4100 paths are two chunks, one per worker at --workers 2
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    outs = []
    for workers in ("1", "2"):
        argv = [sys.executable, "-m", "decoupling_lab.cli", "bdg", "--space", text,
                "--p", "1", "2", "--samples", "4100", "--steps", "4", "--seed", "0",
                "--workers", workers]
        outs.append(subprocess.run(argv, env=env, capture_output=True, check=True,
                                   timeout=120).stdout)
    assert outs[0] == outs[1] and outs[0].startswith(b"{")


def test_a_pool_run_loads_numpy_with_one_blas_thread():
    # BLAS threads in every pool process oversubscribe the cores: at --workers
    # 2 on two cores the Monte Carlo route ran slower than at --workers 1
    code = ("import contextlib, io, os, sys; from decoupling_lab import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(['bdg', '--space', 'l2:2', '--samples', '64', '--steps', '4',"
            " '--seed', '0', '--workers', sys.argv[1]])\n"
            "print(os.environ.get('OMP_NUM_THREADS'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {key: value for key, value in os.environ.items() if key != "OMP_NUM_THREADS"}
    seen = []
    for workers, preset in (("1", {}), ("2", {}), ("2", {"OMP_NUM_THREADS": "3"})):
        seen.append(subprocess.run([sys.executable, "-c", code, workers],
                                   env=dict(env, PYTHONPATH=src, **preset),
                                   capture_output=True, text=True, check=True,
                                   timeout=120).stdout.split())
    assert seen == [["None"], ["1"], ["3"]]


@pytest.mark.parametrize("text", ["l2:4", "linf:4", "lp:3:4"])
def test_bdg_sweep_memory_is_one_chunk_and_four_floats_per_path(text):
    # the bound of test_simulate_memory_is_one_chunk_of_increments_and_coefficients
    # for one chunk, plus the three norms of every path kept across the chunks
    # and the one statistic being joined
    space, paths = parse_space(text), 3 * CHUNK
    exact = st.is_hilbert_like(space)
    for steps in (16, 128):
        drv = st.BrownianDriver(space.dim, steps=steps)
        proc = st.make_family("adapted-sign", space, drv)
        st.bdg_sweep(space, [1.0], "adapted-sign", drv, 64)  # first-use allocations
        dW_bytes = 8 * CHUNK * steps * drv.dim
        coef_bytes = 8 * CHUNK * proc.intervals * proc.rank * space.dim
        gamma_bytes = coef_bytes + (0 if exact else 8 * st.BLOCK_FLOATS)
        work = 8 * 8 * CHUNK * space.dim
        peak = _traced_peak(st.bdg_sweep, space, [1.0, 2.0], "adapted-sign", drv, paths)
        bound = coef_bytes + max(dW_bytes, gamma_bytes) + work + 256 * 1024
        assert peak <= bound + 4 * 8 * paths, steps


def test_limits_and_model_errors_are_one_object():
    import decoupling_lab.inequalities as iq
    import decoupling_lab.probmodel as pm
    import decoupling_lab.spaces as sp

    assert pm.JOINT_LIMIT is st.JOINT_LIMIT is iq.JOINT_LIMIT is sp.JOINT_LIMIT
    assert pm.ModelError is st.ModelError is iq.ModelError is sp.ModelError


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
