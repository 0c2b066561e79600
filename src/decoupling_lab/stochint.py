"""Brownian drivers, adapted step processes, and BDG ratio experiments.

Everything is exact on the driver's grid: step processes align to grid
points, so the integral is a finite sum and the only randomness is the
driver's.  Paths are simulated in chunks of rng.CHUNK, each with its own
counter-based streams, which makes results independent of chunking and
worker count: bdg_sweep simulates one chunk per task of reports.pmap, so its
chunks spread over its workers.  A chunk is worked through in blocks of
paths (block_paths), drawn one after another from its stream.  A block
holds its increments (paths, steps, driver_dim) and coefficients (paths,
intervals, rank, x_dim), then the coefficients and their gamma layout: at
most BLOCK_FLOATS floats either way.  The integral is one running (paths, x_dim) sum whose norm is
folded into a running sup after every step; the Monte Carlo gamma norm
works in blocks of inner draws of at most BLOCK_FLOATS floats, drawn once
per chunk.  So memory grows with neither the path count nor the grid or
dimensions: three floats per path are kept (sup, terminal and gamma norm),
and a run whose results exceed JOINT_LIMIT floats, or one of whose paths
does not fit a block, is refused before anything is drawn.  bdg_sweep's
chunks return their own three arrays each, joined one statistic at a time:
a statistic's chunk parts are freed once it is joined, so the join holds
one float per path beyond the parts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .reports import pmap
from .rng import CHUNK, chunk_streams, stream
from .spaces import JOINT_LIMIT, ModelError, Space, format_space

GAMMA_INNER = 1024
# Counts path-block floats (increments and coefficients, or coefficients and
# their gamma layout) and draw-block floats (gamma draws).  Smaller than
# probmodel.BLOCK_FLOATS because a path block holds two such arrays: at 2^18
# bdg on lp:3:16 ran slower, at 2^20 every bdg space peaked higher.
BLOCK_FLOATS = 2 ** 19


def is_hilbert_like(space: Space) -> bool:
    """True when the norm comes from an inner product, so the Gaussian-series
    norm has a closed form."""
    if space.kind == "euclid":
        return True
    if space.kind in ("lp", "nested"):
        return all(q == 2.0 for q, _ in space.shape)
    return space.dim == 1


@dataclass(frozen=True)
class BrownianDriver:
    """Finite-dimensional cylindrical Brownian motion on a uniform grid."""

    dim: int
    horizon: float = 1.0
    steps: int = 64

    def __post_init__(self):
        if self.dim < 1 or self.steps < 1 or self.horizon <= 0:
            raise ModelError("driver needs dim >= 1, steps >= 1, horizon > 0")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def increment_chunks(
        self, count: int, seed: int, label: str = "driver", block: int = CHUNK, first: int = 0
    ):
        """Yield (start, stop, dW) with dW ~ Normal(0, dt), shape (c, steps, dim),
        for paths range(first, count), ``first`` a multiple of CHUNK, in blocks
        of at most ``block`` paths.  A chunk's blocks are drawn one after
        another from its stream, which fills in C order, so they hold exactly
        the values of one draw of the whole chunk."""
        scale = math.sqrt(self.dt)
        for start, stop, gen in chunk_streams(seed, label, count, first):
            for low in range(start, stop, block):
                high = min(low + block, stop)
                yield low, high, gen.normal(0.0, scale, size=(high - low, self.steps, self.dim))


class StepProcess:
    """Finite-rank adapted step process on a sub-partition of the grid.

    ``rule(n, m, past)`` returns the X-valued coefficient for partition
    interval n (1-based, spanning grid indices partition[n-1]..partition[n])
    and direction m (0-based standard basis vector of the driver).  ``past``
    holds only the driver increments strictly before the interval start, with
    shape (paths, partition[n-1], driver_dim) and write access disabled, so a
    rule cannot read its own interval even by accident.
    """

    def __init__(self, partition: Sequence[int], rank: int, x_dim: int, rule, name: str = ""):
        part = [int(i) for i in partition]
        if part[0] != 0 or any(a >= b for a, b in zip(part, part[1:])):
            raise ModelError("partition must increase from 0")
        if rank < 1:
            raise ModelError("rank must be >= 1")
        self.partition = tuple(part)
        self.rank = rank
        self.x_dim = x_dim
        self.rule = rule
        self.name = name

    @property
    def intervals(self) -> int:
        return len(self.partition) - 1

    def check_driver(self, driver: BrownianDriver):
        if self.partition[-1] != driver.steps:
            raise ModelError("partition must end at the last grid index")
        if self.rank > driver.dim:
            raise ModelError("rank exceeds driver dimension")

    def coefficients(self, dW: np.ndarray) -> np.ndarray:
        """Evaluate all coefficient rules on a chunk of driver paths.

        Returns shape (paths, intervals, rank, x_dim).
        """
        paths = dW.shape[0]
        out = np.zeros((paths, self.intervals, self.rank, self.x_dim))
        for n in range(1, self.intervals + 1):
            # a read-only view: the rule sees dW's own memory but cannot write it
            past = dW[:, : self.partition[n - 1], :]
            past.flags.writeable = False
            for m in range(self.rank):
                try:
                    coef = np.asarray(self.rule(n, m, past), dtype=float)
                except IndexError as exc:
                    raise ModelError(
                        f"coefficient rule for interval {n} read outside its past"
                    ) from exc
                if coef.shape == (self.x_dim,):
                    coef = np.broadcast_to(coef, (paths, self.x_dim))
                if coef.shape != (paths, self.x_dim):
                    raise ModelError(
                        f"rule returned shape {coef.shape}, want ({paths}, {self.x_dim})"
                    )
                out[:, n - 1, m, :] = coef
        return out


def integrate(
    proc: StepProcess, driver: BrownianDriver, dW: np.ndarray, coefs: np.ndarray, space: Space
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path sup and terminal norms of the integral, each of shape (paths,).

    ``coefs`` is ``proc.coefficients(dW)``.  Exact: within partition interval
    n the integrand is frozen, so each grid step adds coef_n . dW_k to one
    running (paths, x_dim) sum, in step order.  The sup folds the norm of the
    sum after every step into a running max that starts at ||f_0|| = 0, so no
    array grows with the grid.
    """
    proc.check_driver(driver)
    total = np.zeros((dW.shape[0], proc.x_dim))
    sup = np.zeros(dW.shape[0])
    interval_of = np.searchsorted(np.array(proc.partition), np.arange(driver.steps), side="right")
    for k in range(driver.steps):
        n = interval_of[k]
        # sum over the first `rank` driver coordinates
        total += np.einsum("pmx,pm->px", coefs[:, n - 1, :, :], dW[:, k, : proc.rank])
        norms = space.norms(total)
        np.maximum(sup, norms, out=sup)
    return sup, norms


def _draw_floats(space: Space) -> int:
    """Floats per path of one Monte Carlo gamma draw: the series, the norm's
    |series| temporary and the sums taken beside it (a nested norm's first
    sums fold its innermost d coordinates)."""
    sums = space.dim // space.shape[-1][1] if space.kind == "nested" else 1
    return 2 * space.dim + sums


@functools.lru_cache(maxsize=1)
def _scaled_draws(seed: int, inner: int, rank: int, lengths: tuple) -> np.ndarray:
    """The (inner, intervals*rank) inner Gaussians of one seed, each scaled by
    sqrt(dt_n); drawn once for all the blocks of a chunk, and read-only."""
    scaled = stream(seed, "gamma-inner").normal(size=(inner, len(lengths), rank))
    scaled *= np.sqrt(lengths)[:, None]
    scaled = scaled.reshape(inner, -1)
    scaled.flags.writeable = False
    return scaled


def gamma_norm(
    proc: StepProcess,
    driver: BrownianDriver,
    coefs: np.ndarray,
    space: Space,
    inner: int = GAMMA_INNER,
    seed: int = 0,
    exact: bool | None = None,
) -> np.ndarray:
    """Per-path Gaussian-series norm of the frozen integrand.

    ``coefs`` is ``proc.coefficients`` of the paths.  The integral operator of
    a step process maps an orthonormal basis of L^2(0,T;R^m) to
    sqrt(dt_n) xi_{nm}, so the squared norm is
    E || sum_{n,m} g_{nm} sqrt(dt_n) xi_{nm} ||^2: a closed form when the
    norm is euclidean, a small Monte Carlo average otherwise.

    The closed form squares and contracts the coefficients.  The average is
    one matrix product per block of inner draws: the scaled draws, shape
    (inner, intervals*rank), times the coefficients laid out as a contiguous
    (intervals*rank, x_dim*paths) matrix give each draw's series as an
    (x_dim, paths) slab, so the norm reduces across x_dim element by element
    over contiguous rows of paths.  A block holds _draw_floats(space) floats
    per draw and path, within BLOCK_FLOATS when two draws fit (simulate's
    path blocks make sure they do).  Every block, the last included, has at
    least two draws (unless ``inner`` is odd and only two fit), so every
    product is a gemm call; a one-row product goes to gemv, which sums in
    another order.  Each draw's squared norms are added in draw order.
    """
    proc.check_driver(driver)
    lengths = np.diff(driver.grid[list(proc.partition)])
    exact = is_hilbert_like(space) if exact is None else exact
    if exact:
        if not is_hilbert_like(space):
            raise ModelError("exact gamma norms need an inner-product norm")
        sq = np.einsum("pnmx,n->p", np.square(coefs), lengths)
        if space.kind == "nested":
            # all exponents 2: ||x||^2 averages x_i^2 with weight 1 / prod d_i
            sq = sq / space.dim
        return np.sqrt(sq)
    scaled = _scaled_draws(seed, inner, proc.rank, tuple(lengths))
    paths, x_dim = coefs.shape[0], proc.x_dim
    mat = np.ascontiguousarray(coefs.transpose(1, 2, 3, 0)).reshape(-1, x_dim * paths)
    rows = max(2, BLOCK_FLOATS // (_draw_floats(space) * paths))
    while rows > 2 and inner % rows == 1:
        rows -= 1  # a last block of one draw would be a gemv call, not gemm
    total = np.zeros(paths)
    for start in range(0, inner, rows):
        series = (scaled[start:start + rows] @ mat).reshape(-1, x_dim, paths)
        norms = space.norms(np.moveaxis(series, 1, -1))
        for sq in np.square(norms, out=norms):
            total += sq
        # free this block (sq is a view of it) before the next product allocates its own
        del series, norms, sq
    return np.sqrt(total / inner)


def path_floats(proc: StepProcess, driver: BrownianDriver) -> tuple[int, int]:
    """One path's increment floats (steps, driver_dim) and coefficient floats
    (intervals, rank, x_dim)."""
    return driver.steps * driver.dim, proc.intervals * proc.rank * proc.x_dim


def block_paths(proc: StepProcess, driver: BrownianDriver, space: Space, paths: int) -> int:
    """Paths per block of ``simulate``, at most one chunk.

    A block's coefficients beside either its increments or their gamma
    layout fill at most BLOCK_FLOATS floats, and on the Monte Carlo route a
    gamma draw block of BLOCK_FLOATS floats has at least two draws.  Checked
    before anything is drawn: a ModelError when the three result floats per
    path exceed JOINT_LIMIT, or when one path does not fit the block budget.
    """
    if 3 * paths > JOINT_LIMIT:
        raise ModelError(f"{paths} paths keep {3 * paths} result floats, over budget {JOINT_LIMIT}")
    increments, coefficients = path_floats(proc, driver)
    block = BLOCK_FLOATS // (coefficients + max(increments, coefficients))
    if not is_hilbert_like(space):
        block = min(block, BLOCK_FLOATS // (2 * _draw_floats(space)))
    if block < 1:
        raise ModelError(f"one path's {increments} increment and {coefficients} coefficient "
                         f"floats do not fit the block budget of {BLOCK_FLOATS} floats")
    return min(block, CHUNK)


@dataclass(frozen=True)
class PathStats:
    """Per-path sup, terminal and gamma norms of one simulation."""

    sup: np.ndarray
    terminal: np.ndarray
    gamma: np.ndarray


def simulate(
    proc: StepProcess, driver: BrownianDriver, space: Space, paths: int, seed: int = 0,
    first: int = 0,
) -> PathStats:
    """Simulation in blocks of paths (block_paths) collecting sup, terminal
    and gamma norms per path, for the ``paths`` paths from path ``first`` on
    (a multiple of CHUNK).  A chunk's blocks share its inner draws."""
    if space.dim != proc.x_dim:
        raise ModelError("space dimension does not match the process")
    block = block_paths(proc, driver, space, paths)
    stats = PathStats(np.empty(paths), np.empty(paths), np.empty(paths))
    exact = is_hilbert_like(space)
    for start, stop, dW in driver.increment_chunks(first + paths, seed, block=block, first=first):
        coefs = proc.coefficients(dW)
        span = slice(start - first, stop - first)
        stats.sup[span], stats.terminal[span] = integrate(proc, driver, dW, coefs, space)
        del dW  # the gamma norm reads only the coefficients
        chunk = start - start % CHUNK
        stats.gamma[span] = gamma_norm(
            proc, driver, coefs, space, inner=GAMMA_INNER, seed=(seed << 20) + chunk, exact=exact
        )
        del coefs  # before the next block is drawn
    return stats


def _sweep_chunk(task: tuple) -> PathStats:
    """One chunk of bdg_sweep: the task (family, space, driver, paths, seed,
    first) simulates the chunk of ``paths`` that starts at path ``first``.
    Module-level so that it pickles; the family is rebuilt from its name
    because a StepProcess holds a closure."""
    family, space, driver, paths, seed, first = task
    proc = make_family(family, space, driver)
    # by position: perfbench/tracing.py binds simulate's arguments by position
    return simulate(proc, driver, space, min(CHUNK, paths - first), seed, first)


def _join(parts: list) -> PathStats:
    """The chunks' PathStats, in chunk order, as one.  Joined one statistic
    at a time: a statistic's chunk parts are freed once it is joined, so no
    more than one float per path is held beyond the parts.  Empties
    ``parts``."""
    columns = [[getattr(part, name) for part in parts] for name in ("sup", "terminal", "gamma")]
    parts.clear()
    return PathStats(*(np.concatenate(columns.pop(0)) for _ in range(3)))


def _moment(values: np.ndarray, p: float) -> tuple[float, float]:
    """Mean of |values|^p with its standard error."""
    powered = values ** p
    mean = float(powered.mean())
    se = float(powered.std(ddof=1) / math.sqrt(powered.size)) if powered.size > 1 else 0.0
    return mean, se


def bdg_sweep(
    space: Space,
    ps: Sequence[float],
    family: str,
    driver: BrownianDriver,
    paths: int,
    seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Estimate kappa_p = (E sup^p / E gamma^p)^(1/p) for one process family
    at each p, every row from the same simulated paths: one ``simulate``
    call per chunk, over at most ``workers`` processes, joined into the paths
    of one call for all of them whatever ``workers`` is.  A moment that is
    not finite (norms that overflow on the space) is a ModelError naming the
    space."""
    block_paths(make_family(family, space, driver), driver, space, paths)  # refuse before any task
    tasks = [(family, space, driver, paths, seed, first) for first in range(0, paths, CHUNK)]
    stats = _join(pmap(_sweep_chunk, tasks, workers=workers))
    rows = []
    for p in ps:
        row = {"family": family, "p": p, "paths": paths, "seed": seed, "status": "ok"}
        for name in ("sup", "gamma", "terminal"):
            row[f"{name}_moment"], row[f"{name}_se"] = _moment(getattr(stats, name), p)
            if not math.isfinite(row[f"{name}_moment"]):
                raise ModelError(f"the {name} moment at p={p:g} is not finite on "
                                 f"{format_space(space)}")
        if row["gamma_moment"] == 0.0:
            if row["sup_moment"] != 0.0:
                raise ModelError("gamma moment vanished on a nonzero integral")
            row["status"] = "vacuous"
            kappa = 0.0
        else:
            kappa = (row["sup_moment"] / row["gamma_moment"]) ** (1.0 / p)
        row["kappa"], row["kappa_over_p"] = kappa, kappa / p
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# process families


def _uniform_partition(driver: BrownianDriver, intervals: int) -> list[int]:
    if intervals > driver.steps:
        raise ModelError(f"more intervals than grid steps (the families need at least "
                         f"{intervals} steps)")
    return [round(i * driver.steps / intervals) for i in range(intervals + 1)]


def make_family(
    family: str, space: Space, driver: BrownianDriver, intervals: int = 4, rank: int | None = None
) -> StepProcess:
    """Named step-process families used by experiments.

    deterministic: basis vector per (interval, direction), constant in omega.
    rotating: two-basis blends that move with the interval index.
    adapted-sign: unit coefficients whose sign is a function of the past.

    Each rule forms its basis vectors when called, so building a family
    allocates nothing that grows with the space's dimension.
    """
    dim = space.dim
    partition = _uniform_partition(driver, intervals)
    rank = min(driver.dim, dim) if rank is None else rank

    def unit(i: int) -> np.ndarray:
        out = np.zeros(dim)
        out[i % dim] = 1.0
        return out

    if family == "deterministic":
        def rule(n, m, past):
            return unit(n + m)
    elif family == "rotating":
        def rule(n, m, past):
            a, b = unit(n + m), unit(n + m + 1)
            return (a + b) / math.sqrt(2.0) if dim > 1 else a
    elif family == "adapted-sign":
        def rule(n, m, past):
            base = unit(m)
            if past.shape[1] == 0:
                return base
            drift = past[:, :, m % past.shape[2]].sum(axis=1)
            signs = np.where(drift >= 0.0, 1.0, -1.0)
            return signs[:, None] * base[None, :]
    else:
        raise ValueError(f"unknown family {family!r}")
    return StepProcess(partition, rank, dim, rule, name=family)
