"""Brownian drivers, adapted step processes, and BDG ratio experiments.

Everything is exact on the driver's grid: step processes align to grid
points, so the integral is a finite sum and the only randomness is the
driver's.  Paths are simulated in chunks of rng.CHUNK.  A chunk holds its
driver increments (paths, steps, driver_dim), its coefficients (paths,
intervals, rank, x_dim) and O(paths*x_dim) working floats: the integral is
one running (paths, x_dim) sum whose norm is folded into a running sup after
every step, the increments are dropped once it is taken, and the
coefficients before the next chunk is drawn.  The Monte Carlo gamma norm
multiplies a block of scaled inner draws by the chunk's coefficients, laid
out as one (intervals*rank, x_dim*paths) matrix, and reduces the norm over
the resulting (draw, x_dim, path) array; a block, the norm's temporary
included, holds at most BLOCK_FLOATS floats and is freed before the next.
So memory grows with the grid and dimensions of one chunk but not with the
path count or the inner-draw count; three floats per path are kept (sup,
terminal and gamma norm).  Every chunk has its own counter-based stream,
which makes results independent of chunking and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probmodel import BLOCK_FLOATS, ModelError
from .rng import chunk_streams, stream
from .spaces import Space, format_space

GAMMA_INNER = 1024


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

    def increment_chunks(self, count: int, seed: int, label: str = "driver"):
        """Yield (start, stop, dW) with dW ~ Normal(0, dt), shape (c, steps, dim)."""
        scale = math.sqrt(self.dt)
        for start, stop, gen in chunk_streams(seed, label, count):
            yield start, stop, gen.normal(0.0, scale, size=(stop - start, self.steps, self.dim))


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


def constant_process(partition, vectors, x_dim: int, name: str = "deterministic") -> StepProcess:
    """Deterministic step process: vectors[n-1][m] is the coefficient."""
    table = [np.atleast_2d(np.asarray(v, dtype=float)) for v in vectors]
    rank = table[0].shape[0]

    def rule(n, m, past):
        return table[n - 1][m]

    return StepProcess(partition, rank, x_dim, rule, name=name)


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

    The closed form squares and contracts the coefficients in blocks of
    paths, each within BLOCK_FLOATS.  The average is one matrix product per
    block of inner draws: the scaled draws, shape (inner, intervals*rank),
    times the coefficients laid out once as a contiguous
    (intervals*rank, x_dim*paths) matrix give each draw's series as an
    (x_dim, paths) slab, so the norm reduces across x_dim element by element
    over contiguous rows of paths.  A block holds the series, the norm's
    |series| temporary and the sums taken beside it, within BLOCK_FLOATS:
    (2*x_dim + 1)*paths floats per draw, or (2*x_dim + x_dim/d)*paths for a
    nested norm, whose first sums fold its innermost d coordinates.  Each
    draw's squared norms are added in draw order.
    """
    proc.check_driver(driver)
    lengths = np.diff(driver.grid[list(proc.partition)])
    exact = is_hilbert_like(space) if exact is None else exact
    if exact:
        if not is_hilbert_like(space):
            raise ModelError("exact gamma norms need an inner-product norm")
        rows = max(1, BLOCK_FLOATS // max(1, math.prod(coefs.shape[1:])))
        sq = np.empty(coefs.shape[0])
        for start in range(0, coefs.shape[0], rows):
            block = np.square(coefs[start:start + rows])
            sq[start:start + rows] = np.einsum("pnmx,n->p", block, lengths)
            del block  # freed before the next block is squared
        if space.kind == "nested":
            # all exponents 2: ||x||^2 averages x_i^2 with weight 1 / prod d_i
            sq = sq / space.dim
        return np.sqrt(sq)
    gen = stream(seed, "gamma-inner")
    scaled = gen.normal(size=(inner, proc.intervals, proc.rank))
    scaled *= np.sqrt(lengths)[:, None]
    scaled = scaled.reshape(inner, -1)
    paths, x_dim = coefs.shape[0], proc.x_dim
    mat = np.ascontiguousarray(coefs.transpose(1, 2, 3, 0)).reshape(-1, x_dim * paths)
    sums = x_dim // space.shape[-1][1] if space.kind == "nested" else 1
    rows = max(1, BLOCK_FLOATS // max(1, (2 * x_dim + sums) * paths))
    total = np.zeros(paths)
    for start in range(0, inner, rows):
        series = (scaled[start:start + rows] @ mat).reshape(-1, x_dim, paths)
        norms = space.norms(np.moveaxis(series, 1, -1))
        for sq in np.square(norms, out=norms):
            total += sq
        # free this block (sq is a view of it) before the next product allocates its own
        del series, norms, sq
    return np.sqrt(total / inner)


@dataclass(frozen=True)
class PathStats:
    """Per-path sup, terminal and gamma norms of one simulation."""

    sup: np.ndarray
    terminal: np.ndarray
    gamma: np.ndarray


def simulate(
    proc: StepProcess, driver: BrownianDriver, space: Space, paths: int, seed: int = 0
) -> PathStats:
    """Chunked simulation collecting sup, terminal and gamma norms per path."""
    if space.dim != proc.x_dim:
        raise ModelError("space dimension does not match the process")
    stats = PathStats(np.empty(paths), np.empty(paths), np.empty(paths))
    exact = is_hilbert_like(space)
    for start, stop, dW in driver.increment_chunks(paths, seed):
        coefs = proc.coefficients(dW)
        stats.sup[start:stop], stats.terminal[start:stop] = integrate(
            proc, driver, dW, coefs, space
        )
        del dW  # the gamma norm reads only the coefficients
        stats.gamma[start:stop] = gamma_norm(
            proc, driver, coefs, space, inner=GAMMA_INNER, seed=(seed << 20) + start, exact=exact
        )
        del coefs  # before the next chunk is drawn
    return stats


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
) -> list[dict]:
    """Estimate kappa_p = (E sup^p / E gamma^p)^(1/p) for one process family
    at each p, every row from the same simulated paths.  A moment that is not
    finite (norms that overflow on the space) is a ModelError naming the space."""
    stats = simulate(make_family(family, space, driver), driver, space, paths, seed=seed)
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
        raise ModelError("more intervals than grid steps")
    return [round(i * driver.steps / intervals) for i in range(intervals + 1)]


def make_family(
    family: str, space: Space, driver: BrownianDriver, intervals: int = 4, rank: int | None = None
) -> StepProcess:
    """Named step-process families used by experiments.

    deterministic: basis vector per (interval, direction), constant in omega.
    rotating: two-basis blends that move with the interval index.
    adapted-sign: unit coefficients whose sign is a function of the past.
    """
    dim = space.dim
    partition = _uniform_partition(driver, intervals)
    rank = min(driver.dim, dim) if rank is None else rank

    if family == "deterministic":
        vectors = [
            [np.eye(dim)[(n + m) % dim] for m in range(rank)]
            for n in range(1, intervals + 1)
        ]
        return constant_process(partition, vectors, dim, name=family)
    if family == "rotating":
        eye = np.eye(dim)
        vectors = []
        for n in range(1, intervals + 1):
            row = []
            for m in range(rank):
                a, b = eye[(n + m) % dim], eye[(n + m + 1) % dim]
                row.append((a + b) / math.sqrt(2.0) if dim > 1 else a)
            vectors.append(row)
        return constant_process(partition, vectors, dim, name=family)
    if family == "adapted-sign":
        eye = np.eye(dim)

        def rule(n, m, past):
            base = eye[m % dim]
            if past.shape[1] == 0:
                return base
            drift = past[:, :, m % past.shape[2]].sum(axis=1)
            signs = np.where(drift >= 0.0, 1.0, -1.0)
            return signs[:, None] * base[None, :]

        return StepProcess(partition, rank, dim, rule, name=family)
    raise ValueError(f"unknown family {family!r}")
