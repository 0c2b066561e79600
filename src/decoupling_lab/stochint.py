"""Brownian drivers, adapted step processes, and BDG ratio experiments.

Everything is exact on the driver's grid: step processes align to grid
points, so the integral is a finite sum and the only randomness is the
driver's.  Path simulation is chunked so a 10^5-path experiment stays inside
a few megabytes, and every chunk has its own counter-based stream, which
makes results independent of chunking and worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probmodel import ModelError
from .rng import chunk_streams, stream
from .spaces import Space

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
            past = dW[:, : self.partition[n - 1], :]
            past = past.copy()
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


def integrate(proc: StepProcess, driver: BrownianDriver, dW: np.ndarray) -> np.ndarray:
    """Integral paths at every grid point, shape (paths, steps+1, x_dim).

    Exact: within partition interval n the integrand is frozen, so each grid
    step contributes coef_n . dW_k.
    """
    proc.check_driver(driver)
    coefs = proc.coefficients(dW)
    paths = dW.shape[0]
    out = np.zeros((paths, driver.steps + 1, proc.x_dim))
    interval_of = np.searchsorted(np.array(proc.partition), np.arange(driver.steps), side="right")
    for k in range(driver.steps):
        n = interval_of[k]
        # sum over the first `rank` driver coordinates
        step = np.einsum("pmx,pm->px", coefs[:, n - 1, :, :], dW[:, k, : proc.rank])
        out[:, k + 1] = out[:, k] + step
    return out


def gamma_norm(
    proc: StepProcess,
    driver: BrownianDriver,
    dW: np.ndarray,
    space: Space,
    inner: int = GAMMA_INNER,
    seed: int = 0,
    exact: bool | None = None,
) -> np.ndarray:
    """Per-path Gaussian-series norm of the frozen integrand.

    The integral operator of a step process maps an orthonormal basis of
    L^2(0,T;R^m) to sqrt(dt_n) xi_{nm}, so the squared norm is
    E || sum_{n,m} g_{nm} sqrt(dt_n) xi_{nm} ||^2: a closed form when the
    norm is euclidean, a small Monte Carlo average otherwise.
    """
    proc.check_driver(driver)
    coefs = proc.coefficients(dW)
    grid = driver.grid
    lengths = np.diff(grid[list(proc.partition)])
    exact = is_hilbert_like(space) if exact is None else exact
    if exact:
        if not is_hilbert_like(space):
            raise ModelError("exact gamma norms need an inner-product norm")
        sq = np.einsum("pnmx,n->p", coefs ** 2, lengths)
        if space.kind == "nested":
            # all exponents 2: ||x||^2 averages x_i^2 with weight 1 / prod d_i
            sq = sq / space.dim
        return np.sqrt(sq)
    gen = stream(seed, "gamma-inner")
    draws = gen.normal(size=(inner, proc.intervals, proc.rank))
    scaled = np.einsum("inm,n->inm", draws, np.sqrt(lengths))
    series = np.einsum("inm,pnmx->ipx", scaled, coefs)
    return np.sqrt(np.mean(space.norms(series) ** 2, axis=0))


@dataclass
class PathStats:
    """Per-path summary statistics accumulated over chunks."""

    sup: np.ndarray
    terminal: np.ndarray
    gamma: np.ndarray

    @classmethod
    def empty(cls) -> "PathStats":
        return cls(np.zeros(0), np.zeros(0), np.zeros(0))

    def extend(self, sup, terminal, gamma):
        self.sup = np.concatenate([self.sup, sup])
        self.terminal = np.concatenate([self.terminal, terminal])
        self.gamma = np.concatenate([self.gamma, gamma])


def simulate(
    proc: StepProcess,
    driver: BrownianDriver,
    space: Space,
    paths: int,
    seed: int = 0,
    inner: int = GAMMA_INNER,
) -> PathStats:
    """Chunked simulation collecting sup, terminal and gamma norms per path."""
    if space.dim != proc.x_dim:
        raise ModelError("space dimension does not match the process")
    stats = PathStats.empty()
    exact = is_hilbert_like(space)
    for start, stop, dW in driver.increment_chunks(paths, seed):
        values = integrate(proc, driver, dW)
        norms = space.norms(values)
        gam = gamma_norm(
            proc, driver, dW, space, inner=inner, seed=(seed << 20) + start, exact=exact
        )
        stats.extend(norms.max(axis=1), norms[:, -1], gam)
    return stats


def _moment(values: np.ndarray, p: float) -> tuple[float, float]:
    """Mean of |values|^p with its standard error."""
    powered = values ** p
    mean = float(powered.mean())
    se = float(powered.std(ddof=1) / math.sqrt(powered.size)) if powered.size > 1 else 0.0
    return mean, se


def bdg_experiment(
    space: Space,
    p: float,
    family: str,
    driver: BrownianDriver,
    paths: int,
    seed: int = 0,
    intervals: int = 4,
    inner: int = GAMMA_INNER,
) -> dict:
    """Estimate kappa_p = (E sup^p / E gamma^p)^(1/p) for one process family."""
    proc = make_family(family, space, driver, intervals=intervals)
    stats = simulate(proc, driver, space, paths, seed=seed, inner=inner)
    sup_mom, sup_se = _moment(stats.sup, p)
    gam_mom, gam_se = _moment(stats.gamma, p)
    term_mom, term_se = _moment(stats.terminal, p)
    if gam_mom == 0.0 and sup_mom == 0.0:
        return {
            "family": family, "p": p, "paths": paths, "seed": seed,
            "sup_moment": 0.0, "gamma_moment": 0.0, "terminal_moment": 0.0,
            "kappa": 0.0, "kappa_over_p": 0.0, "status": "vacuous",
        }
    if gam_mom == 0.0:
        raise ModelError("gamma moment vanished on a nonzero integral")
    kappa = (sup_mom / gam_mom) ** (1.0 / p)
    return {
        "family": family,
        "p": p,
        "paths": paths,
        "seed": seed,
        "sup_moment": sup_mom,
        "sup_se": sup_se,
        "gamma_moment": gam_mom,
        "gamma_se": gam_se,
        "terminal_moment": term_mom,
        "terminal_se": term_se,
        "kappa": kappa,
        "kappa_over_p": kappa / p,
        "status": "ok",
    }


def bdg_sweep(
    space: Space,
    ps: Sequence[float],
    family: str,
    driver: BrownianDriver,
    paths: int,
    seed: int = 0,
    intervals: int = 4,
) -> list[dict]:
    return [
        bdg_experiment(space, p, family, driver, paths, seed=seed, intervals=intervals)
        for p in ps
    ]


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
