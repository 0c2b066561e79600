"""Finite-dimensional (quasi-)normed spaces.

Four space kinds are supported, all with vectors represented as flat numpy
arrays of a fixed dimension:

* ``euclid(d)``      -- Euclidean norm on R^d.
* ``seq_lp(q, d)``   -- unweighted l^q on R^d, 0 < q < infinity.  For q < 1
  this is a quasi-norm.
* ``sup_norm(d)``    -- the max norm; the only way to spell q = infinity.
* ``nested(levels)`` -- iterated discrete Lebesgue averages: levels is a
  sequence of (q_i, d_i) pairs, the norm averages with uniform weight 1/d_i
  at every level, innermost level last.  Total dimension is prod(d_i).

Each space carries an r-normability exponent ``r = min(1, min q_i)`` (1 for
euclid and sup): the triangle inequality holds for ||.||^r with constant one.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# numpy adds a contiguous axis shorter than this left to right, one element
# after the other, and longer ones pairwise (tests/test_spaces.py checks it).
_FOLD_DIM = 8
# Hard ceiling: joint outcomes, partial-sum, window-peak, table and bdg result floats.
JOINT_LIMIT = 10_000_000


class SpaceError(ValueError):
    pass


class ModelError(ValueError):
    """A model, process or run the lab cannot evaluate as configured."""


@dataclass(frozen=True)
class Space:
    kind: str                      # "euclid" | "lp" | "sup" | "nested"
    shape: tuple[tuple[float, int], ...]  # (q, d) per level; one level unless nested

    def __post_init__(self):
        if self.kind not in ("euclid", "lp", "sup", "nested"):
            raise SpaceError(f"unknown space kind {self.kind!r}")
        if not self.shape:
            raise SpaceError("space needs at least one (q, d) level")
        for q, d in self.shape:
            if d < 1 or d != int(d):
                raise SpaceError(f"bad dimension {d!r}")
            if self.kind != "sup" and not (0 < q < math.inf):
                raise SpaceError(f"exponent {q!r} out of range; use sup_norm for q=inf")
        # computed once; not a field, so equality, hashing and pickling are unchanged
        object.__setattr__(self, "_dim", math.prod(int(d) for _, d in self.shape))

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def r(self) -> float:
        """r-normability exponent: ||x+y||^r <= ||x||^r + ||y||^r."""
        if self.kind in ("euclid", "sup"):
            return 1.0
        return min(1.0, min(q for q, _ in self.shape))

    def norms(self, arr) -> np.ndarray:
        """Vectorized norm over the trailing axis of ``arr``.

        The result does not depend on how ``arr`` is laid out in memory: it
        is, bit for bit, what numpy's reductions give over a C-contiguous
        trailing axis.  The coordinates are folded column by column, which
        is fast when the trailing axis is outermost in memory (an
        ``np.moveaxis`` view of a dim-major array).  Sup takes |x| one column
        at a time into a running max, so it holds two floats per vector and
        no |arr| temporary.  Sums over fewer than _FOLD_DIM coordinates are a
        left-to-right sum, which is how numpy adds a contiguous axis that
        short.  Longer sums are numpy's pairwise ``np.sum`` over a temporary
        laid out coordinates last.
        """
        arr = np.asarray(arr, dtype=float)
        if arr.shape[-1] != self.dim:
            raise SpaceError(f"trailing axis must be {self.dim}, got {arr.shape[-1]}")
        if self.kind == "sup":
            out = np.abs(arr[..., 0], out=np.empty(arr.shape[:-1]))
            col = np.empty_like(out)
            for i in range(1, self.dim):
                np.maximum(out, np.abs(arr[..., i], out=col), out=out)
            return out
        if max(d for _, d in self.shape) < _FOLD_DIM:
            order, total = "K", _fold_sum
        else:
            order, total = "C", functools.partial(np.sum, axis=-1)
        if self.kind == "euclid":
            return np.sqrt(total(np.multiply(arr, arr, order=order)))
        # powers act in place on the one |arr| temporary
        if self.kind == "lp":
            q = self.shape[0][0]
            out = np.abs(arr, order=order)
            out **= q
            out = total(out)
            out **= 1.0 / q
            return out
        # nested: fold from the innermost level outward, uniform weights (a
        # mean is numpy's sum divided by the count)
        out = np.abs(arr, order=order).reshape(arr.shape[:-1] + tuple(d for _, d in self.shape))
        for q, d in reversed(self.shape):
            out **= q
            out = total(out)
            out /= d
            out **= 1.0 / q
        return out


def _fold_sum(x: np.ndarray) -> np.ndarray:
    """The sum across the trailing axis from the left, one column x[..., i]
    at a time, into a new C-ordered array."""
    if x.shape[-1] == 1:
        return x[..., 0].copy()
    out = np.add(x[..., 0], x[..., 1], out=np.empty(x.shape[:-1]))
    for i in range(2, x.shape[-1]):
        out += x[..., i]
    return out


def euclid(d: int) -> Space:
    return Space("euclid", ((2.0, int(d)),))


def seq_lp(q: float, d: int) -> Space:
    return Space("lp", ((float(q), int(d)),))


def sup_norm(d: int) -> Space:
    return Space("sup", ((math.inf, int(d)),))


def nested(levels) -> Space:
    return Space("nested", tuple((float(q), int(d)) for q, d in levels))


def lu_constants(p: float) -> tuple[float, float]:
    """The two-point power comparison constants (l_p, u_p).

    l_p = 2^(1-p) v 1 and u_p = 2^(p-1) v 1 give, for all a, b >= 0,
        l_p^(-1) (a^p + b^p) <= (a + b)^p <= u_p (a^p + b^p),
    with the identity 2^(1-p) u_p = l_p tying them together.
    """
    if p <= 0:
        raise SpaceError("p must be positive")
    return max(2.0 ** (1.0 - p), 1.0), max(2.0 ** (p - 1.0), 1.0)


def parse_space(text: str) -> Space:
    """Parse the CLI space grammar.

    ``l2:8`` -> euclid(8); ``lp:0.5:4`` -> seq_lp(0.5, 4);
    ``linf:16`` -> sup_norm(16); ``nested:1x2,3x2`` -> nested([(1,2),(3,2)]).
    """
    parts = text.strip().split(":")
    try:
        if parts[0] == "l2" and len(parts) == 2:
            return euclid(int(parts[1]))
        if parts[0] == "linf" and len(parts) == 2:
            return sup_norm(int(parts[1]))
        if parts[0] == "lp" and len(parts) == 3:
            return seq_lp(float(parts[1]), int(parts[2]))
        if parts[0] == "nested" and len(parts) == 2:
            levels = []
            for item in parts[1].split(","):
                q, d = item.split("x")
                levels.append((float(q), int(d)))
            return nested(levels)
    except (ValueError, SpaceError) as exc:
        raise SpaceError(f"bad space spec {text!r}: {exc}") from exc
    raise SpaceError(f"bad space spec {text!r}")


_SPEC_KINDS = ("l2:", "linf:", "lp:", "nested:")


def split_spaces(text: str) -> list[str]:
    """Split a comma-separated list of space specs.

    A comma separates two specs only where the next one starts with a kind
    (``l2:``, ``linf:``, ``lp:``, ``nested:``); any other comma belongs to
    the levels of a nested spec, so ``l2:4,nested:1x2,3x2`` is two spaces.
    Blank items are dropped.
    """
    specs: list[str] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if specs and not item.startswith(_SPEC_KINDS):
            specs[-1] += "," + item
        else:
            specs.append(item)
    return specs


def format_space(space: Space) -> str:
    if space.kind == "euclid":
        return f"l2:{space.dim}"
    if space.kind == "sup":
        return f"linf:{space.dim}"
    if space.kind == "lp":
        q, d = space.shape[0]
        return f"lp:{_format_exponent(q)}:{d}"
    inner = ",".join(f"{_format_exponent(q)}x{d}" for q, d in space.shape)
    return f"nested:{inner}"


def _format_exponent(q: float) -> str:
    """Short ``:g`` text when it parses back to q, else the lossless repr."""
    text = f"{q:g}"
    return text if float(text) == q else repr(q)
