"""Finite filtration trees, adapted sequences, and decoupled tangent pairs.

A probability model is a tree of innovation draws: level n has a finite
alphabet of innovation values with strictly positive probabilities, a node at
depth n is a prefix (j_1, ..., j_n) of alphabet indices, and the sigma-algebra
F_n is generated by the depth-n nodes.  Nodes are encoded mixed-radix: the
children of node u at level n are u * a_n + j.

An adapted sequence is stored as one increment table per level: entry
table[u, j] is the increment d_n on the event "history u, innovation j".
Because the table row is indexed by the *parent* node, the decoupled tangent
copy needs no extra data: replaying the same table with a fresh independent
innovation index gives e_n(w, w~) = table[u_{n-1}(w), j_n(w~)], which has the
same conditional law as d_n given F_{n-1} and is conditionally independent
across n given the full first-coordinate path.  Which row e_n reads is
decided in one place, e_rows; the joint engine, the sampler and both
verifiers read it from there, so the verifiers check the rows the engine
uses.

Everything here is exact: expectations are finite sums over paths or, on the
product space, over (head, path) pairs from joint_blocks and over the
innovation combos of each window in WindowTable, guarded by JOINT_LIMIT.  A
sampling routine with counter-based streams covers models too large to
enumerate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import rng
from .spaces import JOINT_LIMIT, ModelError, Space, format_space, parse_space

# Largest mass gap at which two finite laws count as equal.
LAW_TOL = 1e-12
# One block of an exact enumerator: g_N, sign-sum and norm-block floats.
BLOCK_FLOATS = 2_000_000
# Several models on one tree held at once: search joint and verify window table floats.
BATCH_FLOATS = 65_536


class EnumerationError(RuntimeError, ValueError):
    """Exact enumeration would exceed JOINT_LIMIT outcomes.  A ValueError too:
    the limit refuses a configuration, which the CLI reports with exit 2."""


def atom_ids(vectors) -> np.ndarray:
    """The exact atom id of each row of a (count, width) batch of vectors.

    Rows share an id when their bytes after + 0.0 agree, so 0.0 and -0.0 are
    one atom, and so are NaNs with one payload; ids run 0.. in byte order.
    Masses are np.bincount(ids, weights=probs), which adds them in input order.
    """
    rows = np.ascontiguousarray(vectors, dtype=float) + 0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
    return np.unique(keys, return_inverse=True)[1]


def distinct(values) -> np.ndarray:
    """np.unique(values) of a 1-d array: sorted, each value once.  Sort and
    mask, as np.unique does, without its masked-array check, which loads
    numpy.ma."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def quantiles(values, qs) -> list[float]:
    """np.quantile(values, qs) (method "linear") of an array, for each q in
    [0, 1] of qs, bit for bit: numpy's virtual index (n - 1) q into the
    sorted values, its two-sided lerp, and NaN throughout when a value is
    NaN.  In Python floats: np.quantile's generic front end costs far more
    than the sort on the few values verify takes its thresholds from.  Where
    0.0 and -0.0 are both among the values, the sort may order them unlike
    numpy's partition; norms are never -0.0."""
    ordered = np.sort(values, axis=None)
    n = len(ordered)
    last = float(ordered[-1])
    if math.isnan(last):
        return [last] * len(qs)
    out = []
    for q in qs:
        index = (n - 1) * float(q)
        # past the last value numpy reads index -1 on both sides, and its
        # weight is then measured from -1
        below = -1 if index >= n - 1 else math.floor(index)
        above = -1 if below == -1 else below + 1
        a, b = float(ordered[below]), float(ordered[above])
        weight = index - below
        diff = b - a
        out.append(b - diff * (1 - weight) if weight >= 0.5 else a + diff * weight)
    return out


def symmetry_gaps(values, probs) -> np.ndarray:
    """Per law of a batch, the largest mass gap between the law of its atoms
    and that of their negatives: values (laws, atoms[, dim]), probs (laws, atoms)."""
    laws, atoms = np.shape(probs)
    vectors = np.asarray(values, dtype=float).reshape(laws, 1, atoms, -1)
    # each atom keyed by its law's index, so that every id belongs to one law
    law = np.broadcast_to(np.arange(laws, dtype=float)[:, None, None, None], (laws, 2, atoms, 1))
    ids = atom_ids(np.concatenate([law, np.concatenate([vectors, -vectors], axis=1)],
                                  axis=3).reshape(laws * 2 * atoms, -1)).reshape(laws, 2, atoms)
    count = int(ids.max()) + 1
    weights = np.ravel(probs)
    gap = np.abs(np.bincount(ids[:, 0].reshape(-1), weights, count)
                 - np.bincount(ids[:, 1].reshape(-1), weights, count))
    # every atom of a law, or of its negative, is one of the law's ids
    return gap[ids].reshape(laws, -1).max(axis=1)


@dataclass(frozen=True, eq=False)
class Level:
    """A finite law: an innovation level of a tree, or one term of a product model.

    values is a read-only float array, shaped (size,) for scalar atoms or
    (size, dim) for vector atoms, all finite.  probs is a read-only float
    array, shaped (size,), of finite, strictly positive masses summing to one
    (to 1e-9).
    """

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        probs = np.array(self.probs, dtype=float)
        values.flags.writeable = probs.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if values.ndim == 0 or probs.ndim != 1 or len(values) != len(probs) or not len(probs):
            raise ModelError("values and probs must be non-empty and aligned")
        if not np.isfinite(values).all():
            raise ModelError("values must be finite")
        # the masses as Python floats: faster than ufuncs on a few atoms, and
        # summed left to right
        masses = probs.tolist()
        if not all(0 < p < math.inf for p in masses):
            raise ModelError("probabilities must be finite and strictly positive")
        if abs(sum(masses) - 1.0) > 1e-9:
            raise ModelError("probabilities must sum to one")

    @property
    def size(self) -> int:
        return len(self.values)

    def is_symmetric(self) -> bool:
        return bool(symmetry_gaps(self.values[None], self.probs[None])[0] <= LAW_TOL)


class FiltrationTree:
    """Depth-N innovation tree; F_0 is trivial, atoms of F_n are depth-n nodes."""

    def __init__(self, levels):
        self.levels = tuple(levels)
        if not self.levels:
            raise ModelError("tree needs depth >= 1")

    @property
    def depth(self) -> int:
        return len(self.levels)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(level.size for level in self.levels)

    @cached_property
    def _counts(self) -> tuple[int, ...]:
        # _counts[n] = number of depth-n nodes
        counts = [1]
        for a in self.sizes:
            counts.append(counts[-1] * a)
        return tuple(counts)

    def num_nodes(self, n: int) -> int:
        return self._counts[n]

    @property
    def path_count(self) -> int:
        return self._counts[self.depth]

    def stride(self, n: int) -> int:
        # paths sharing a depth-n node form a contiguous block of this length
        return self.path_count // self._counts[n]

    def ancestor(self, node_ids: np.ndarray, n: int, k: int) -> np.ndarray:
        """Depth-k ancestors of depth-n node ids (k <= n)."""
        factor = self._counts[n] // self._counts[k]
        return np.asarray(node_ids, dtype=np.int64) // factor

    @cached_property
    def digit_reversed(self) -> tuple[np.ndarray, ...]:
        """Per depth n, the node ids in digit-reversed order: the depth-n node
        with innovations j_1..j_n sits at position sum_m j_m * num_nodes(m-1)."""
        orders = [np.zeros(1, dtype=np.int64)]
        for a in self.sizes:
            orders.append((orders[-1][None, :] * a + np.arange(a)[:, None]).reshape(-1))
        return tuple(orders)

    @cached_property
    def from_digit_reversed(self) -> np.ndarray:
        """The digit-reversed position of every path, in path order."""
        return np.argsort(self.digit_reversed[self.depth])

    @cached_property
    def path_probs(self) -> np.ndarray:
        return self.node_probs(self.depth)

    def node_probs(self, n: int) -> np.ndarray:
        return _grow(np.multiply, np.ones((1, 1)),
                     [level.probs[None, None] for level in self.levels[:n]])[-1][0]


def paley_walsh(depth: int) -> FiltrationTree:
    """Dyadic Rademacher tree: +-1 innovations, probability 1/2 each."""
    return FiltrationTree([FAIR_SIGNS] * depth)


def symmetric_three_point(depth: int) -> FiltrationTree:
    """Symmetric three-point innovations 0 (mass 2/3) and +-sqrt(3): Gaussian moments to order 5."""
    center = 2.0 / 3.0
    side = (1.0 - center) / 2.0
    level = Level((-math.sqrt(3.0), 0.0, math.sqrt(3.0)), (side, center, side))
    return FiltrationTree([level for _ in range(depth)])


class AdaptedSequence:
    """An X-valued adapted sequence on a filtration tree.

    tables[n-1] has shape (num_nodes(n-1), a_n, dim): the level-n increment as
    a function of the parent node (all predictable data) and the innovation.
    """

    def __init__(self, tree: FiltrationTree, space: Space, tables):
        self.tree = tree
        self.space = space
        self.tables = tuple(np.asarray(t, dtype=float) for t in tables)
        if len(self.tables) != tree.depth:
            raise ModelError("one increment table per level required")
        for n, table in enumerate(self.tables, start=1):
            want = (tree.num_nodes(n - 1), tree.sizes[n - 1], space.dim)
            if table.shape != want:
                raise ModelError(f"level {n} table has shape {table.shape}, want {want}")

    @classmethod
    def from_multipliers(cls, tree: FiltrationTree, space: Space, multipliers) -> "AdaptedSequence":
        """d_n = xi_n * v_n with a multiplier vector per depth-(n-1) node.

        Innovations must be scalar; multipliers[n-1] has shape
        (num_nodes(n-1), dim).
        """
        if len(multipliers) != tree.depth:
            raise ModelError("need one multiplier array per level")
        mults = [np.asarray(m, dtype=float) for m in multipliers]
        for n, mult in enumerate(mults, start=1):
            if tree.levels[n - 1].values.ndim != 1:
                raise ModelError("multiplier sequences need scalar innovations")
            if mult.shape != (tree.num_nodes(n - 1), space.dim):
                raise ModelError(f"multiplier {n} has shape {mult.shape}")
        return cls(tree, space, multiplier_tables(tree, mults))

    @property
    def depth(self) -> int:
        return self.tree.depth

    @property
    def dim(self) -> int:
        return self.space.dim

    def increments(self, n: int) -> np.ndarray:
        """Level-n increments by depth-n node, shape (num_nodes(n), dim)."""
        return self.tables[n - 1].reshape(-1, self.dim)

    @cached_property
    def paths(self) -> PathStack:
        """The sequence's per-path statistics: its stack of one."""
        return PathStack(self.tree, self.space, [t[None] for t in self.tables])

    def terminal_moment(self, p: float) -> float:
        return terminal_moments(self.paths, p)[0]

    def is_conditionally_symmetric(self) -> bool:
        """True when every conditional increment law is negation-invariant."""
        for level, table in zip(self.tree.levels, self.tables):
            probs = np.broadcast_to(level.probs, table.shape[:2])
            if (symmetry_gaps(table, probs) > LAW_TOL).any():
                return False
        return True


class PathStack:
    """Node values, masses and table-entry norms of a stack of sequences on
    trees of one shape.

    tables[n-1] is (models, num_nodes(n-1), a_n, dim), a product model's laws
    as broadcast views over the parents; level_probs[n-1] is (models, a_n),
    by default ``tree``'s on a model axis of length 1.  Every statistic is
    F_n-measurable, so it is formed once per depth-n node, growing down the
    tree; the depth-N nodes are the paths.  A depth-n value is read at every
    path as np.repeat(values, tree.stride(n), axis=-1): a node's paths are one
    contiguous block, and the copy is C-ordered.  Each model's slab gets the
    float operations it gets alone (sums and mass products level by level,
    norms vector by vector), so its values do not depend on the stack.
    """

    def __init__(self, tree: FiltrationTree, space: Space, tables, level_probs=None):
        self.tree, self.space = tree, space
        self.tables = tuple(tables)
        if level_probs is None:
            level_probs = [level.probs[None] for level in tree.levels]
            # one tree's path masses, cached on the tree
            self.path_probs = tree.path_probs[None]
        self.level_probs = level_probs

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.tree.sizes

    def node_probs(self, n: int) -> np.ndarray:
        """The mass of every depth-n node, (models or 1, num_nodes(n)): the
        level masses multiplied in level order, as FiltrationTree.node_probs."""
        return _grow(np.multiply, np.ones((len(self.level_probs[0]), 1)),
                     [level[:, None] for level in self.level_probs[:n]])[-1]

    @cached_property
    def path_probs(self) -> np.ndarray:
        return self.node_probs(self.tree.depth)

    @cached_property
    def node_sums(self) -> list[np.ndarray]:
        """f_n at every depth-n node, n = 0..N, each (models, num_nodes(n), dim):
        node u*a + j adds its table entry to u's sum."""
        return _grow(np.add, np.zeros((len(self.tables[0]), 1, self.space.dim)), self.tables)

    @property
    def terminal(self) -> np.ndarray:
        """f_N at every path, (models, paths, dim)."""
        return self.node_sums[-1]

    @cached_property
    def node_norms(self) -> list[np.ndarray]:
        """||f_n|| at every depth-n node, n = 0..N, each (models, num_nodes(n))."""
        return [self.space.norms(sums) for sums in self.node_sums]

    @cached_property
    def f_star(self) -> np.ndarray:
        """max_n ||f_n|| at every path, (models, paths)."""
        norms = self.node_norms
        return _grow(np.maximum, norms[0], [level.reshape(len(level), -1, a)
                                            for level, a in zip(norms[1:], self.sizes)])[-1]

    @cached_property
    def table_norms(self) -> list[np.ndarray]:
        """||d_n|| of every table entry, per level (models, num_nodes(n-1), a_n)."""
        return [self.space.norms(table) for table in self.tables]

    @cached_property
    def node_d_star(self) -> list[np.ndarray]:
        """d*_n = max_{m<=n} ||d_m|| at every depth-n node, n = 0..N, each
        (models, num_nodes(n))."""
        return _grow(np.maximum, np.zeros((len(self.tables[0]), 1)), self.table_norms)

    @cached_property
    def d_star(self) -> np.ndarray:
        """max_n ||d_n|| at every path, (models, paths)."""
        return self.node_d_star[-1]


def _grow(op, root: np.ndarray, levels) -> list[np.ndarray]:
    """Values at every depth-n node, n = 0..N, each (models, num_nodes(n),
    ...), grown down the tree: node u*a + j holds op(u's value, levels[n-1]
    at (u, j)).  root is (models, 1, ...); levels[n-1] is (models,
    num_nodes(n-1), a_n, ...), either of the first two axes possibly 1 to
    broadcast.  Sums, running maxima and masses all grow this way."""
    out = [root]
    for values in levels:
        child = op(out[-1][:, :, None], values)
        out.append(child.reshape(len(child), -1, *child.shape[3:]))
    return out


def multiplier_tables(tree: FiltrationTree, multipliers) -> list[np.ndarray]:
    """Increment tables d_n = xi_n * v_n of multiplier arrays shaped
    (..., num_nodes(n-1), dim); the leading axes carry over to the tables."""
    return [level.values[:, None] * mult[..., None, :]
            for level, mult in zip(tree.levels, multipliers)]


def terminal_moments(stack: PathStack, p: float) -> list[float]:
    """E ||f_N||^p of each sequence of a stack.

    The norms of the stack's terminal, a C-ordered array, so each sequence's
    norms and path-weighted sum (one contiguous row) are formed as for it
    alone and its value does not depend on the stack.
    """
    values = stack.space.norms(stack.terminal) ** p
    return [float(probs @ row)
            for probs, row in zip(np.broadcast_to(stack.path_probs, values.shape), values)]


def sequence_spec(seq: AdaptedSequence) -> dict:
    """Plain-data description of a sequence, suitable for JSON round trips."""
    return {
        "space": format_space(seq.space),
        "levels": [{"values": level.values.tolist(), "probs": level.probs.tolist()}
                   for level in seq.tree.levels],
        "tables": [t.tolist() for t in seq.tables],
    }


def sequence_from_spec(spec: dict) -> AdaptedSequence:
    """Rebuild a sequence from the output of sequence_spec."""
    levels = [Level(entry["values"], entry["probs"]) for entry in spec["levels"]]
    return AdaptedSequence(
        FiltrationTree(levels), parse_space(spec["space"]), spec["tables"]
    )


class TangentPair:
    """An adapted sequence together with its tangent copy.

    mode "decoupled" is the canonical construction (same increment tables,
    independent innovation coordinate); mode "copy" replays the whole sequence
    on the second coordinate (a full independent copy, which is *not* a
    decoupled tangent sequence once predictable data varies) and exists so the
    verifiers have something to reject.  e_rows gives the table row e_n reads
    in either mode.
    """

    def __init__(self, seq: AdaptedSequence, mode: str = "decoupled"):
        if mode not in ("decoupled", "copy"):
            raise ModelError(f"unknown tangent mode {mode!r}")
        self.seq = seq
        self.mode = mode

    @property
    def tree(self) -> FiltrationTree:
        return self.seq.tree

    @property
    def space(self) -> Space:
        return self.seq.space

    @cached_property
    def stack(self) -> "PairStack":
        """The pair as a stack of one, which every pair check runs on."""
        return PairStack(self.tree, self.space, [t[None] for t in self.seq.tables], self.mode)


def decouple(seq: AdaptedSequence) -> TangentPair:
    """The decoupled tangent pair of an adapted sequence."""
    return TangentPair(seq, "decoupled")


def independent_copy(seq: AdaptedSequence) -> TangentPair:
    """A full independent copy posing as a tangent sequence (for negative tests)."""
    return TangentPair(seq, "copy")


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    gap: float
    detail: str = ""


def e_rows(tree: FiltrationTree, mode: str, heads: np.ndarray, n: int) -> np.ndarray:
    """The tangent rule: the level-n table row e_n reads at each depth-(N-1)
    head and each depth-(n-1) omega~ node (digit-reversed order).  Decoupled:
    the head's own depth-(n-1) ancestor's row, shaped (heads, 1).  Copy: the
    omega~ node's own row, as d_n reads it, shaped (1, nodes)."""
    if mode == "decoupled":
        return tree.ancestor(heads, tree.depth - 1, n - 1)[:, None]
    return tree.digit_reversed[n - 1][None, :]


def _checked_heads(tree: FiltrationTree, mode: str) -> np.ndarray:
    """The depth-(N-1) heads that do not read their own depth-(n-1)
    ancestor's row (tree.ancestor) at every level and omega~ node: e_n has
    d_n's row law on the n-th omega~ letter alone at the others, independent
    across n.  None in decoupled mode; in copy mode every head reads one set
    of rows.  Refused past the joint walk budget."""
    require_joint_walk(tree, mode)
    depth = tree.depth
    heads = np.arange(tree.num_nodes(depth - 1))
    other = np.zeros(len(heads), dtype=bool)
    for n in range(1, depth + 1):
        rows = e_rows(tree, mode, heads, n)
        anc = tree.ancestor(heads, depth - 1, n - 1)
        other |= (rows.min(axis=1) != anc) | (rows.max(axis=1) != anc)
    return heads[other]


def _e_values(seq: AdaptedSequence, mode: str, head: int, n: int) -> np.ndarray:
    """e_n at each depth-n omega~ node, natural node order, given one head."""
    tree = seq.tree
    rows = np.empty(tree.num_nodes(n - 1), dtype=np.int64)
    rows[tree.digit_reversed[n - 1]] = e_rows(tree, mode, np.array([head]), n)[0]
    return seq.tables[n - 1][rows].reshape(-1, seq.dim)


def verify_tangent_pair(pairs) -> list[tuple[CheckResult, CheckResult]]:
    """(verify_tangency, verify_conditional_independence) of each pair, for
    pairs of one tree shape and mode: one _checked_heads (which depends on
    the shape and the mode alone), then one pass over each pair's levels."""
    first = pairs[0]
    if any((pair.tree.sizes, pair.mode) != (first.tree.sizes, first.mode) for pair in pairs):
        raise ModelError("tangent pairs checked together need one mode and tree shape")
    heads = _checked_heads(first.tree, first.mode)
    return [tuple(CheckResult(gap <= LAW_TOL, gap, detail) for gap, detail in zip(
        _tangent_gaps(pair, heads) if len(heads) else (0.0, 0.0),
        ("tangency", "conditional independence"))) for pair in pairs]


def _tangent_gaps(pair: TangentPair, heads: np.ndarray) -> tuple[float, float]:
    """The tangency and factorization gaps of one pair at its checked heads,
    whose first head gives every level's e-values, one _e_values per level.
    Laws are finite measures on exact atoms (atom_ids) with float masses."""
    seq, tree = pair.seq, pair.tree
    tangency, ids = 0.0, []
    for n in range(1, tree.depth + 1):
        e_values = _e_values(seq, pair.mode, heads[0], n)
        rows = seq.tables[n - 1][distinct(tree.ancestor(heads, tree.depth - 1, n - 1))]
        # the level's e-law and rows share one set of atom ids
        both = atom_ids(np.concatenate([e_values, rows.reshape(-1, seq.dim)]))
        count = int(both.max()) + 1
        e_law = np.bincount(both[:len(e_values)], tree.node_probs(n), count)
        for row_ids in both[len(e_values):].reshape(len(rows), -1):
            d_law = np.bincount(row_ids, tree.levels[n - 1].probs, count)
            tangency = max(tangency, float(np.max(np.abs(d_law - e_law))))
        # the e-values' own ids, read at every path's depth-n node
        ids.append(np.repeat(atom_ids(e_values), tree.stride(n), axis=-1))
    masses = [np.bincount(level_ids, tree.path_probs) for level_ids in ids]
    shape = tuple(len(m) for m in masses)
    if math.prod(shape) > JOINT_LIMIT:
        raise EnumerationError("factorization grid too large")
    product = reduce(np.multiply.outer, masses).reshape(-1)
    joint = np.bincount(np.ravel_multi_index(ids, shape), tree.path_probs, len(product))
    return tangency, float(np.max(np.abs(joint - product)))


def verify_tangency(pair: TangentPair) -> CheckResult:
    """Check L(e_n | F_inf) = L(d_n | F_{n-1}) on every atom, every level.

    The law of d_n on a depth-(n-1) atom is the increment table row; that of
    e_n given a path mixes, by omega~ node mass, the rows e_rows gives the
    joint engine at the path's head.  Laws are equal when no mass differs by
    more than LAW_TOL; unchecked heads (_checked_heads) have a gap of exactly
    0.0, so a correct decoupled pair gives 0.0.
    """
    return verify_tangent_pair([pair])[0][0]


def verify_conditional_independence(pair: TangentPair) -> CheckResult:
    """Check that the joint law of (e_1..e_N) given F_inf, along every omega~
    path from the rows e_rows gives the joint engine, is the product of its
    marginals, on the dense grid of all combinations of the levels' atom ids
    (a correct decoupled pair checks no head, so its gap is exactly 0.0)."""
    return verify_tangent_pair([pair])[0][1]


def davis_tables(stack: PathStack) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The Davis split of a stack's tables into (small, large) increment tables.

    Level n keeps d_n in the small part when ||d_n|| <= 2 d*_{n-1} (so the
    small part is predictably dominated); level 1 goes entirely to the large
    part.  Replayed as a tangent pair, a copy splits with the same indicator on
    its own increment norm against the first coordinate's d*_{n-1}.  The
    norms and d*_{n-1} are the stack's own (table_norms, node_d_star).
    """
    small, big = [], []
    for n, (table, norms, d_star) in enumerate(zip(stack.tables, stack.table_norms,
                                                   stack.node_d_star), start=1):
        if n == 1:
            small.append(np.zeros_like(table))
            big.append(table.copy())
        else:
            keep = (norms <= 2.0 * d_star[:, :, None]).astype(float)[..., None]
            small.append(table * keep)
            big.append(table * (1.0 - keep))
    return small, big


JOINT_STATS = ("g_norm", "e_star")


def require_joint_walk(tree: FiltrationTree, mode: str = "decoupled") -> int:
    """The (head, omega~) outcomes the joint engine walks on this tree, or
    EnumerationError past JOINT_LIMIT: depth-(N-1) heads (decoupled) or the
    root alone (copy), times the paths."""
    heads = tree.num_nodes(tree.depth - 1) if mode == "decoupled" else 1
    walk = heads * tree.path_count
    if walk > JOINT_LIMIT:
        raise EnumerationError(f"{walk} joint outcomes exceed budget {JOINT_LIMIT}")
    return walk


class PairStack(PathStack):
    """Tangent pairs on trees of one shape, checked as one stack: a
    PathStack with a tangent mode, whose masses and table norms the joint
    engine and the window tables read.  Every reduction runs on one model's
    contiguous slab, so each model's values are those it gets alone.
    """

    def __init__(self, tree: FiltrationTree, space: Space, tables, mode: str = "decoupled",
                 level_probs=None):
        if mode not in ("decoupled", "copy"):
            raise ModelError(f"unknown tangent mode {mode!r}")
        super().__init__(tree, space, tables, level_probs)
        self.mode = mode
        self._window_tables: dict[float, WindowTable] = {}

    @classmethod
    def of(cls, pairs) -> "PairStack":
        """Pairs of one space, mode and tree shape as one stack."""
        first = pairs[0]
        for pair in pairs:
            if (pair.space, pair.mode, pair.tree.sizes) != (first.space, first.mode,
                                                            first.tree.sizes):
                raise ModelError("stacked pairs need one space, mode and tree shape")
        levels = range(first.tree.depth)
        return cls(first.tree, first.space,
                   [np.stack([pair.seq.tables[n] for pair in pairs]) for n in levels], first.mode,
                   [np.stack([pair.tree.levels[n].probs for pair in pairs]) for n in levels])

    def window_table(self, p: float) -> "WindowTable":
        """The conditional window table at exponent p, built on first use."""
        table = self._window_tables.get(p)
        if table is None:
            table = self._window_tables[p] = WindowTable(self, p)
        return table

    def joint_blocks(self, stats=JOINT_STATS):
        """The exact joint engine for the stack.

        The g side reads the first coordinate only through the table rows
        e_rows picks: through the depth-(N-1) prefix in decoupled mode, not
        at all in copy mode.  So the heads are the depth-(N-1) nodes
        (decoupled) or the root alone (copy), each weighted by the mass of
        the paths under it, and every head meets every second-coordinate path.

        Yields (weights, stats): weights (models or 1, rows, paths) is the
        joint mass of each (head, omega~) outcome, summing to one over all
        blocks for each model; stats holds only the requested statistics,
        each shaped (models, rows, paths): g_norm (||g_N||) and e_star (the
        running max of the stack's table_norms along the rows).  Block rows
        are counted across the stack: a block holds about BLOCK_FLOATS
        floats of g_N.

        Within a block g grows level by level along the omega~ tree, so each
        partial sum g_n is formed once per depth-n node, elementwise and for
        each model as for it alone.  g is laid out dim-major, (models, rows,
        dim, nodes), with the omega~ nodes in digit-reversed order
        (FiltrationTree.digit_reversed), so each level is one C-ordered
        broadcast add whose inner loop runs over the nodes, and Space.norms
        folds the coordinates over contiguous slabs.  The statistics are put
        back in the natural path order before they are yielded, so every
        value is the one the natural layout gives, bit for bit.
        """
        unknown = set(stats) - set(JOINT_STATS)
        if unknown:
            raise ValueError(f"unknown joint statistics {sorted(unknown)}")
        tree, space, mode = self.tree, self.space, self.mode
        depth, dim, paths = tree.depth, space.dim, tree.path_count
        heads = require_joint_walk(tree, mode) // paths
        head_probs = self.node_probs(depth - 1 if mode == "decoupled" else 0)
        batch = len(self.tables[0])
        block_rows = max(1, min(heads, BLOCK_FLOATS // max(1, batch * paths * dim)))
        for start in range(0, heads, block_rows):
            block = np.arange(start, min(start + block_rows, heads))
            rows = len(block)
            # statistics at the depth-n nodes of the omega~ tree, n = 0 first
            g = np.zeros((batch, rows, dim, 1))
            e_star = np.zeros((batch, rows, 1))
            for n in range(1, depth + 1):
                # (batch, rows or 1, a_n, parents or 1) entries; child j*parents + q
                # of omega~ node q adds innovation j
                picked = e_rows(tree, mode, block, n)
                if "g_norm" in stats:
                    inc = self.tables[n - 1][:, picked].swapaxes(2, 3)
                    g = np.add(g[:, :, :, None, :], inc.transpose(0, 1, 4, 2, 3),
                               order="C").reshape(batch, rows, dim, -1)
                if "e_star" in stats:
                    e_star = np.maximum(e_star[:, :, None, :],
                                        self.table_norms[n - 1][:, picked].swapaxes(2, 3),
                                        order="C").reshape(batch, rows, tree.num_nodes(n))
            out = {"e_star": e_star}
            if "g_norm" in stats:
                out["g_norm"] = space.norms(g.swapaxes(2, 3))
            weights = head_probs[:, block, None] * self.path_probs[:, None, :]
            yield weights, {key: out[key][..., tree.from_digit_reversed] for key in stats}


def g_terminal_moments(stack: PairStack, p: float) -> list[float]:
    """E ||g_N||^p of each pair of a stack, exact: one norm per (head,
    omega~) outcome of joint_blocks, each pair's blocks summed as for it
    alone (its own reduction over a contiguous (rows, paths) slab)."""
    totals = [0.0] * len(stack.tables[0])
    for weights, stats in stack.joint_blocks(("g_norm",)):
        weighted = weights * stats["g_norm"] ** p
        for b, row in enumerate(weighted):
            totals[b] += float(np.add.reduce(row, axis=None))
    return totals


def g_terminal_moment(pair: TangentPair, p: float) -> float:
    """E ||g_N||^p of one pair, from its stack of one."""
    return g_terminal_moments(pair.stack, p)[0]


def pair_floats(sizes: tuple[int, ...], space: Space, models: int = 1) -> int:
    """Floats a stack of pairs on a tree of these alphabet sizes holds at the
    peak of a pair check: its widest windows (0, N] or the joint walk's g_N,
    W = models x num_nodes(N-1) x path_count x dim floats either way, their
    norms W / dim, and one norm block of at most BLOCK_FLOATS floats of W
    with its sums over the innermost d coordinates (d the innermost width of
    the space)."""
    dim = space.dim
    window = models * math.prod(sizes[:-1]) * math.prod(sizes) * dim
    block = min(window, max(1, BLOCK_FLOATS // dim) * dim)
    return window + window // dim + block + block // space.shape[-1][1]


def _norms_in_blocks(space: Space, arr: np.ndarray) -> np.ndarray:
    """space.norms of arr, at most BLOCK_FLOATS floats of arr at a time."""
    flat = arr.reshape(-1, space.dim)
    out = np.empty(len(flat))
    step = max(1, BLOCK_FLOATS // space.dim)
    for start in range(0, len(flat), step):
        out[start:start + step] = space.norms(flat[start:start + step])
    return out.reshape(arr.shape[:-1])


class WindowTable:
    """Conditional p-norms of every window (k, l] of a stack of decoupled
    pairs, built once.

    norms[k, l] holds T_p of the window at each model's depth-(l-1) nodes,
    (models, nodes): (E[ ||sum_{k<m<=l} e_m||^p | F_inf])^(1/p).  Given F_inf
    the e_m are independent with the table rows along the node's history as
    laws, so this is a finite sum over the innovation combos of levels
    k+1..l.  For each start k a forward recursion in l extends the combos by
    one level for every model at once, adding its increments to the window
    sums in level order, so each of the N(N+1)/2 windows is formed once;
    ``windows_built`` counts them.  The growth reads only the tree's shape,
    the tables and the level masses.  The largest windows, (0, N], hold
    W = models x num_nodes(N-1) x path_count x dim floats, and their norms
    W / dim more; the norms are taken in blocks of at most BLOCK_FLOATS
    floats, whose temporaries hold a block and its sums over the innermost
    d coordinates.  Past JOINT_LIMIT floats alive at that peak (pair_floats)
    the table is refused before anything is built.

    atoms[k, l] holds what the good-lambda profile needs of the window that
    does not depend on its threshold A, per model and atom b of F_{k-1} (F_0
    for k <= 1): (win, probs, mass, t_sup), the norm ||f_l - f_k|| (formed
    once per depth-l node from the stack's node_sums) and the mass of each
    path, both (models, atoms, paths per atom), then the atom's
    mass and the largest T_p over its nodes, each (models, atoms).  d_hat is
    each model's largest (E[||f_l - f_k||^p | atom] / E[T_p^p | atom])^(1/p)
    over windows and atoms: NaN if some ratio is inf / inf (large p).
    """

    def __init__(self, stack: PairStack, p: float):
        if stack.mode != "decoupled":
            raise ModelError("conditional window norms need a decoupled pair")
        tree, space, levels = stack.tree, stack.space, stack.level_probs
        depth, dim, models = tree.depth, space.dim, len(stack.tables[0])
        floats = pair_floats(tree.sizes, space, models)
        if floats > JOINT_LIMIT:
            raise EnumerationError(
                f"window table needs {floats} floats, over budget {JOINT_LIMIT}")
        self.tree = tree
        self.windows_built = 0
        self.norms: dict[tuple[int, int], np.ndarray] = {}
        for k in range(depth):
            # window (k, k+1]: the level's own rows, one combo per innovation
            total, probs = stack.tables[k], levels[k]
            for l in range(k + 1, depth + 1):
                if l > k + 1:
                    # node u*a + j at depth l-1 adds its row to the sums of its parent u
                    parents, a = tree.num_nodes(l - 2), tree.sizes[l - 2]
                    rows = stack.tables[l - 1].reshape(models, parents, a, 1, tree.sizes[l - 1],
                                                       dim)
                    total = (total[:, :, None, :, None] + rows).reshape(models, parents * a, -1,
                                                                       dim)
                    probs = (probs[:, :, None] * levels[l - 1][:, None, :]).reshape(len(probs), -1)
                vals = _norms_in_blocks(space, total)
                vals **= p
                # one matrix-vector product per model, as it runs alone
                norms = np.matmul(vals, probs[:, :, None])[:, :, 0] ** (1.0 / p)
                norms.flags.writeable = False
                self.norms[k, l] = norms
                self.windows_built += 1

        sums, path_probs = stack.node_sums, stack.path_probs
        self.atoms: dict[tuple[int, int], tuple] = {}
        ratios = []
        for (k, l), t_nodes in self.norms.items():
            atoms = tree.num_nodes(max(k - 1, 0))
            t_paths = np.repeat(t_nodes, tree.stride(l - 1), axis=-1).reshape(models, atoms, -1)
            # f_l - f_k at the depth-l nodes, each under its depth-k ancestor
            diff = sums[l].reshape(models, tree.num_nodes(k), -1, dim) - sums[k][:, :, None]
            win = np.repeat(space.norms(diff).reshape(models, -1), tree.stride(l),
                            axis=-1).reshape(models, atoms, -1)
            probs = path_probs.reshape(len(path_probs), atoms, -1)
            mass = probs.sum(axis=2)
            t_sup = t_nodes.reshape(models, atoms, -1).max(axis=2)
            # one dot product per model and atom, as each runs alone; an atom
            # of no mass gets zeros, and its readers skip it
            num, den = (np.divide(np.matmul(probs[:, :, None], (x ** p)[..., None])[..., 0, 0],
                                  mass, out=np.zeros((models, atoms)), where=mass > 0)
                        for x in (win, t_paths))
            kept = (mass > 0) & (den > 0)
            ratios.append(np.divide(num, den, out=np.zeros((models, atoms)), where=kept))
            self.atoms[k, l] = (win, probs, mass, t_sup)
        # each ratio's root is taken on its numpy scalar, as the atom alone takes it
        self.d_hat = [np.max([r ** (1.0 / p) for r in row])
                      for row in np.concatenate(ratios, axis=1)]

    @cached_property
    def norm_star(self) -> np.ndarray:
        """T*_p(f) = max_n T_p(f^n) at every path, (models, paths)."""
        out = np.zeros((len(self.norms[0, 1]), self.tree.path_count))
        for n in range(1, self.tree.depth + 1):
            out = np.maximum(out, np.repeat(self.norms[0, n], self.tree.stride(n - 1), axis=-1))
        return out


def require_sign_patterns(tree: FiltrationTree) -> int:
    """The (sign pattern, path) combinations sign_randomized_moments sums
    over, or EnumerationError past JOINT_LIMIT."""
    combos = tree.path_count * 2 ** tree.depth
    if combos > JOINT_LIMIT:
        raise EnumerationError(f"{combos} sign-path combinations exceed budget {JOINT_LIMIT}")
    return combos


def sign_randomized_moments(stack: PathStack, p: float) -> list[float]:
    """E || sum_k eps_k d_k ||^p of each sequence of a stack, over
    independent Rademacher signs, exact.

    Sign pattern s gives level n the sign -1 where bit N-n of s is set, the
    order of itertools.product((1.0, -1.0), repeat=N).  A block of patterns
    is the PathStack of the stack's tables scaled by each pattern's signs,
    one model per (sequence, pattern), and its terminal holds the signed
    sums.  Block rows are counted across the stack: a block holds about
    BLOCK_FLOATS floats of signed sums.  Each sequence's norms are summed
    over the block's patterns on its own contiguous slab, block by block,
    and weighted by its path masses, as for it alone.
    """
    tree, space = stack.tree, stack.space
    depth, paths = tree.depth, tree.path_count
    patterns = require_sign_patterns(tree) // paths
    models = len(stack.tables[0])
    block_rows = max(1, BLOCK_FLOATS // max(1, models * paths * space.dim))
    bits = np.arange(depth - 1, -1, -1)
    totals = np.zeros((models, paths))
    for start in range(0, patterns, block_rows):
        index = np.arange(start, min(start + block_rows, patterns))
        signs = 1.0 - 2.0 * (index[:, None] >> bits & 1)
        # the signed stack lives only while its sums are normed
        values = space.norms(PathStack(tree, space, [
            (table[:, None] * signs[:, n, None, None, None]).reshape(-1, *table.shape[1:])
            for n, table in enumerate(stack.tables)]).terminal) ** p
        for total, slab in zip(totals, values.reshape(models, -1, paths)):
            total += np.sum(slab, axis=0)
    return [float((total / 2 ** depth) @ probs)
            for total, probs in zip(totals, np.broadcast_to(stack.path_probs, totals.shape))]


@dataclass(frozen=True)
class SampleBatch:
    """Monte Carlo draws of (f_N, g_N) from the joint law of a tangent pair."""

    f_terminal: np.ndarray
    g_terminal: np.ndarray


def sample_paths(pair: TangentPair, count: int, seed: int) -> SampleBatch:
    """Draw (f_N, g_N) replicas.

    Replica r is deterministic given (seed, r): draws come from the stream of
    chunk r // rng.CHUNK, with the fixed order "all first-coordinate levels,
    then all second-coordinate levels" inside a chunk.  g_N adds the rows
    e_rows gives at the replica's first-coordinate head and its omega~ node.
    """
    seq, tree = pair.seq, pair.tree
    dim, depth = seq.dim, tree.depth
    f_terminal = np.zeros((count, dim))
    g_terminal = np.zeros((count, dim))
    for start, stop, gen in rng.chunk_streams(seed, "sample-paths", count):
        rows = stop - start
        picks = [gen.choice(tree.sizes[n - 1], size=rows, p=tree.levels[n - 1].probs)
                 for n in range(1, depth + 1)]
        picks_t = [gen.choice(tree.sizes[n - 1], size=rows, p=tree.levels[n - 1].probs)
                   for n in range(1, depth + 1)]
        f = f_terminal[start:stop]
        g = g_terminal[start:stop]
        node = np.zeros(rows, dtype=np.int64)
        for n in range(1, depth + 1):
            node = node * tree.sizes[n - 1] + picks[n - 1]
            f += seq.increments(n)[node]
        head = tree.ancestor(node, depth, depth - 1)
        # digit-reversed position of the replica's depth-(n-1) omega~ node
        position = np.zeros(rows, dtype=np.int64)
        for n in range(1, depth + 1):
            parents = tree.num_nodes(n - 1)
            table_rows = np.broadcast_to(e_rows(tree, pair.mode, head, n), (rows, parents))
            row = table_rows[np.arange(rows), position]
            g += seq.increments(n)[row * tree.sizes[n - 1] + picks_t[n - 1]]
            position += picks_t[n - 1] * parents
    return SampleBatch(f_terminal, g_terminal)


# ---------------------------------------------------------------------------
# randomized model builders (shared by CLI suites, tests, acceptance runs)

MULT_ALPHABET = (1.0, -1.0, 2.0, -2.0, 0.5, -0.5)
# Draw tables: gen.choice(table, size), with replacement and no weights, is
# table[gen.integers(0, len(table), size)], the same draws from the same
# stream without choice's generic front end.
_MULTS = np.array(MULT_ALPHABET)
_DRIFTS = np.array((0.0, 0.5, -0.5, 1.0))
_SCALES = (1.0, math.sqrt(3.0), 2.0)
_CENTERS = (0.5, 2.0 / 3.0)


FAIR_SIGNS = Level((1.0, -1.0), (0.5, 0.5))


@lru_cache(maxsize=None)
def _three_point(scale: float, center: float) -> Level:
    """The symmetric law of -scale, 0 and scale with mass center at 0, built
    once per (scale, center): random_tree draws a handful of them."""
    side = (1.0 - center) / 2.0
    return Level((-scale, 0.0, scale), (side, center, side))


def random_tree(gen: np.random.Generator, max_depth: int,
                symmetric: bool = True) -> FiltrationTree:
    """Depth 1..max_depth; symmetric levels are fair signs or three-point laws."""
    depth = int(gen.integers(1, max_depth + 1))
    levels = []
    for _ in range(depth):
        if symmetric:
            if gen.random() < 0.5:
                scale = _SCALES[gen.integers(0, len(_SCALES))]
                levels.append(_three_point(scale, _CENTERS[gen.integers(0, len(_CENTERS))]))
            else:
                levels.append(FAIR_SIGNS)
        else:
            a, b = sorted(gen.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0],
                                     size=2, replace=False))
            pi = float(gen.uniform(0.2, 0.8))
            levels.append(Level((float(a), float(b)), (pi, 1.0 - pi)))
    return FiltrationTree(levels)


def random_multiplier_sequence(gen: np.random.Generator, tree: FiltrationTree,
                               space: Space) -> AdaptedSequence:
    """Random predictable multiplier rule; conditionally symmetric whenever the
    innovation alphabets are symmetric.  A tree whose increment tables need
    more than JOINT_LIMIT floats is refused before anything is drawn."""
    floats = sum(tree.num_nodes(n) for n in range(1, tree.depth + 1)) * space.dim
    if floats > JOINT_LIMIT:
        raise EnumerationError(f"increment tables need {floats} floats, over budget {JOINT_LIMIT}")
    multipliers = []
    for n in range(1, tree.depth + 1):
        picks = gen.integers(0, len(_MULTS), size=(tree.num_nodes(n - 1), space.dim))
        multipliers.append(_MULTS[picks])
    return AdaptedSequence.from_multipliers(tree, space, multipliers)


def random_general_sequence(gen: np.random.Generator, tree: FiltrationTree,
                            space: Space) -> AdaptedSequence:
    """Multiplier rule plus a predictable drift; generally not symmetric."""
    base = random_multiplier_sequence(gen, tree, space)
    tables = []
    for n in range(1, tree.depth + 1):
        picks = gen.integers(0, len(_DRIFTS), size=(tree.num_nodes(n - 1), 1, space.dim))
        tables.append(base.tables[n - 1] + _DRIFTS[picks])
    return AdaptedSequence(tree, space, tables)


def random_pair(gen: np.random.Generator, space: Space, max_depth: int,
                symmetric: bool = True) -> TangentPair:
    tree = random_tree(gen, max_depth, symmetric=symmetric)
    if symmetric:
        seq = random_multiplier_sequence(gen, tree, space)
    else:
        seq = random_general_sequence(gen, tree, space)
    return decouple(seq)
