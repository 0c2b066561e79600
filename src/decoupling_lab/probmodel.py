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

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from . import rng
from .spaces import Space, format_space, parse_space

# Largest mass gap at which two finite laws count as equal.
LAW_TOL = 1e-12
# Hard ceiling on exact product-space enumeration (outcome pairs).
JOINT_LIMIT = 10_000_000
# Floats held by one block of an exact enumerator (joint_blocks, sign patterns).
BLOCK_FLOATS = 2_000_000
# Joint-space floats (candidates x heads x paths x dim) one batched evaluation
# of several models on one tree may hold; a larger model runs as a batch of one.
BATCH_FLOATS = 65_536


class EnumerationError(RuntimeError, ValueError):
    """Exact enumeration would exceed JOINT_LIMIT outcomes.  A ValueError too:
    the limit refuses a configuration, which the CLI reports with exit 2."""


class ModelError(ValueError):
    pass


def atom_ids(vectors) -> np.ndarray:
    """The exact atom id of each row of a (count, width) batch of vectors.

    Rows share an id when their bytes after + 0.0 agree, so 0.0 and -0.0 are
    one atom, and so are NaNs with one payload; ids run 0.. in byte order.
    Masses are np.bincount(ids, weights=probs), which adds them in input order.
    """
    rows = np.ascontiguousarray(vectors, dtype=float) + 0.0
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)
    return np.unique(keys, return_inverse=True)[1]


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

    def nodes_at(self, n: int) -> np.ndarray:
        """Depth-n node id of every path, shape (path_count,)."""
        return np.arange(self.path_count, dtype=np.int64) // self.stride(n)

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
        probs = np.ones(1)
        for level in self.levels[:n]:
            probs = np.multiply.outer(probs, level.probs).reshape(-1)
        return probs


def paley_walsh(depth: int) -> FiltrationTree:
    """Dyadic Rademacher tree: +-1 innovations, probability 1/2 each."""
    return FiltrationTree([Level((1.0, -1.0), (0.5, 0.5)) for _ in range(depth)])


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

    def path_increments(self, n: int) -> np.ndarray:
        return self.increments(n)[self.tree.nodes_at(n)]

    @cached_property
    def partial_sums(self) -> np.ndarray:
        """f_0..f_N per path, shape (path_count, depth+1, dim)."""
        out = np.zeros((self.tree.path_count, self.depth + 1, self.dim))
        for n in range(1, self.depth + 1):
            out[:, n] = out[:, n - 1] + self.path_increments(n)
        return out

    @property
    def terminal(self) -> np.ndarray:
        return self.partial_sums[:, self.depth]

    @cached_property
    def increment_norms(self) -> np.ndarray:
        """||d_n|| per path, shape (path_count, depth+1); column 0 is zero."""
        out = np.zeros((self.tree.path_count, self.depth + 1))
        for n in range(1, self.depth + 1):
            out[:, n] = self.space.norms(self.path_increments(n))
        return out

    @cached_property
    def partial_sum_norms(self) -> np.ndarray:
        """||f_0||..||f_N|| per path, shape (path_count, depth+1)."""
        return self.space.norms(self.partial_sums)

    @cached_property
    def f_star(self) -> np.ndarray:
        """max_n ||f_n|| per path."""
        return self.partial_sum_norms.max(axis=1)

    @cached_property
    def d_star(self) -> np.ndarray:
        """max_n ||d_n|| per path."""
        return self.increment_norms.max(axis=1)

    def terminal_moment(self, p: float) -> float:
        return terminal_moments(self.tree, self.space, [t[None] for t in self.tables], p)[0]

    def is_conditionally_symmetric(self) -> bool:
        """True when every conditional increment law is negation-invariant."""
        for level, table in zip(self.tree.levels, self.tables):
            probs = np.broadcast_to(level.probs, table.shape[:2])
            if (symmetry_gaps(table, probs) > LAW_TOL).any():
                return False
        return True


def multiplier_tables(tree: FiltrationTree, multipliers) -> list[np.ndarray]:
    """Increment tables d_n = xi_n * v_n of multiplier arrays shaped
    (..., num_nodes(n-1), dim); the leading axes carry over to the tables."""
    return [level.values[:, None] * mult[..., None, :]
            for level, mult in zip(tree.levels, multipliers)]


def terminal_moments(tree: FiltrationTree, space: Space, tables, p: float) -> list[float]:
    """E ||f_N||^p of each of a batch of sequences on one tree.

    tables[n-1] has shape (batch, num_nodes(n-1), a_n, dim).  f_n grows
    level by level along the tree, once per depth-n node, into C-ordered
    arrays, so each sequence's norms and path-weighted sum (one contiguous row)
    are formed as for it alone and its value does not depend on the batch.
    """
    batch, dim = len(tables[0]), space.dim
    f = np.zeros((batch, 1, dim))
    for n, table in enumerate(tables, start=1):
        f = (f[:, :, None, :] + table).reshape(batch, tree.num_nodes(n), dim)
    values = space.norms(f) ** p
    return [float(tree.path_probs @ row) for row in values]


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
        self._window_tables: dict[float, WindowTable] = {}

    @property
    def tree(self) -> FiltrationTree:
        return self.seq.tree

    @property
    def space(self) -> Space:
        return self.seq.space

    def window_table(self, p: float) -> "WindowTable":
        """The conditional window table at exponent p, built on first use."""
        table = self._window_tables.get(p)
        if table is None:
            table = self._window_tables[p] = WindowTable(self, p)
        return table


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


def _head_groups(tree: FiltrationTree, mode: str) -> list[np.ndarray]:
    """The depth-(N-1) heads, grouped by the rows e_rows gives them at every
    level and omega~ node (one law of (e_1..e_N) given F_inf per group), less
    the heads that read their own depth-(n-1) ancestor's row (tree.ancestor)
    everywhere: e_n then has d_n's row law on the n-th omega~ letter alone,
    independent across n, exactly.  Refused past the joint walk budget."""
    require_joint_walk(tree, mode)
    depth = tree.depth
    heads = np.arange(tree.num_nodes(depth - 1))
    other = np.zeros(len(heads), dtype=bool)
    for n in range(1, depth + 1):
        rows = e_rows(tree, mode, heads, n)
        anc = tree.ancestor(heads, depth - 1, n - 1)
        other |= (rows.min(axis=1) != anc) | (rows.max(axis=1) != anc)
    heads = heads[other]
    group = np.zeros(len(heads), dtype=np.int64)
    for n in range(1, depth + 1):
        rows = e_rows(tree, mode, heads, n)
        if len(rows) > 1:
            # this level tells heads apart: split the groups by its rows
            group = np.unique(np.column_stack([group, rows]), axis=0,
                              return_inverse=True)[1].reshape(-1)
    return [heads[group == g] for g in np.unique(group)]


def _e_values(seq: AdaptedSequence, mode: str, head: int, n: int) -> np.ndarray:
    """e_n at each depth-n omega~ node, natural node order, given one head."""
    tree = seq.tree
    rows = np.empty(tree.num_nodes(n - 1), dtype=np.int64)
    rows[tree.digit_reversed[n - 1]] = e_rows(tree, mode, np.array([head]), n)[0]
    return seq.tables[n - 1][rows].reshape(-1, seq.dim)


def verify_tangent_pair(pair: TangentPair) -> tuple[CheckResult, CheckResult]:
    """verify_tangency and verify_conditional_independence of the pair, on
    one _head_groups of its tree and mode."""
    groups = _head_groups(pair.tree, pair.mode)
    return verify_tangency(pair, groups), verify_conditional_independence(pair, groups)


def verify_tangency(pair: TangentPair, groups: list[np.ndarray] | None = None) -> CheckResult:
    """Check L(e_n | F_inf) = L(d_n | F_{n-1}) on every atom, every level.

    The law of d_n on a depth-(n-1) atom is the increment table row; that of
    e_n given a path mixes, by omega~ node mass, the rows e_rows gives the
    joint engine at the path's head.  Heads that read their own ancestors'
    rows have a gap of exactly 0.0 and are skipped (_head_groups, or
    ``groups`` when given), so a correct decoupled pair gives 0.0.  Laws are
    finite measures on exact atoms (atom_ids) with float masses, equal when no
    mass differs by more than LAW_TOL.  Each level's e-law and rows share one
    set of atom ids.
    """
    seq, tree = pair.seq, pair.tree
    worst = 0.0
    for members in _head_groups(tree, pair.mode) if groups is None else groups:
        for n in range(1, tree.depth + 1):
            e_values = _e_values(seq, pair.mode, members[0], n)
            rows = seq.tables[n - 1][np.unique(tree.ancestor(members, tree.depth - 1, n - 1))]
            ids = atom_ids(np.concatenate([e_values, rows.reshape(-1, seq.dim)]))
            count = int(ids.max()) + 1
            e_law = np.bincount(ids[:len(e_values)], tree.node_probs(n), count)
            for row_ids in ids[len(e_values):].reshape(len(rows), -1):
                d_law = np.bincount(row_ids, tree.levels[n - 1].probs, count)
                worst = max(worst, float(np.max(np.abs(d_law - e_law))))
    return CheckResult(worst <= LAW_TOL, worst, "tangency")


def verify_conditional_independence(pair: TangentPair,
                                    groups: list[np.ndarray] | None = None) -> CheckResult:
    """Check that the joint law of (e_1..e_N) given F_inf, along every omega~
    path from the rows e_rows gives the joint engine, is the product of its
    marginals, once per head group (_head_groups, or ``groups`` when given; a
    correct decoupled pair has none, so its gap is exactly 0.0).  The joint
    law is compared on the dense grid of all combinations of the levels' atom
    ids."""
    seq, tree = pair.seq, pair.tree
    worst = 0.0
    for members in _head_groups(tree, pair.mode) if groups is None else groups:
        ids = [atom_ids(_e_values(seq, pair.mode, members[0], n)[tree.nodes_at(n)])
               for n in range(1, tree.depth + 1)]
        masses = [np.bincount(level_ids, tree.path_probs) for level_ids in ids]
        shape = tuple(len(m) for m in masses)
        if math.prod(shape) > JOINT_LIMIT:
            raise EnumerationError("factorization grid too large")
        product = reduce(np.multiply.outer, masses).reshape(-1)
        joint = np.bincount(np.ravel_multi_index(ids, shape), tree.path_probs, len(product))
        worst = max(worst, float(np.max(np.abs(joint - product))))
    return CheckResult(worst <= LAW_TOL, worst, "conditional independence")


def davis_split(pair: TangentPair) -> tuple[TangentPair, TangentPair]:
    """Split into small-increment and large-increment parts.

    Level n keeps d_n in the small part when ||d_n|| <= 2 d*_{n-1} (so the
    small part is predictably dominated); level 1 goes entirely to the large
    part.  The tangent copies split with the same indicator evaluated on the
    copy's own increment norm against the first coordinate's d*_{n-1}, which
    is exactly what replaying the split tables does.
    """
    seq = pair.seq
    small_tables, big_tables = [], []
    d_star = np.zeros(1)  # d*_{n-1} per depth-(n-1) node
    for n, table in enumerate(seq.tables, start=1):
        norms = seq.space.norms(table)  # (parents, a_n)
        if n == 1:
            small_tables.append(np.zeros_like(table))
            big_tables.append(table.copy())
        else:
            keep = (norms <= 2.0 * d_star[:, None]).astype(float)[:, :, None]
            small_tables.append(table * keep)
            big_tables.append(table * (1.0 - keep))
        d_star = np.maximum(d_star[:, None], norms).reshape(-1)
    small = AdaptedSequence(seq.tree, seq.space, small_tables)
    big = AdaptedSequence(seq.tree, seq.space, big_tables)
    return TangentPair(small, pair.mode), TangentPair(big, pair.mode)


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


def batched_joint_blocks(tree: FiltrationTree, space: Space, tables, mode: str = "decoupled",
                         stats=JOINT_STATS, block_rows: int | None = None):
    """The exact joint engine for a batch of sequences on one tree.

    tables[n-1] has shape (batch, num_nodes(n-1), a_n, dim).  The g side reads
    the first coordinate only through the table rows e_rows picks: through the
    depth-(N-1) prefix in decoupled mode, not at all in copy mode.  So the
    heads are the depth-(N-1) nodes (decoupled) or the root alone (copy), each
    weighted by the mass of the paths under it, and every head meets every
    second-coordinate path.

    Yields (weights, stats): weights (rows, paths) is the joint mass of each
    (head, omega~) outcome, summing to one over all blocks and shared by the
    batch; stats holds only the requested statistics, each shaped
    (batch, rows, paths): g_norm (||g_N||) and e_star.  Block rows are
    counted across the batch: a block holds about BLOCK_FLOATS floats of g_N.

    Within a block g grows level by level along the omega~ tree, so each
    partial sum g_n is formed once per depth-n node, elementwise and for each
    sequence as for it alone.  g is laid out dim-major, (batch, rows, dim,
    nodes), with the omega~ nodes in digit-reversed order
    (FiltrationTree.digit_reversed), so each level is one C-ordered broadcast
    add whose inner loop runs over the nodes, and Space.norms folds the
    coordinates over contiguous slabs.  The statistics are put back in the
    natural path order before they are yielded, so every value is the one
    the natural layout gives, bit for bit.
    """
    unknown = set(stats) - set(JOINT_STATS)
    if unknown:
        raise ValueError(f"unknown joint statistics {sorted(unknown)}")
    depth, dim, paths = tree.depth, space.dim, tree.path_count
    heads = require_joint_walk(tree, mode) // paths
    head_probs = tree.node_probs(depth - 1) if mode == "decoupled" else np.ones(1)
    batch = len(tables[0])
    if block_rows is None:
        block_rows = max(1, min(heads, BLOCK_FLOATS // max(1, batch * paths * dim)))
    for start in range(0, heads, block_rows):
        block = np.arange(start, min(start + block_rows, heads))
        rows = len(block)
        # statistics at the depth-n nodes of the omega~ tree, n = 0 first
        g = np.zeros((batch, rows, dim, 1))
        e_star = np.zeros((batch, rows, 1))
        for n in range(1, depth + 1):
            # inc is (batch, rows or 1, a_n, parents or 1, dim); child j*parents + q
            # of omega~ node q adds innovation j
            inc = tables[n - 1][:, e_rows(tree, mode, block, n)].swapaxes(2, 3)
            if "g_norm" in stats:
                g = np.add(g[:, :, :, None, :], inc.transpose(0, 1, 4, 2, 3),
                           order="C").reshape(batch, rows, dim, -1)
            if "e_star" in stats:
                e_star = np.maximum(e_star[:, :, None, :], space.norms(inc),
                                    order="C").reshape(batch, rows, tree.num_nodes(n))
        out = {"e_star": e_star}
        if "g_norm" in stats:
            out["g_norm"] = space.norms(g.swapaxes(2, 3))
        weights = head_probs[block, None] * tree.path_probs[None, :]
        yield weights, {key: out[key][..., tree.from_digit_reversed] for key in stats}


def joint_blocks(pair: TangentPair, stats=JOINT_STATS, block_rows: int | None = None):
    """batched_joint_blocks for one pair: the same blocks with the batch axis dropped."""
    tables = [t[None] for t in pair.seq.tables]
    for weights, out in batched_joint_blocks(pair.tree, pair.space, tables, pair.mode,
                                             stats, block_rows):
        yield weights, {key: value[0] for key, value in out.items()}


def g_terminal_moments(tree: FiltrationTree, space: Space, tables, p: float,
                       mode: str = "decoupled") -> list[float]:
    """E ||g_N||^p of each of a batch of sequences, exact: one norm per
    (head, omega~) outcome, each sequence's blocks summed as for it alone (its
    own reduction over a contiguous (rows, paths) slab)."""
    totals = [0.0] * len(tables[0])
    for weights, stats in batched_joint_blocks(tree, space, tables, mode, ("g_norm",)):
        weighted = weights * stats["g_norm"] ** p
        for b, row in enumerate(weighted):
            totals[b] += float(np.add.reduce(row, axis=None))
    return totals


def g_terminal_moment(pair: TangentPair, p: float) -> float:
    """E ||g_N||^p of one pair, the batch of one of g_terminal_moments."""
    return g_terminal_moments(pair.tree, pair.space, [t[None] for t in pair.seq.tables],
                              p, pair.mode)[0]


class WindowTable:
    """Conditional p-norms of every window (k, l] of a decoupled pair, built once.

    norms[k, l] holds T_p of the window at each depth-(l-1) node,
    (E[ ||sum_{k<m<=l} e_m||^p | F_inf])^(1/p): given F_inf the e_m are
    independent with the table rows along the node's history as laws, so this
    is a finite sum over the innovation combos of levels k+1..l.  For each
    start k a forward recursion in l extends the combos by one level, adding
    its increments to the window sums in level order, so each of the
    N(N+1)/2 windows is formed once; ``windows_built`` counts them.  The
    largest window, (0, N], holds W = num_nodes(N-1) x path_count x dim
    floats, and norming it holds W more and W / d innermost sums (d the
    innermost width of the space); past JOINT_LIMIT floats alive at that peak
    the table is refused before anything is built.

    atoms[k, l] holds what the good-lambda profile needs of the window that
    does not depend on its threshold A, per atom b of F_{k-1} (F_0 for k <= 1):
    ``win``, the norm ||f_l - f_k|| of each path, and ``probs``, the path
    masses, both shaped (atoms, paths per atom); and one (b, mass, t_sup, num)
    per atom, with t_sup the largest T_p over the atom's nodes and num the
    conditional E ||f_l - f_k||^p.  d_hat is the largest conditional ratio
    (num / E[T_p^p | atom])^(1/p) over windows and atoms.
    """

    def __init__(self, pair: TangentPair, p: float):
        if pair.mode != "decoupled":
            raise ModelError("conditional window norms need a decoupled pair")
        seq, tree = pair.seq, pair.tree
        depth, dim, space = seq.depth, seq.dim, seq.space
        # the (0, N] window, a |x| or x^2 temporary as large, and its innermost sums
        window = tree.num_nodes(depth - 1) * tree.path_count * dim
        floats = 2 * window + window // space.shape[-1][1]
        if floats > JOINT_LIMIT:
            raise EnumerationError(
                f"window table needs {floats} floats, over budget {JOINT_LIMIT}")
        self.windows_built = 0
        self.norms: dict[tuple[int, int], np.ndarray] = {}
        for k in range(depth):
            # window (k, k+1]: the level's own rows, one combo per innovation
            total, probs = seq.tables[k], tree.levels[k].probs
            for l in range(k + 1, depth + 1):
                if l > k + 1:
                    # node u*a + j at depth l-1 adds its row to the sums of its parent u
                    parents, a = tree.num_nodes(l - 2), tree.sizes[l - 2]
                    rows = seq.tables[l - 1].reshape(parents, a, 1, tree.sizes[l - 1], dim)
                    total = (total[:, None, :, None] + rows).reshape(parents * a, -1, dim)
                    probs = np.multiply.outer(probs, tree.levels[l - 1].probs).reshape(-1)
                vals = space.norms(total) ** p @ probs
                norms = vals ** (1.0 / p)
                norms.flags.writeable = False
                self.norms[k, l] = norms
                self.windows_built += 1

        sums, path_probs = seq.partial_sums, tree.path_probs
        self.atoms: dict[tuple[int, int], tuple] = {}
        d_hat = 0.0
        for (k, l), t_nodes in self.norms.items():
            t_paths = t_nodes[tree.nodes_at(l - 1)]
            win = space.norms(sums[:, l] - sums[:, k])
            atoms = tree.num_nodes(max(k - 1, 0))
            stride = tree.path_count // atoms
            node_stride = tree.num_nodes(l - 1) // atoms
            stats = []
            for b in range(atoms):
                rows = slice(b * stride, (b + 1) * stride)
                pb = path_probs[rows]
                mass = pb.sum()
                if mass <= 0:
                    continue
                t_sup = float(t_nodes[b * node_stride:(b + 1) * node_stride].max())
                num = float(pb @ (win[rows] ** p)) / mass
                den = float(pb @ (t_paths[rows] ** p)) / mass
                d_hat = max(d_hat, (num / den) ** (1.0 / p) if den > 0 else 0.0)
                stats.append((b, mass, t_sup, num))
            self.atoms[k, l] = (win.reshape(atoms, stride),
                                path_probs.reshape(atoms, stride), stats)
        self.d_hat = d_hat


def require_sign_patterns(tree: FiltrationTree) -> int:
    """The (sign pattern, path) combinations sign_randomized_moment sums over,
    or EnumerationError past JOINT_LIMIT."""
    combos = tree.path_count * 2 ** tree.depth
    if combos > JOINT_LIMIT:
        raise EnumerationError(f"{combos} sign-path combinations exceed budget")
    return combos


def sign_randomized_moment(seq: AdaptedSequence, p: float) -> float:
    """E || sum_k eps_k d_k ||^p over independent Rademacher signs, exact.

    The 2^N sign patterns are taken in blocks of about BLOCK_FLOATS floats.
    """
    n, paths = seq.depth, seq.tree.path_count
    require_sign_patterns(seq.tree)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    incs = [seq.path_increments(m) for m in range(1, n + 1)]
    rows = max(1, BLOCK_FLOATS // max(1, paths * seq.dim))
    total = np.zeros(paths)
    for start in range(0, 2 ** n, rows):
        block = signs[start:start + rows]
        sums = np.zeros((len(block), paths, seq.dim))
        for m, inc in enumerate(incs):
            sums += block[:, m, None, None] * inc[None, :, :]
        total += np.sum(seq.space.norms(sums) ** p, axis=0)
    return float((total / 2 ** n) @ seq.tree.path_probs)


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


def random_tree(gen: np.random.Generator, max_depth: int,
                symmetric: bool = True) -> FiltrationTree:
    """Depth 1..max_depth; symmetric levels are fair signs or three-point laws."""
    depth = int(gen.integers(1, max_depth + 1))
    levels = []
    for _ in range(depth):
        if symmetric:
            if gen.random() < 0.5:
                scale = float(gen.choice([1.0, math.sqrt(3.0), 2.0]))
                center = float(gen.choice([0.5, 2.0 / 3.0]))
                side = (1.0 - center) / 2.0
                levels.append(Level((-scale, 0.0, scale), (side, center, side)))
            else:
                levels.append(Level((1.0, -1.0), (0.5, 0.5)))
        else:
            a, b = sorted(gen.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0],
                                     size=2, replace=False))
            pi = float(gen.uniform(0.2, 0.8))
            levels.append(Level((float(a), float(b)), (pi, 1.0 - pi)))
    return FiltrationTree(levels)


def random_multiplier_sequence(gen: np.random.Generator, tree: FiltrationTree,
                               space: Space) -> AdaptedSequence:
    """Random predictable multiplier rule; conditionally symmetric whenever the
    innovation alphabets are symmetric."""
    multipliers = []
    for n in range(1, tree.depth + 1):
        mult = gen.choice(MULT_ALPHABET, size=(tree.num_nodes(n - 1), space.dim))
        multipliers.append(mult)
    return AdaptedSequence.from_multipliers(tree, space, multipliers)


def random_general_sequence(gen: np.random.Generator, tree: FiltrationTree,
                            space: Space) -> AdaptedSequence:
    """Multiplier rule plus a predictable drift; generally not symmetric."""
    base = random_multiplier_sequence(gen, tree, space)
    tables = []
    for n in range(1, tree.depth + 1):
        drift = gen.choice((0.0, 0.5, -0.5, 1.0), size=(tree.num_nodes(n - 1), 1, space.dim))
        tables.append(base.tables[n - 1] + drift)
    return AdaptedSequence(tree, space, tables)


def random_pair(gen: np.random.Generator, space: Space, max_depth: int,
                symmetric: bool = True) -> TangentPair:
    tree = random_tree(gen, max_depth, symmetric=symmetric)
    if symmetric:
        seq = random_multiplier_sequence(gen, tree, space)
    else:
        seq = random_general_sequence(gen, tree, space)
    return decouple(seq)
