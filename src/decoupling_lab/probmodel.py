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
across n given the full first-coordinate path.

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
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from . import rng
from .spaces import Space, format_space, parse_space

# Hard ceiling on exact product-space enumeration (outcome pairs).
JOINT_LIMIT = 10_000_000
# Floats held by one block of an exact enumerator (joint_blocks, sign patterns).
BLOCK_FLOATS = 2_000_000


class EnumerationError(RuntimeError):
    """Exact enumeration would exceed JOINT_LIMIT outcomes."""


class ModelError(ValueError):
    pass


def _value_tuple(value):
    if isinstance(value, (int, float)):
        return float(value)
    return tuple(float(v) for v in value)


def _atom(vec) -> bytes:
    """Exact label of a vector atom; 0.0 and -0.0 share one label."""
    return (np.asarray(vec) + 0.0).tobytes()


def _merge_law(vectors, probs) -> dict:
    """A finite law as {atom label: mass}; masses add up in input order."""
    masses: dict[bytes, object] = {}
    for vec, p in zip(vectors, probs):
        key = _atom(vec)
        masses[key] = masses.get(key, 0 * p) + p
    return masses


def _law_gap(law_a: dict, law_b: dict) -> float:
    keys = set(law_a) | set(law_b)
    return max(float(abs(law_a.get(k, 0) - law_b.get(k, 0))) for k in keys)


def _law_ids(vectors, probs) -> tuple[np.ndarray, np.ndarray]:
    """Atom id of every vector and the mass of every atom, ids in first-seen order."""
    law = _merge_law(vectors, probs)
    index = {key: i for i, key in enumerate(law)}
    return np.array([index[_atom(v)] for v in vectors]), np.array(list(law.values()))


def symmetry_gap(vectors, probs) -> float:
    """Largest mass gap between the law of the vectors and that of their negatives."""
    vectors = np.asarray(vectors)
    return _law_gap(_merge_law(vectors, probs), _merge_law(-vectors, probs))


@dataclass(frozen=True)
class Level:
    """One innovation level: a finite alphabet with probabilities.

    probs_exact optionally carries the same probabilities as Fractions, which
    switches tangency verification to exact rational arithmetic.
    """

    values: tuple
    probs: tuple
    probs_exact: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(_value_tuple(v) for v in self.values))
        object.__setattr__(self, "probs", tuple(float(p) for p in self.probs))
        if len(self.values) != len(self.probs) or not self.values:
            raise ModelError("values and probs must be non-empty and aligned")
        if any(p <= 0 for p in self.probs):
            raise ModelError("probabilities must be strictly positive")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            raise ModelError("probabilities must sum to one")
        if self.probs_exact is not None:
            exact = tuple(Fraction(p) for p in self.probs_exact)
            if len(exact) != len(self.values) or sum(exact) != 1:
                raise ModelError("exact probabilities must match and sum to one")
            object.__setattr__(self, "probs_exact", exact)

    @property
    def size(self) -> int:
        return len(self.values)


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

    def level_probs(self, n: int) -> np.ndarray:
        return np.array(self.levels[n - 1].probs, dtype=float)

    @cached_property
    def path_probs(self) -> np.ndarray:
        probs = np.ones(1)
        for level in self.levels:
            probs = np.multiply.outer(probs, np.array(level.probs)).reshape(-1)
        return probs

    def node_probs(self, n: int) -> np.ndarray:
        probs = np.ones(1)
        for level in self.levels[:n]:
            probs = np.multiply.outer(probs, np.array(level.probs)).reshape(-1)
        return probs

    @property
    def exact(self) -> bool:
        return all(level.probs_exact is not None for level in self.levels)

    def node_probs_exact(self, n: int) -> list[Fraction]:
        probs = [Fraction(1)]
        for level in self.levels[:n]:
            probs = [p * q for p in probs for q in level.probs_exact]
        return probs


def paley_walsh(depth: int, exact: bool = False) -> FiltrationTree:
    """Dyadic Rademacher tree: +-1 innovations, probability 1/2 each."""
    half = (Fraction(1, 2), Fraction(1, 2)) if exact else None
    return FiltrationTree([Level((1.0, -1.0), (0.5, 0.5), half) for _ in range(depth)])


def symmetric_three_point(depth: int, scale: float = math.sqrt(3.0),
                          center_mass: float = 2.0 / 3.0) -> FiltrationTree:
    """Symmetric three-point innovations; defaults match Gaussian moments to order 5."""
    side = (1.0 - center_mass) / 2.0
    level = Level((-scale, 0.0, scale), (side, center_mass, side))
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
        tables = []
        for n in range(1, tree.depth + 1):
            level = tree.levels[n - 1]
            values = np.array(level.values, dtype=float)
            if values.ndim != 1:
                raise ModelError("multiplier sequences need scalar innovations")
            mult = np.asarray(multipliers[n - 1], dtype=float)
            if mult.shape != (tree.num_nodes(n - 1), space.dim):
                raise ModelError(f"multiplier {n} has shape {mult.shape}")
            tables.append(values[None, :, None] * mult[:, None, :])
        return cls(tree, space, tables)

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
    def f_star(self) -> np.ndarray:
        """max_n ||f_n|| per path."""
        return self.space.norms(self.partial_sums).max(axis=1)

    @cached_property
    def d_star(self) -> np.ndarray:
        """max_n ||d_n|| per path."""
        return self.increment_norms.max(axis=1)

    def node_d_star(self, n: int) -> np.ndarray:
        """Running max of increment norms as a depth-n node function."""
        out = np.zeros(1)
        for m in range(1, n + 1):
            norms = self.space.norms(self.increments(m))
            out = np.maximum(np.repeat(out, self.tree.sizes[m - 1]), norms)
        return out

    def terminal_moment(self, p: float) -> float:
        return float(self.tree.path_probs @ self.space.norms(self.terminal) ** p)

    def is_conditionally_symmetric(self, tol: float = 1e-12) -> bool:
        """True when every conditional increment law is negation-invariant."""
        for n, table in enumerate(self.tables, start=1):
            probs = self.tree.level_probs(n)
            if any(symmetry_gap(row, probs) > tol for row in table):
                return False
        return True


def sequence_spec(seq: AdaptedSequence) -> dict:
    """Plain-data description of a sequence, suitable for JSON round trips."""
    levels = []
    for level in seq.tree.levels:
        entry = {
            "values": [list(v) if isinstance(v, tuple) else v for v in level.values],
            "probs": list(level.probs),
        }
        if level.probs_exact is not None:
            entry["probs_exact"] = [
                f"{p.numerator}/{p.denominator}" for p in level.probs_exact
            ]
        levels.append(entry)
    return {
        "space": format_space(seq.space),
        "levels": levels,
        "tables": [t.tolist() for t in seq.tables],
    }


def sequence_from_spec(spec: dict) -> AdaptedSequence:
    """Rebuild a sequence from the output of sequence_spec."""
    levels = []
    for entry in spec["levels"]:
        exact = entry.get("probs_exact")
        levels.append(
            Level(
                tuple(tuple(v) if isinstance(v, list) else v for v in entry["values"]),
                tuple(entry["probs"]),
                tuple(Fraction(s) for s in exact) if exact is not None else None,
            )
        )
    return AdaptedSequence(
        FiltrationTree(levels), parse_space(spec["space"]), spec["tables"]
    )


class TangentPair:
    """An adapted sequence together with its tangent copy.

    mode "decoupled" is the canonical construction (same increment tables,
    independent innovation coordinate); mode "copy" replays the whole sequence
    on the second coordinate (a full independent copy, which is *not* a
    decoupled tangent sequence once predictable data varies) and exists so the
    verifiers have something to reject.
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

    def joint_outcomes(self) -> int:
        return self.tree.path_count ** 2

    def require_enumerable(self):
        if self.joint_outcomes() > JOINT_LIMIT:
            raise EnumerationError(
                f"{self.joint_outcomes()} joint outcomes exceed budget {JOINT_LIMIT}")

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


def verify_tangency(pair: TangentPair, tol: float = 1e-12) -> CheckResult:
    """Check L(e_n | F_inf) = L(d_n | F_{n-1}) on every atom, every level.

    The conditional law of d_n on a depth-(n-1) atom is read off the increment
    table row; the conditional law of e_n given a full path is rebuilt from the
    pair's mode.  Laws are compared as finite measures on exact value labels.
    On trees built with exact rational probabilities the masses are Fractions
    and the comparison is exact.
    """
    seq, tree = pair.seq, pair.tree
    exact = tree.exact
    worst = 0.0
    for n in range(1, tree.depth + 1):
        if exact:
            level_probs = tree.levels[n - 1].probs_exact
        else:
            level_probs = tree.levels[n - 1].probs
        table = seq.tables[n - 1]
        d_laws = [_merge_law(row, level_probs) for row in table]
        if pair.mode == "decoupled":
            # e-law given a path with depth-(n-1) prefix u is the same table row
            # replayed with a fresh innovation; compare per prefix.
            for u in range(tree.num_nodes(n - 1)):
                e_law = _merge_law(table[u], level_probs)
                worst = max(worst, _law_gap(d_laws[u], e_law))
        else:
            # full copy: e-law given any path is the unconditional law of d_n
            node_probs = (tree.node_probs_exact(n) if exact
                          else tree.node_probs(n))
            e_law = _merge_law(seq.increments(n), node_probs)
            for u in range(tree.num_nodes(n - 1)):
                worst = max(worst, _law_gap(d_laws[u], e_law))
    return CheckResult(worst <= tol, worst, "tangency")


def _factorization_gap(level_masses, joint_keys, joint_masses) -> float:
    """Max gap between a joint law and the product of its marginals.

    level_masses: per level, mass of each distinct value id; the joint law is
    compared on the dense grid of all id combinations (guarded by callers).
    """
    shape = tuple(len(m) for m in level_masses)
    product = reduce(np.multiply.outer, level_masses).reshape(-1)
    joint = np.zeros(len(product))
    flat = np.ravel_multi_index(joint_keys, shape)
    np.add.at(joint, flat, joint_masses)
    return float(np.max(np.abs(joint - product)))


def verify_conditional_independence(pair: TangentPair, tol: float = 1e-12) -> CheckResult:
    """Check that the joint law of (e_1..e_N) given F_inf is the product of
    its conditional marginals, atom by atom, by enumeration."""
    seq, tree = pair.seq, pair.tree
    depth = tree.depth
    worst = 0.0
    if pair.mode == "decoupled":
        # the conditional law given a path depends on its depth-(N-1) prefix
        pair.require_enumerable()
        # second coordinate: outcome (j_1..j_N) with product mass, shared by all nodes
        combos = np.array(list(itertools.product(*[range(a) for a in tree.sizes])))
        for u in range(tree.num_nodes(depth - 1)):
            level_ids, level_masses = [], []
            grid = 1
            for n in range(1, depth + 1):
                anc = tree.ancestor(np.array([u]), depth - 1, n - 1)[0]
                ids, masses = _law_ids(seq.tables[n - 1][anc], tree.level_probs(n))
                level_ids.append(ids)
                level_masses.append(masses)
                grid *= len(masses)
            if grid > JOINT_LIMIT:
                raise EnumerationError("factorization grid too large")
            joint_masses = tree.path_probs
            joint_keys = tuple(level_ids[n][combos[:, n]] for n in range(depth))
            worst = max(worst, _factorization_gap(level_masses, joint_keys,
                                                  joint_masses))
    else:
        # full copy: the law given any path is the law of (d_1..d_N); one check
        pair.require_enumerable()
        level_masses = []
        grid = 1
        per_path_ids = []
        for n in range(1, depth + 1):
            ids, masses = _law_ids(seq.path_increments(n), tree.path_probs)
            level_masses.append(masses)
            per_path_ids.append(ids)
            grid *= len(masses)
        if grid > JOINT_LIMIT:
            raise EnumerationError("factorization grid too large")
        worst = _factorization_gap(level_masses, tuple(per_path_ids),
                                   tree.path_probs)
    return CheckResult(worst <= tol, worst, "conditional independence")


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
    for n in range(1, seq.depth + 1):
        table = seq.tables[n - 1]
        if n == 1:
            small_tables.append(np.zeros_like(table))
            big_tables.append(table.copy())
            continue
        bound = 2.0 * seq.node_d_star(n - 1)  # per parent node
        norms = seq.space.norms(table)        # (parents, a_n)
        keep = (norms <= bound[:, None]).astype(float)[:, :, None]
        small_tables.append(table * keep)
        big_tables.append(table * (1.0 - keep))
    small = AdaptedSequence(seq.tree, seq.space, small_tables)
    big = AdaptedSequence(seq.tree, seq.space, big_tables)
    return TangentPair(small, pair.mode), TangentPair(big, pair.mode)


JOINT_STATS = ("g_terminal", "e_star", "g_star")


def joint_blocks(pair: TangentPair, stats=JOINT_STATS, block_rows: int | None = None):
    """The exact joint engine: iterate the product space in blocks of heads.

    The g side reads the first coordinate only through the table rows it
    picks: through the depth-(N-1) prefix in decoupled mode, not at all in
    copy mode.  So the heads are the depth-(N-1) nodes (decoupled) or the root
    alone (copy), each weighted by the mass of the paths under it, and every
    head meets every second-coordinate path.

    Yields (weights, stats): weights (rows, paths) is the joint mass of each
    (head, omega~) outcome, summing to one over all blocks; stats holds only
    the requested statistics, g_terminal (rows, paths, dim), e_star and g_star
    (rows, paths).  Within a block the statistics grow level by level along
    the omega~ tree, so each partial sum g_n is formed once per depth-n node.
    Blocks hold about BLOCK_FLOATS floats of g_terminal.
    """
    unknown = set(stats) - set(JOINT_STATS)
    if unknown:
        raise ValueError(f"unknown joint statistics {sorted(unknown)}")
    pair.require_enumerable()
    seq, tree = pair.seq, pair.tree
    depth, dim, paths = tree.depth, seq.dim, tree.path_count
    if pair.mode == "decoupled":
        heads, head_probs = tree.num_nodes(depth - 1), tree.node_probs(depth - 1)
    else:
        heads, head_probs = 1, np.ones(1)
    if block_rows is None:
        block_rows = max(1, min(heads, BLOCK_FLOATS // max(1, paths * dim)))
    need_g = "g_terminal" in stats or "g_star" in stats
    for start in range(0, heads, block_rows):
        block = np.arange(start, min(start + block_rows, heads))
        rows = len(block)
        # statistics at the depth-n nodes of the omega~ tree, n = 0 first
        g = np.zeros((rows, 1, dim))
        e_star = np.zeros((rows, 1))
        g_star = np.zeros((rows, 1))
        for n in range(1, depth + 1):
            table = seq.tables[n - 1]
            if pair.mode == "decoupled":
                # one row per head, shared by every omega~ node
                inc = table[tree.ancestor(block, depth - 1, n - 1)][:, None]
            else:
                # the omega~ node picks the row, as for d_n on the first coordinate
                inc = table[None]
            nodes = tree.num_nodes(n)
            if need_g:
                g = (g[:, :, None, :] + inc).reshape(rows, nodes, dim)
            if "e_star" in stats:
                e_star = np.maximum(e_star[:, :, None],
                                    seq.space.norms(inc)).reshape(rows, nodes)
            if "g_star" in stats:
                g_star = np.maximum(np.repeat(g_star, tree.sizes[n - 1], axis=1),
                                    seq.space.norms(g))
        out = {"g_terminal": g, "e_star": e_star, "g_star": g_star}
        weights = head_probs[block, None] * tree.path_probs[None, :]
        yield weights, {key: out[key] for key in stats}


def g_terminal_moment(pair: TangentPair, p: float) -> float:
    """E ||g_N||^p, exact: one norm per (head, omega~) outcome."""
    total = 0.0
    for weights, stats in joint_blocks(pair, ("g_terminal",)):
        total += float(np.sum(weights * pair.space.norms(stats["g_terminal"]) ** p))
    return total


class WindowTable:
    """Conditional p-norms of every window (k, l] of a decoupled pair, built once.

    norms[k, l] holds T_p of the window at each depth-(l-1) node,
    (E[ ||sum_{k<m<=l} e_m||^p | F_inf])^(1/p): given F_inf the e_m are
    independent with the table rows along the node's history as laws, so this
    is a finite sum over the innovation combos of levels k+1..l.  For each
    start k a forward recursion in l extends the combos by one level, adding
    its increments to the window sums in level order, so each of the
    N(N+1)/2 windows is formed once; ``windows_built`` counts them.

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
        pair.require_enumerable()
        seq, tree = pair.seq, pair.tree
        depth, dim, space = seq.depth, seq.dim, seq.space
        self.windows_built = 0
        self.norms: dict[tuple[int, int], np.ndarray] = {}
        for k in range(depth):
            # window (k, k+1]: the level's own rows, one combo per innovation
            total, probs = seq.tables[k], tree.level_probs(k + 1)
            for l in range(k + 1, depth + 1):
                if l > k + 1:
                    # node u*a + j at depth l-1 adds its row to the sums of its parent u
                    parents, a = tree.num_nodes(l - 2), tree.sizes[l - 2]
                    rows = seq.tables[l - 1].reshape(parents, a, 1, tree.sizes[l - 1], dim)
                    total = (total[:, None, :, None] + rows).reshape(parents * a, -1, dim)
                    probs = np.multiply.outer(probs, tree.level_probs(l)).reshape(-1)
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


def sign_randomized_moment(seq: AdaptedSequence, p: float) -> float:
    """E || sum_k eps_k d_k ||^p over independent Rademacher signs, exact.

    The 2^N sign patterns are taken in blocks of about BLOCK_FLOATS floats.
    """
    n, paths = seq.depth, seq.tree.path_count
    combos = paths * 2 ** n
    if combos > JOINT_LIMIT:
        raise EnumerationError(f"{combos} sign-path combinations exceed budget")
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
    then all second-coordinate levels" inside a chunk.
    """
    seq, tree = pair.seq, pair.tree
    dim, depth = seq.dim, tree.depth
    f_terminal = np.zeros((count, dim))
    g_terminal = np.zeros((count, dim))
    for start, stop, gen in rng.chunk_streams(seed, "sample-paths", count):
        rows = stop - start
        picks = [gen.choice(tree.sizes[n - 1], size=rows, p=tree.level_probs(n))
                 for n in range(1, depth + 1)]
        picks_t = [gen.choice(tree.sizes[n - 1], size=rows, p=tree.level_probs(n))
                   for n in range(1, depth + 1)]
        f = f_terminal[start:stop]
        g = g_terminal[start:stop]
        node = np.zeros(rows, dtype=np.int64)
        node_t = np.zeros(rows, dtype=np.int64)
        for n in range(1, depth + 1):
            child = node * tree.sizes[n - 1] + picks[n - 1]
            child_t = node_t * tree.sizes[n - 1] + picks_t[n - 1]
            f += seq.increments(n)[child]
            if pair.mode == "decoupled":
                g += seq.increments(n)[node * tree.sizes[n - 1] + picks_t[n - 1]]
            else:
                g += seq.increments(n)[child_t]
            node, node_t = child, child_t
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
