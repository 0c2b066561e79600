"""Settings every test module shares, and the per-path references of the
PathStack node walk and the sign-randomized engine.

Every Hypothesis test draws its examples from one derandomized profile with no
example database, so two runs of one commit check the same examples; each
test keeps its own max_examples.
"""
import numpy as np
from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def path_increments(seq, n):
    """d_n of a sequence at every path, (paths, dim): each depth-n node's
    increment repeated over its contiguous block of paths."""
    return np.repeat(seq.increments(n), seq.tree.stride(n), axis=0)


def path_sums(seq):
    """f_0..f_N at every path of a sequence, (paths, levels + 1, dim): the
    cumulative sums of its path increments in level order, from f_0 = 0.0."""
    zero = np.zeros((seq.tree.path_count, seq.dim))
    incs = [zero] + [path_increments(seq, n) for n in range(1, seq.depth + 1)]
    return np.cumsum(np.stack(incs, axis=1), axis=1)
