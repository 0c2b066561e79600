import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decoupling_lab.rng import stream
from decoupling_lab.spaces import (
    _FOLD_DIM,
    Space,
    SpaceError,
    euclid,
    format_space,
    lu_constants,
    nested,
    parse_space,
    seq_lp,
    split_spaces,
    sup_norm,
)

ALL_SPACES = [
    euclid(2),
    euclid(5),
    seq_lp(0.5, 2),
    seq_lp(1.0, 3),
    seq_lp(3.0, 4),
    sup_norm(4),
    nested([(1.0, 2), (2.0, 2)]),
    nested([(0.5, 2), (3.0, 2)]),
]


def norm(space, x):
    """The norm of one vector."""
    return float(space.norms(np.asarray(x, dtype=float)[None])[0])


def test_norm_examples():
    assert norm(euclid(2), [3.0, 4.0]) == 5.0
    # quasi-norm: (1 + 1)^(1/0.5) = 4
    assert norm(seq_lp(0.5, 2), [1.0, 1.0]) == pytest.approx(4.0, abs=1e-12)
    assert norm(sup_norm(3), [-2.0, 1.0, 0.0]) == 2.0
    assert norm(seq_lp(1.0, 3), [1.0, -2.0, 3.0]) == 6.0


def test_nested_norm_example():
    space = nested([(1.0, 2), (2.0, 2)])
    # rows (3,4) and (0,0); inner rms 3.5355.., outer average halves it
    got = norm(space, [3.0, 4.0, 0.0, 0.0])
    assert got == pytest.approx(math.sqrt(12.5) / 2.0, rel=1e-12)
    # uniform weights: the all-ones vector has norm one in every nested space
    for shape in ([(1.0, 2), (3.0, 2)], [(0.5, 3), (2.0, 2)]):
        sp = nested(shape)
        assert norm(sp, np.ones(sp.dim)) == pytest.approx(1.0, rel=1e-12)


def test_r_exponent():
    assert seq_lp(0.5, 2).r == 0.5
    assert seq_lp(3.0, 4).r == 1.0
    assert euclid(7).r == 1.0
    assert sup_norm(2).r == 1.0
    assert nested([(1.0, 2), (3.0, 2)]).r == 1.0
    assert nested([(0.5, 2), (3.0, 2)]).r == 0.5


def test_dim():
    assert euclid(3).dim == 3
    assert nested([(1.0, 2), (3.0, 5)]).dim == 10


def test_cached_dim_keeps_equality_hash_and_pickling():
    for space in ALL_SPACES:
        twin = parse_space(format_space(space))
        assert twin == space and hash(twin) == hash(space)
        clone = pickle.loads(pickle.dumps(space))
        assert clone == space and hash(clone) == hash(space)
        assert clone.dim == space.dim == math.prod(d for _, d in space.shape)
        assert repr(clone) == repr(space)


def test_lu_examples():
    assert lu_constants(1.0) == (1.0, 1.0)
    assert lu_constants(3.0) == (1.0, 4.0)
    lo, up = lu_constants(0.5)
    assert lo == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert up == 1.0
    with pytest.raises(SpaceError):
        lu_constants(0.0)


def test_lu_identity():
    # 2^(1-p) u_p = l_p on both branches
    for p in (0.1, 0.5, 1.0, 1.7, 2.0, 4.0, 11.0):
        lo, up = lu_constants(p)
        assert 2.0 ** (1.0 - p) * up == pytest.approx(lo, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    a=st.floats(0.0, 1e6),
    b=st.floats(0.0, 1e6),
    p=st.floats(0.05, 8.0),
)
def test_power_comparison_property(a, b, p):
    lo, up = lu_constants(p)
    mid = (a + b) ** p
    two = a ** p + b ** p
    assert two / lo <= mid * (1 + 1e-9) + 1e-300
    assert mid <= up * two * (1 + 1e-9) + 1e-300


def test_power_comparison_equality_at_half():
    # lower branch is tight at a = b when p < 1
    lo, _ = lu_constants(0.5)
    assert (1.0 + 1.0) ** 0.5 == pytest.approx(2.0 / lo, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_r_triangle_property(data):
    space = data.draw(st.sampled_from(ALL_SPACES))
    x = np.array(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=space.dim, max_size=space.dim)))
    y = np.array(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=space.dim, max_size=space.dim)))
    r = space.r
    lhs = norm(space, x + y) ** r
    rhs = norm(space, x) ** r + norm(space, y) ** r
    assert lhs <= rhs * (1 + 1e-9) + 1e-300


@settings(max_examples=100, deadline=None)
@given(data=st.data(), c=st.floats(-50.0, 50.0))
def test_homogeneity_property(data, c):
    space = data.draw(st.sampled_from(ALL_SPACES))
    x = np.array(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=space.dim, max_size=space.dim)))
    assert norm(space, c * x) == pytest.approx(abs(c) * norm(space, x), rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lp2_matches_euclid(data):
    d = data.draw(st.integers(1, 6))
    x = np.array(data.draw(st.lists(st.floats(-100.0, 100.0), min_size=d, max_size=d)))
    assert norm(seq_lp(2.0, d), x) == pytest.approx(norm(euclid(d), x), rel=1e-12, abs=1e-12)


def test_norms_vectorized_shapes():
    space = euclid(3)
    arr = np.arange(24, dtype=float).reshape(2, 4, 3)
    out = space.norms(arr)
    assert out.shape == (2, 4)
    assert out[0, 0] == pytest.approx(math.sqrt(0.0 + 1.0 + 4.0))


# ---------------------------------------------------------------------------
# the norm kernel against numpy's own reductions, bit for bit

KERNEL_DIMS = (*range(1, 10), 16)


def kernel_spaces(d):
    """Every kind at dimension d; nested both as one level and split in two."""
    spaces = [euclid(d), sup_norm(d), seq_lp(0.5, d), seq_lp(1.0, d), seq_lp(3.0, d),
              nested([(0.7, d)])]
    for a in range(2, d):
        if d % a == 0:
            spaces.append(nested([(1.0, a), (3.0, d // a)]))
    return spaces


def reference_norms(space, arr):
    """The reductions numpy makes over the trailing axis of arr as it is laid
    out: np.max(np.abs(a), -1), np.sum and, per nested level, np.mean."""
    if space.kind == "sup":
        return np.max(np.abs(arr), axis=-1)
    if space.kind == "euclid":
        return np.sqrt(np.sum(arr * arr, axis=-1))
    out = np.abs(arr).reshape(arr.shape[:-1] + tuple(d for _, d in space.shape))
    for q, _ in reversed(space.shape):
        out **= q
        out = np.mean(out, axis=-1) if space.kind == "nested" else np.sum(out, axis=-1)
        out **= 1.0 / q
    return out


def awkward_values(shape, label):
    """Signed values from 1e-300 to 1e300 with +-0.0, +-inf and nan mixed in;
    the first half of the vectors spans 1e-3 to 1e3 only, where the order of
    a sum shows in its last bits."""
    gen = stream(0, "norm-kernel", label)
    exponents = gen.uniform(-300, 300, size=shape)
    exponents[:shape[0] // 2] /= 100.0
    out = gen.choice([-1.0, 1.0], size=shape) * 10.0 ** exponents
    flat = out.reshape(-1)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, 1e300, -1.0])
    picks = gen.integers(0, flat.size, size=flat.size // 8)
    flat[picks] = special[gen.integers(0, len(special), size=len(picks))]
    flat[:shape[-1]] = -0.0  # one all-negative-zero vector
    return out


def layouts(d, label):
    """The same 30 vectors as a C-contiguous (30, d) array, as its transposed
    view and as a (2, 3, 5, d) view of a dim-major array, the layout the
    joint engine passes."""
    base = awkward_values((2, 3, 5, d), label)
    contiguous = base.reshape(30, d)
    swapped = np.ascontiguousarray(contiguous.T).T
    dim_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(base, -1, 2)), 2, -1)
    assert d == 1 or not (swapped.flags.c_contiguous or dim_major.flags.c_contiguous)
    return contiguous, swapped, dim_major


@pytest.mark.parametrize("d", KERNEL_DIMS)
def test_norm_kernel_matches_numpy_reductions(d):
    with np.errstate(all="ignore"):
        for space in kernel_spaces(d):
            contiguous, swapped, dim_major = layouts(d, f"{space} kernel")
            want = reference_norms(space, contiguous)
            np.testing.assert_array_equal(space.norms(contiguous), want, str(space))
            # any layout gives the bits of the C-contiguous one
            np.testing.assert_array_equal(space.norms(swapped), want, str(space))
            np.testing.assert_array_equal(space.norms(dim_major).reshape(-1), want.reshape(-1),
                                          str(space))
            if space.kind == "sup" or max(n for _, n in space.shape) < _FOLD_DIM:
                # numpy reduces a short or a max axis the same way in any layout
                np.testing.assert_array_equal(reference_norms(space, swapped), want)
            if space.kind == "sup":
                for view in (contiguous, swapped, dim_major):
                    np.testing.assert_array_equal(space.norms(view), np.abs(view).max(-1))


def test_sup_norms_make_no_abs_copy():
    # the sup kernel takes |x| one column at a time: it holds the result and
    # one column, not a |arr| temporary the size of arr
    space = sup_norm(8)
    arr = np.moveaxis(np.ones((4, 8, 4096)), 1, -1)  # dim-major (rows, paths, dim)
    space.norms(arr[:1, :1])  # first-use allocations are not the kernel's
    tracemalloc.start()
    try:
        space.norms(arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < arr.nbytes / 2


def test_numpy_adds_a_short_contiguous_axis_left_to_right():
    # the kernel folds sums over fewer than _FOLD_DIM coordinates left to right
    # because numpy's np.sum does so; this fails if numpy stops doing it
    gen = np.random.default_rng(8)
    for d in range(2, _FOLD_DIM):
        a = gen.choice([-1.0, 1.0], size=(4000, d)) * 10.0 ** gen.uniform(-8, 8, size=(4000, d))
        fold = a[:, 0].copy()
        for i in range(1, d):
            fold += a[:, i]
        np.testing.assert_array_equal(np.sum(a, axis=-1), fold)
        if d > 2:
            # the values tell summation orders apart, so the check has teeth
            right = a[:, -1].copy()
            for i in range(d - 2, -1, -1):
                right += a[:, i]
            assert not np.array_equal(right, fold)


def test_dimension_mismatch():
    with pytest.raises(SpaceError):
        euclid(3).norms(np.zeros((5, 4)))


def test_invalid_spaces():
    with pytest.raises(SpaceError):
        Space("weird", ((2.0, 2),))
    with pytest.raises(SpaceError):
        euclid(0)
    with pytest.raises(SpaceError):
        seq_lp(0.0, 2)
    with pytest.raises(SpaceError):
        Space("lp", ())


def test_parse_format_round_trip():
    for text in ("l2:8", "lp:0.5:4", "linf:16", "nested:1x2,3x2"):
        space = parse_space(text)
        assert format_space(space) == text
        assert parse_space(format_space(space)) == space
    for space in ALL_SPACES:
        assert parse_space(format_space(space)) == space


def test_format_space_lossless():
    # the short text stays whenever it reads back exactly, so reports keep their bytes
    assert format_space(seq_lp(0.5, 4)) == "lp:0.5:4"
    assert format_space(nested([(1.0, 2), (3.0, 2)])) == "nested:1x2,3x2"
    assert format_space(seq_lp(0.1234567, 4)) == "lp:0.1234567:4"
    assert parse_space("lp:0.1234567:4").shape[0][0] == 0.1234567


@settings(max_examples=200, deadline=None)
@given(
    q=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    d=st.integers(1, 64),
)
def test_format_parse_round_trip_lp(q, d):
    space = seq_lp(q, d)
    assert parse_space(format_space(space)) == space


@settings(max_examples=200, deadline=None)
@given(levels=st.lists(
    st.tuples(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
              st.integers(1, 4)),
    min_size=1, max_size=3))
def test_format_parse_round_trip_nested(levels):
    space = nested(levels)
    assert parse_space(format_space(space)) == space


def test_parse_errors():
    for text in ("l3:4", "lp:2", "nested:1x", "l2:0", "l2:two", ""):
        with pytest.raises(SpaceError):
            parse_space(text)


def test_split_spaces():
    plain = "l2:2,l2:4,linf:2,linf:4"
    assert split_spaces(plain) == plain.split(",")
    assert split_spaces(" l2:2 , ,nested:1x2,3x2,lp:0.7:2,") == [
        "l2:2", "nested:1x2,3x2", "lp:0.7:2"]
    assert split_spaces("nested:0.5x3, 4x2,linf:8") == ["nested:0.5x3,4x2", "linf:8"]
    assert split_spaces(" , ") == []
    for text in split_spaces("lp:0.7:2,nested:1x2,3x2,nested:2x2,1x3,2x2"):
        assert format_space(parse_space(text)) == text
