"""GF(2) elimination against brute-force enumeration of the column span."""
import numpy as np
import pytest

from qhelab import gf2


def _codes(bits: np.ndarray) -> np.ndarray:
    """Last axis of a 0/1 array as ints, bit j = entry j."""
    return (bits.astype(np.int64) & 1) @ (1 << np.arange(bits.shape[-1]))


def _distinct(a: np.ndarray) -> np.ndarray:
    """Number of distinct values along the last axis."""
    s = np.sort(a, axis=-1)
    return 1 + (np.diff(s, axis=-1) != 0).sum(axis=-1)


def _enumerate(mats: np.ndarray):
    """Brute force over a (K, m, n) stack of matrices.

    Returns the rank of each matrix (log2 of its span size), the greedy
    left-to-right pivot columns as a bit mask, and want[k, r]: the code of
    the unique x supported on the pivots with mats[k] @ x = r, or -1 when r
    (a row code) is outside the span.
    """
    n_mats, m, n = mats.shape
    cols = _codes(np.swapaxes(mats, 1, 2))           # (K, n) column codes
    imgs = np.zeros((n_mats, 1 << n), np.int64)      # imgs[k, c] = mats[k] @ c
    for c in range(1, 1 << n):
        low = c & -c
        imgs[:, c] = imgs[:, c ^ low] ^ cols[:, low.bit_length() - 1]
    # combos of the first j columns are the codes below 2^j
    sizes = np.stack([_distinct(imgs[:, :1 << j]) for j in range(n + 1)], 1)
    grows = (sizes[:, 1:] > sizes[:, :-1]).astype(np.int64)
    pivots = grows @ (1 << np.arange(n))
    ranks = np.log2(sizes[:, -1]).round().astype(int)
    assert np.array_equal(ranks, grows.sum(axis=1))
    want = np.full((n_mats, 1 << m), -1)
    k, c = np.nonzero((np.arange(1 << n) & ~pivots[:, None]) == 0)
    want[k, imgs[k, c]] = c
    return ranks, pivots, want


def _check(mats, rhs, pivots, want) -> None:
    """solve agrees with the brute-force answer on a (N, m, n) stack of
    systems mats[i] @ x = rhs[i]."""
    got = [gf2.solve(mat, r) for mat, r in zip(mats, rhs)]
    solved = np.array([x is not None for x in got])
    assert np.array_equal(solved, want >= 0)    # None iff outside the span
    xs = [x for x in got if x is not None]
    assert all(x.dtype == np.uint8 and x.shape == mats.shape[2:] for x in xs)
    xs = np.reshape(xs, (len(xs), mats.shape[2]))
    lhs = np.einsum("kij,kj->ki", mats[solved].astype(np.int64) & 1, xs) % 2
    assert np.array_equal(lhs, rhs[solved] & 1)
    codes = _codes(xs)
    assert np.all(codes & ~pivots[solved] == 0)  # zero off the pivot columns
    assert np.array_equal(codes, want[solved])


@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("n", range(5))
def test_every_matrix_up_to_4x4(m, n):
    """All 2^(mn) matrices of each shape.  Every rhs is tried while that
    stays under 2^16 systems; at 4 x 4, each even-numbered matrix gets a
    rhs inside its span and each odd-numbered one an arbitrary rhs."""
    mats = (np.arange(1 << (m * n))[:, None] >> np.arange(m * n)) & 1
    mats = mats.reshape(1 << (m * n), m, n).astype(np.uint8)
    ranks, pivots, want = _enumerate(mats)
    assert [gf2.rank(mat) for mat in mats] == list(ranks)
    k = np.arange(len(mats))
    if len(mats) << m <= 1 << 16:
        k, r = np.repeat(k, 1 << m), np.tile(np.arange(1 << m), len(mats))
    else:
        # the (k/2 mod 2^rank)-th rhs inside the span
        inside = np.argsort(want < 0, axis=1, kind="stable")
        inside = inside[k, k // 2 % (1 << ranks)]
        r = np.where(k % 2, (7 * k + 3) % (1 << m), inside)
    rhs = ((r[:, None] >> np.arange(m)) & 1).astype(np.uint8)
    _check(mats[k], rhs, pivots[k], want[k, r])


@pytest.mark.parametrize("seed", range(6))
def test_random_up_to_10x10(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        m, n = (int(v) for v in rng.integers(1, 11, size=2))
        density = rng.choice([0.1, 0.3, 0.5, 0.8])
        mat = (rng.random((m, n)) < density).astype(np.uint8)
        ranks, pivots, want = _enumerate(mat[None])
        assert gf2.rank(mat) == ranks[0]
        inside = mat.astype(np.int64) @ rng.integers(0, 2, n) % 2
        rhs = np.stack([inside, rng.integers(0, 2, m)]).astype(np.uint8)
        _check(np.stack([mat, mat]), rhs, pivots[[0, 0]],
               want[0, _codes(rhs)])


class TestEdgeCases:
    def test_no_rows(self):
        x = gf2.solve(np.zeros((0, 3), np.uint8), np.zeros(0, np.uint8))
        assert x.dtype == np.uint8 and np.array_equal(x, [0, 0, 0])
        assert gf2.rank(np.zeros((0, 3), np.uint8)) == 0

    def test_no_columns(self):
        mat = np.zeros((3, 0), np.uint8)
        assert gf2.solve(mat, np.zeros(3, np.uint8)).shape == (0,)
        assert gf2.solve(mat, np.array([0, 1, 0], np.uint8)) is None
        assert gf2.rank(mat) == 0

    def test_zero_rhs_gives_zero_solution(self):
        mat = np.array([[1, 1, 0], [0, 1, 1]], np.uint8)
        assert np.array_equal(gf2.solve(mat, np.zeros(2, np.uint8)), [0, 0, 0])

    def test_entries_masked_with_and_1(self):
        mat = np.array([[3, 2, 1], [2, 1, 1], [1, 3, 2]], np.int64)
        rhs = np.array([1, 2, 3], np.int64)
        assert np.array_equal(gf2.solve(mat, rhs), gf2.solve(mat & 1, rhs & 1))
        assert gf2.rank(mat) == gf2.rank(mat & 1) == 2
        assert gf2.solve(mat, np.array([0, 1, 0])) is None

    def test_underdetermined_free_variables_are_zero(self):
        mat = np.array([[1, 1, 1, 0], [0, 0, 1, 1]], np.uint8)
        # pivots are columns 0 and 2; columns 1 and 3 stay 0
        assert np.array_equal(gf2.solve(mat, np.array([0, 1], np.uint8)),
                              [1, 0, 1, 0])

    def test_rank_of_wide_and_tall_matrices(self):
        a = np.random.default_rng(9).integers(0, 2, (5, 40)).astype(np.uint8)
        assert gf2.rank(a) == gf2.rank(a.T) == 5
        assert gf2.rank(np.vstack([a, a[0] ^ a[1]])) == 5
