import functools
import gc
import itertools
import pickle
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prmhull.codes import (
    EnumerationBudgetError,
    LinearCode,
    _left_null_space,
    _null_space,
    field_matmul,
    rref,
)
from prmhull.fields import field_for_size


def _random_code(ctx, rng, k, n):
    rows = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(k)]
    return LinearCode.from_rows(ctx, rows)


def test_from_rows_examples():
    g2 = field_for_size(2)
    assert LinearCode.from_rows(g2, [(1, 1, 0), (0, 0, 1)]).k == 2
    assert LinearCode.from_rows(g2, [(1, 0), (1, 0)]).k == 1
    zero = LinearCode.from_rows(g2, [], n=5)
    assert zero.k == 0 and zero.n == 5


def test_from_rows_rejects_ragged_and_out_of_range():
    g2 = field_for_size(2)
    with pytest.raises(ValueError):
        LinearCode.from_rows(g2, [(1, 0), (1, 0, 1)])
    with pytest.raises(ValueError):
        LinearCode.from_rows(g2, [(0, 2)])
    with pytest.raises(ValueError):
        LinearCode.from_rows(g2, [])
    # a single vector is not a list of rows, nor is a bare scalar (which
    # once escaped as a TypeError past callers that catch ValueError)
    with pytest.raises(ValueError):
        LinearCode.from_rows(g2, [1, 0, 1])
    for bad in (5, 1, np.int64(1)):
        with pytest.raises(ValueError, match="not element encodings"):
            LinearCode.from_rows(g2, bad)
    # a float is refused, not truncated to an encoding
    g3 = field_for_size(3)
    for bad in ([[1.7, 0, 2.2]], [[1, 0, 2.0]], np.array([[1.0, 0.0]])):
        with pytest.raises(ValueError, match="not element encodings"):
            LinearCode.from_rows(g3, bad)
    # integer arrays of any width, and iterables of rows, stay accepted
    for rows in (np.eye(2, dtype=np.uint16), np.eye(2, dtype=np.int8), iter([(1, 0), (0, 1)])):
        assert LinearCode.from_rows(g3, rows).k == 2


def test_contains_refuses_entries_that_are_not_field_elements():
    g3 = field_for_size(3)
    code = LinearCode.from_rows(g3, [[1, 0, 2]])
    assert code.contains([2, 0, 1]) and not code.contains([1, 0, 1])
    # -1 would index the last row of a table, 5 past its end; 1.9 would
    # be truncated to 1
    for bad in ([1, 0, -1], [1, 0, 3], [1, 0, 5], [1.9, 0, 2], [2.0, 0, 1]):
        with pytest.raises(ValueError, match="not element encodings"):
            code.contains(bad)
    # a row or a column of the right entries is not a vector; flattened,
    # both would read as the codeword [1, 1, 0]
    g4 = field_for_size(4)
    code4 = LinearCode.from_rows(g4, [[1, 1, 0]])
    assert code4.contains([1, 1, 0])
    for bad in ([[1, 1, 0]], [[1], [1], [0]], [1, 1]):
        with pytest.raises(ValueError, match="expected a vector of length 3"):
            code4.contains(bad)
    # nor is a bare scalar
    for bad in (1, np.int64(1), 1.5):
        with pytest.raises(ValueError, match="not element encodings"):
            code4.contains(bad)


def test_rref_is_canonical():
    g3 = field_for_size(3)
    a = LinearCode.from_rows(g3, [(1, 2, 0), (0, 1, 1)])
    b = LinearCode.from_rows(g3, [(2, 4 % 3, 0), (1, 0, 1)])  # same row space
    assert a == b
    assert a.matrix.flags.writeable is False


def test_dual_examples():
    g2 = field_for_size(2)
    full = LinearCode.from_rows(g2, np.eye(3, dtype=int))
    assert full.dual().k == 0
    rep = LinearCode.from_rows(g2, [(1, 1, 1)])
    even = rep.dual()
    assert even.k == 2
    assert all(int(r.sum()) % 2 == 0 for r in even.matrix)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_dual_dimension_and_biduality(q):
    ctx = field_for_size(q)
    rng = random.Random(q)
    for _ in range(15):
        c = _random_code(ctx, rng, 3, 6)
        d = c.dual()
        assert c.k + d.k == 6
        assert d.dual() == c
        # orthogonality
        for u in d.matrix:
            for v in c.matrix:
                s = 0
                for ui, vi in zip(u, v):
                    s = ctx.add(s, ctx.mul(int(ui), int(vi)))
                assert s == 0


def test_intersection_examples_and_dimension_identity():
    g2 = field_for_size(2)
    a = LinearCode.from_rows(g2, [(1, 0)])
    b = LinearCode.from_rows(g2, [(0, 1)])
    assert a.intersect(b).k == 0
    rng = random.Random(7)
    for q in (2, 3, 4):
        ctx = field_for_size(q)
        for _ in range(10):
            c1 = _random_code(ctx, rng, 3, 7)
            c2 = _random_code(ctx, rng, 3, 7)
            assert c1.intersect(c1) == c1
            full = LinearCode.from_rows(ctx, np.eye(7, dtype=int))
            assert c1.intersect(full) == c1
            inter = c1.intersect(c2)
            assert inter.k + c1.sum_with(c2).k == c1.k + c2.k
            assert inter.is_subcode_of(c1) and inter.is_subcode_of(c2)


def test_length_mismatch_rejected():
    g2 = field_for_size(2)
    a = LinearCode.from_rows(g2, [(1, 0)])
    b = LinearCode.from_rows(g2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        a.intersect(b)
    with pytest.raises(ValueError):
        a.intersect(LinearCode.from_rows(field_for_size(3), [(1, 0)]))


def test_hermitian_dual_subfield_codes_and_involution():
    g4 = field_for_size(4)
    sub = LinearCode.from_rows(g4, [(1, 1, 0), (0, 1, 1)])
    assert sub.hermitian_dual(2) == sub.dual()
    rng = random.Random(5)
    for _ in range(15):
        c = _random_code(g4, rng, 2, 5)
        h = c.hermitian_dual(2)
        assert h.k == 5 - c.k
        assert h.hermitian_dual(2) == c
        for u in h.matrix:
            for v in c.matrix:
                s = 0
                for ui, vi in zip(u, v):
                    s = g4.add(s, g4.mul(int(ui), g4.pow(int(vi), 2)))
                assert s == 0


def test_hermitian_dual_requires_square_field():
    g2 = field_for_size(2)
    with pytest.raises(ValueError):
        LinearCode.from_rows(g2, [(1, 0)]).hermitian_dual(2)


def _brute_min_weight(ctx, code):
    best = None
    for msg in itertools.product(range(ctx.q), repeat=code.k):
        if not any(msg):
            continue
        cw = [0] * code.n
        for m, row in zip(msg, code.matrix):
            for j in range(code.n):
                cw[j] = ctx.add(cw[j], ctx.mul(m, int(row[j])))
        w = sum(1 for c in cw if c)
        best = w if best is None or w < best else best
    return best


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_min_weight_matches_naive_enumeration(q):
    ctx = field_for_size(q)
    rng = random.Random(q * 13)
    for _ in range(8):
        c = _random_code(ctx, rng, 3, 8)
        if c.k == 0:
            continue
        assert c.min_weight() == _brute_min_weight(ctx, c)


def test_min_weight_repetition_and_zero():
    g2 = field_for_size(2)
    assert LinearCode.from_rows(g2, [(1,) * 9]).min_weight() == 9
    with pytest.raises(ValueError):
        LinearCode.from_rows(g2, [], n=4).min_weight()


def test_min_weight_budget():
    # the search certifies weight 1 on its first 12 messages, the rows
    g9 = field_for_size(9)
    eye = np.eye(12, dtype=int)
    assert LinearCode.from_rows(g9, eye).min_weight(cap=12) == 1
    with pytest.raises(EnumerationBudgetError):
        LinearCode.from_rows(g9, eye).min_weight(cap=11)


def test_min_weight_excluding_semantics():
    g2 = field_for_size(2)
    c = LinearCode.from_rows(g2, [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0)])
    d = LinearCode.from_rows(g2, [(1, 1, 1, 1)])
    assert d.is_subcode_of(c)
    ws = []
    for msg in itertools.product(range(2), repeat=3):
        cw = np.zeros(4, dtype=int)
        for m, row in zip(msg, c.matrix):
            cw = (cw + m * np.asarray(row)) % 2
        if not d.contains(cw):
            ws.append(int((cw != 0).sum()))
    assert c.min_weight_excluding(d) == min(ws)
    assert c.min_weight_excluding(c) is None
    assert c.min_weight_excluding(LinearCode.from_rows(g2, [], n=4)) == c.min_weight()


def test_matrix_kernel_rejects_fields_beyond_table_limit():
    from prmhull.fields import field_make

    big = field_make(5, 4)  # GF(625) has no dense tables
    with pytest.raises(ValueError):
        LinearCode.from_rows(big, [(1, 0)])


def test_min_weight_excluding_requires_subcode():
    g2 = field_for_size(2)
    c = LinearCode.from_rows(g2, [(1, 1, 0)])
    d = LinearCode.from_rows(g2, [(0, 1, 1)])
    with pytest.raises(ValueError):
        c.min_weight_excluding(d)


@pytest.mark.parametrize("q", [4, 9])
def test_min_weight_excluding_random_cross_check(q):
    ctx = field_for_size(q)
    rng = random.Random(q)
    for _ in range(6):
        c = _random_code(ctx, rng, 3, 6)
        if c.k < 2:
            continue
        d = LinearCode.from_rows(ctx, c.matrix[:1])
        got = c.min_weight_excluding(d)
        best = None
        for msg in itertools.product(range(ctx.q), repeat=c.k):
            cw = [0] * c.n
            for m, row in zip(msg, c.matrix):
                for j in range(c.n):
                    cw[j] = ctx.add(cw[j], ctx.mul(m, int(row[j])))
            if d.contains(cw):
                continue
            w = sum(1 for x in cw if x)
            best = w if best is None or w < best else best
        assert got == best


# -- kernel self-checks: differential against the explicit construction --------


@functools.lru_cache(maxsize=None)
def _scalar_tables(ctx):
    """(add, sub, mul, inv) written entry by entry with the field's scalar
    arithmetic, so that no reference reads the kernel's tables."""
    elems = range(ctx.q)
    add, sub, mul = (
        np.array([[op(a, b) for b in elems] for a in elems], dtype=np.int64)
        for op in (ctx.add, ctx.sub, ctx.mul)
    )
    inv = np.array([0] + [ctx.inv(a) for a in elems[1:]], dtype=np.int64)
    return add, sub, mul, inv


def _reference_rref(ctx, rows):
    """Gauss-Jordan elimination with every row operation on whole rows."""
    M = np.array(rows, dtype=np.int64)
    _, SUB, MUL, INV = _scalar_tables(ctx)
    r, pivots = 0, []
    for c in range(M.shape[1]):
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        M[[r, pr]] = M[[pr, r]]
        M[r] = MUL[INV[M[r, c]], M[r]]
        for i in range(M.shape[0]):
            if i != r and M[i, c]:
                M[i] = SUB[M[i], MUL[M[i, c], M[r]]]
        pivots.append(c)
        r += 1
    return M[:r], tuple(pivots)


def _dependent_columns(ctx, rng, h, rank, w):
    """An h x w matrix of rank <= `rank` whose columns come in runs: copies
    and multiples of earlier columns, zero columns and independent ones, so
    that elimination meets columns zero below the current row."""
    B = np.zeros((rank, w), dtype=np.int64)
    c = 0
    while c < w:
        kind = rng.integers(0, 3)
        run = min(int(rng.integers(1, 6)), w - c)
        for j in range(c, c + run):
            if kind == 0 or j == 0:
                B[:, j] = rng.integers(0, ctx.q, size=rank)
            elif kind == 1:
                src = int(rng.integers(0, j))
                scale = int(rng.integers(1, ctx.q))
                B[:, j] = [ctx.mul(scale, int(v)) for v in B[:, src]]
        c += run
    A = rng.integers(0, ctx.q, size=(h, rank))
    return _scalar_matmul(ctx, A, B)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 25])
def test_rref_matches_reference_on_structured_inputs(q):
    # runs of zero columns (whole, and zero below a row only), rank-deficient
    # matrices and wide ones, against the whole-row reference elimination
    ctx = field_for_size(q)
    rng = np.random.default_rng(q)
    cases = []
    for _ in range(3):
        M = rng.integers(0, q, size=(12, 40))
        M[:, 5:12] = 0  # a run of zero columns
        M[6:, 20:31] = 0  # zero below row 6 only
        M[:, -4:] = 0  # trailing zero columns
        cases.append(M)
        cases.append(_dependent_columns(ctx, rng, 15, 6, 50))  # rank <= 6
        cases.append(_dependent_columns(ctx, rng, 9, 9, 30))
        cases.append(rng.integers(0, q, size=(int(rng.integers(10, 40)), 100)))  # wide
        cases.append(_dependent_columns(ctx, rng, 30, 12, 104))  # wide and rank-deficient
    cases += [np.zeros((4, 9), dtype=np.int64), np.zeros((0, 5), dtype=np.int64)]
    for M in cases:
        R, piv = rref(ctx, M)
        ref_R, ref_piv = _reference_rref(ctx, M)
        assert piv == ref_piv
        assert np.array_equal(R, ref_R)
    assert len(rref(ctx, cases[1])[1]) <= 6


def _reference_dual(code):
    """The check matrix built entry by entry, then reduced: (matrix, pivots)."""
    ctx, n = code.ctx, code.n
    free = [c for c in range(n) if c not in set(code.pivots)]
    H = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        H[i, f] = 1
        for r, pc in enumerate(code.pivots):
            H[i, pc] = ctx.neg(int(code.matrix[r, f]))
    return _reference_rref(ctx, H)


def _reference_hermitian_dual(code, base_q):
    """Frobenius of the reference dual, reduced again."""
    R, _ = _reference_dual(code)
    return _reference_rref(code.ctx, code.ctx.power_table(base_q)[R])


def _same(code, reference):
    R, piv = reference
    return code.pivots == piv and np.array_equal(code.matrix, R)


def _inner_products(ctx, A, B, twist=None):
    """Matrix of sum_j A[i, j] * twist(B[l, j]) through the scalar tables."""
    ADD, _, MUL, _ = _scalar_tables(ctx)
    B = np.asarray(B, dtype=np.int64)
    if twist is not None:
        B = twist[B]
    prods = MUL[np.asarray(A, dtype=np.int64)[:, None, :], B[None, :, :]]
    acc = np.zeros(prods.shape[:2], dtype=np.int64)
    for j in range(prods.shape[2]):
        acc = ADD[acc, prods[:, :, j]]
    return acc


@st.composite
def _code_pairs(draw):
    q = draw(st.sampled_from([2, 3, 4, 8, 9, 16]))
    ctx = field_for_size(q)
    n = draw(st.integers(1, 9))
    gens = []
    for _ in range(2):
        k = draw(st.integers(0, n + 1))
        flat = draw(st.lists(st.integers(0, q - 1), min_size=k * n, max_size=k * n))
        gens.append([flat[i * n : (i + 1) * n] for i in range(k)])
    return ctx, n, gens


@given(_code_pairs())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_reference_and_identities(pair):
    ctx, n, gens = pair
    c, other = (LinearCode.from_rows(ctx, rows, n=n) for rows in gens)
    if gens[0]:
        assert _same(c, _reference_rref(ctx, gens[0]))
    assert _same(c, rref(ctx, c.matrix))  # idempotent
    d = c.dual()
    assert _same(d, _reference_dual(c))
    assert not _inner_products(ctx, c.matrix, d.matrix).any()
    assert c.k + d.k == n
    assert d.dual() == c

    if ctx.e % 2 == 0:
        base_q = ctx.p ** (ctx.e // 2)
        h = c.hermitian_dual(base_q)
        assert _same(h, _reference_hermitian_dual(c, base_q))
        assert not _inner_products(ctx, h.matrix, c.matrix, ctx.power_table(base_q)).any()
        assert c.k + h.k == n
        # the Hermitian dual's own dual is the one an elimination gives
        assert _same(h.dual(), _reference_dual(LinearCode(ctx, n, h.matrix, h.pivots)))
        assert h.hermitian_dual(base_q) == c

    inter = c.intersect(other)
    assert inter == other.intersect(c)
    assert inter.is_subcode_of(c) and inter.is_subcode_of(other)
    assert inter.k + c.sum_with(other).k == c.k + other.k


def _reference_intersect(c1, c2):
    """dual(dual(C1) + dual(C2)), every step on the whole-row reference kernel."""
    ctx, n = c1.ctx, c1.n
    H1, _ = _reference_dual(c1)
    H2, _ = _reference_dual(c2)
    R, piv = _reference_rref(ctx, np.vstack([H1, H2]).reshape(-1, n))
    return _reference_dual(LinearCode(ctx, n, R, piv))


def _draw_code(draw, ctx, n, k):
    """A random code of dimension exactly k: identity on k random columns."""
    pivots = sorted(draw(st.permutations(range(n)))[:k])
    rows = []
    for pc in pivots:
        row = draw(st.lists(st.integers(0, ctx.q - 1), min_size=n, max_size=n))
        for c in pivots:
            row[c] = int(c == pc)
        rows.append(row)
    code = LinearCode.from_rows(ctx, rows, n=n)
    assert code.k == k
    return code


@st.composite
def _pairs_by_stratum(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16]))
    ctx = field_for_size(q)
    n = draw(st.integers(1, 9))
    stratum = draw(st.sampled_from(["sum < n", "sum = n", "sum > n", "zero", "whole"]))
    if stratum == "sum < n":
        k1 = draw(st.integers(0, n - 1))
        k2 = draw(st.integers(0, n - 1 - k1))
    elif stratum == "sum = n":
        k1 = draw(st.integers(0, n))
        k2 = n - k1
    elif stratum == "sum > n":
        k1 = draw(st.integers(1, n))
        k2 = draw(st.integers(n - k1 + 1, n))
    else:
        k1 = 0 if stratum == "zero" else n
        k2 = draw(st.integers(0, n))
    return ctx, n, _draw_code(draw, ctx, n, k1), _draw_code(draw, ctx, n, k2)


# hypothesis shrinks pivots towards a prefix of the columns; this pair has
# pivots elsewhere, so the intersection's pivots are not its null space's
_SPREAD_PIVOTS = (
    field_for_size(2),
    4,
    LinearCode.from_rows(field_for_size(2), [(0, 1, 1, 0), (0, 0, 0, 1)]),
    LinearCode.from_rows(field_for_size(2), [(0, 1, 1, 0), (1, 0, 0, 0)]),
)


@given(_pairs_by_stratum())
@example(_SPREAD_PIVOTS)
@settings(max_examples=200, deadline=None)
def test_intersect_matches_whole_row_reference(case):
    ctx, n, c1, c2 = case
    for a, b in ((c1, c2), (c2, c1)):
        got = a.intersect(b)
        assert _same(got, _reference_intersect(a, b))
        assert got == a.dual().sum_with(b.dual()).dual()


def _reference_relative_hull(c1, c2):
    """C1 cap C2^perp = dual(dual(C1) + C2) on the whole-row reference kernel."""
    ctx, n = c1.ctx, c1.n
    H1, _ = _reference_dual(c1)
    R, piv = _reference_rref(ctx, np.vstack([H1, c2.matrix]).reshape(-1, n))
    return _reference_dual(LinearCode(ctx, n, R, piv))


@given(_pairs_by_stratum())
@example(_SPREAD_PIVOTS)
@settings(max_examples=200, deadline=None)
def test_relative_hull_matches_whole_row_reference(case):
    ctx, n, c1, c2 = case
    for a, b in ((c1, c2), (c2, c1)):
        assert _same(a.relative_hull(b), _reference_relative_hull(a, b))
        # the null space of a matrix not in RREF, from one elimination on
        # reversed columns, is already canonical
        M = np.vstack([a.matrix, b.matrix]).astype(np.int64)
        null, piv = _null_space(ctx, M)
        assert _same(LinearCode(ctx, n, null, piv), rref(ctx, null))
        assert not _inner_products(ctx, M, null).any()
        assert len(null) == n - len(rref(ctx, M)[1])
    if ctx.q in (4, 9, 16):
        base_q = ctx.p ** (ctx.e // 2)
        for c in (c1, c2):
            frob = LinearCode.from_rows(ctx, ctx.power_table(base_q)[c.matrix], n=n)
            assert c.relative_hull(frob) == c.intersect(c.hermitian_dual(base_q))


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16])
def test_sparse_left_null_space_matches_the_dense_one(q):
    # zero rows become unit rows, the block of nonzero rows and columns is
    # eliminated alone, and the merge must give the dense null space's RREF
    ctx = field_for_size(q)
    rng = np.random.default_rng(q)
    for k, s in [(1, 1), (5, 3), (12, 12), (20, 7), (7, 20), (30, 30)]:
        for density in (0.0, 0.05, 0.2, 0.6):
            G = rng.integers(1, q, size=(k, s)) * (rng.random((k, s)) < density)
            i, j = G.nonzero()
            null, piv = _left_null_space(ctx, k, i, j, G[i, j])
            expected, expected_piv = _null_space(ctx, G.T)
            assert piv == expected_piv, (k, s, density)
            assert (null == expected).all(), (k, s, density)


def _random_code_pairs(q, seed=0):
    """Random pairs of codes over GF(q) with k1 + k2 below, at and above n,
    each also swapped, so that `intersect` reduces the smaller code first
    from either side; the zero and whole codes included."""
    ctx = field_for_size(q)
    rng = random.Random(seed)
    for n in (1, 4, 7, 10):
        for k1 in sorted({0, 1, n // 2, n - 1, n}):
            for k2 in sorted({0, 1, (n + 1) // 2, n}):
                a, b = (
                    _random_code(ctx, rng, k, n) if k else LinearCode.from_rows(ctx, [], n=n)
                    for k in (k1, k2)
                )
                yield a, b
                yield b, a


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_rank_dimensions_match_the_built_hull_and_intersection(q):
    from prmhull.quantum import asym_from_codes

    orientations = set()
    for a, b in _random_code_pairs(q):
        assert a.intersect_dim(b) == a.intersect(b).k == b.intersect_dim(a)
        assert a.intersect_dim(b.dual()) == a.relative_hull(b).k
        orientations.add(b.k < a.k)
        # c from the Gram rank is k1 less the built hull's dimension
        p = asym_from_codes(a, b)
        c = a.k - a.intersect(b.dual()).k
        assert (p.c, p.kappa) == (c, a.n - (a.k + b.k) + c)
    assert orientations == {True, False}


def _no_dual(self):
    raise AssertionError("dual() called")


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_no_intersection_needs_a_dual(q, monkeypatch):
    # membership alone: m G_A lies in B iff m times G_A reduced against B is 0
    monkeypatch.setattr(LinearCode, "dual", _no_dual)
    for a, b in _random_code_pairs(q):
        reference = _reference_intersect(a, b)
        assert _same(a.intersect(b), reference)
        assert a.intersect_dim(b) == len(reference[0])


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_the_euclidean_sweep_needs_no_dual(q, monkeypatch):
    from prmhull.verify import euclid_sweep

    records = euclid_sweep(q)
    monkeypatch.setattr(LinearCode, "dual", _no_dual)
    assert euclid_sweep(q) == records


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_batched_oracle_dim_matches_the_reference_intersection(q):
    # verify_relative_hulls and hull_oracle share the membership identity, so
    # the batched dimension is pinned against the whole-row reference kernel
    from prmhull.euclidean_hull import verify_relative_hulls
    from prmhull.prm import prm_code

    ctx = field_for_size(q)
    top = 2 * (q - 1)
    for d1 in range(1, top + 1):
        for chk in verify_relative_hulls(q, d1, range(d1, top + 1)):
            reference = _reference_intersect(prm_code(ctx, 2, d1), prm_code(ctx, 2, chk.d2))
            assert chk.oracle_dim == len(reference[0]), chk


@st.composite
def _codes_on_both_sides_of_half_length(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16]))
    ctx = field_for_size(q)
    n = draw(st.integers(1, 10))
    low = draw(st.integers(0, (n - 1) // 2))  # 2k < n: matroid duality
    high = draw(st.integers((n + 1) // 2, n))  # 2k >= n: check-matrix elimination
    return [_draw_code(draw, ctx, n, k) for k in (low, high)]


@given(_codes_on_both_sides_of_half_length())
@settings(max_examples=200, deadline=None)
def test_dual_matches_check_matrix_construction_on_both_sides(codes):
    low, high = codes
    assert 2 * low.k < low.n <= 2 * high.k
    for c in codes:
        fresh = LinearCode(c.ctx, c.n, c.matrix, c.pivots)
        assert _same(fresh.dual(), _reference_dual(c))


@st.composite
def _membership_cases(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16]))
    ctx = field_for_size(q)
    n = draw(st.integers(1, 9))
    k = draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))  # zero code, whole space
    code = _draw_code(draw, ctx, n, k)
    where = draw(st.sampled_from(["inside", "outside", "random"]))
    if where == "outside" and k == n:
        where = "random"
    ADD, _, MUL, _ = _scalar_tables(ctx)
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        row = np.zeros(n, dtype=np.int64)
        for g in code.matrix:
            row = ADD[row, MUL[draw(st.integers(0, q - 1)), g]]
        if where == "outside":
            # a codeword is fixed by its pivot entries: adding a unit vector
            # on a free column leaves the code
            free = [c for c in range(n) if c not in code.pivots]
            row = ADD[row, np.eye(n, dtype=np.int64)[draw(st.sampled_from(free))]]
        elif where == "random":
            row = np.array(draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
        rows.append(row)
    return ctx, code, where, np.array(rows, dtype=np.int64).reshape(-1, n)


def _in_span_by_reference(ctx, code, rows):
    """Whether stacking rows under the code's matrix leaves the rank at k."""
    R, _ = _reference_rref(ctx, np.vstack([code.matrix.astype(np.int64), rows]))
    return len(R) == code.k


@given(_membership_cases())
@settings(max_examples=200, deadline=None)
def test_membership_matches_whole_row_reference(case):
    ctx, code, where, rows = case
    for row in rows:
        expected = _in_span_by_reference(ctx, code, row[None, :])
        assert code.contains(row) == expected
        if where != "random":
            assert expected == (where == "inside")
    other = LinearCode.from_rows(ctx, rows.tolist(), n=code.n)
    assert other.is_subcode_of(code) == _in_span_by_reference(ctx, code, rows)


def _scalar_matmul(ctx, A, B):
    """The product by ctx.add / ctx.mul, one entry at a time."""
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = 0
            for l in range(A.shape[1]):
                acc = ctx.add(acc, ctx.mul(int(A[i, l]), int(B[l, j])))
            out[i, j] = acc
    return out


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 243, 256, 343]
)
def test_field_matmul_matches_scalar_triple_loop(q):
    ctx = field_for_size(q)
    rng = np.random.default_rng(q)
    shapes = [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 1, 1), (4, 7, 5), (6, 11, 3)]
    # int64 as messages are built, uint16 as LinearCode.matrix holds them
    for (r, m, s), dtype in itertools.product(shapes, (np.int64, np.uint16)):
        A = rng.integers(0, q, size=(r, m)).astype(dtype)
        B = rng.integers(0, q, size=(m, s)).astype(dtype)
        got = field_matmul(ctx, A, B)
        assert got.shape == (r, s)
        assert np.array_equal(got, _scalar_matmul(ctx, A, B))
    # every pair of elements, so each product of digit planes is exercised,
    # and an inner dimension of q summing all elements
    elems = np.arange(q).reshape(1, q)
    table = [[ctx.mul(a, b) for b in range(q)] for a in range(q)]
    assert field_matmul(ctx, elems.T, elems).tolist() == table
    total = functools.reduce(ctx.add, range(q))
    assert field_matmul(ctx, np.ones((1, q), dtype=np.int64), elems.T).tolist() == [[total]]


@pytest.mark.parametrize("block", [1, 5, 64])
@pytest.mark.parametrize("q", [2, 4, 9, 25])
def test_field_matmul_reduces_in_row_blocks(q, block):
    # the reduction mod p runs over blocks of about _REDUCE_BLOCK cells, one
    # row each when a row is larger; every block, the last one short, is reduced
    from prmhull import codes

    ctx = field_for_size(q)
    rng = np.random.default_rng(block * q)
    with mock.patch.object(codes, "_REDUCE_BLOCK", block):
        for r, m, s in [(7, 5, 3), (9, 4, 1), (0, 3, 2), (3, 2, 0)]:
            A = rng.integers(0, q, size=(r, m))
            B = rng.integers(0, q, size=(m, s))
            assert np.array_equal(field_matmul(ctx, A, B), _scalar_matmul(ctx, A, B))


def test_field_matmul_product_over_several_default_blocks():
    # 40 rows of 4,096 cells make three blocks of 16 rows at the default size;
    # over a prime field the integer product mod p is the reference
    from prmhull import codes

    ctx = field_for_size(5)
    rng = np.random.default_rng(5)
    A = rng.integers(0, 5, size=(40, 6))
    B = rng.integers(0, 5, size=(6, 4096))
    assert 40 * 4096 > 2 * codes._REDUCE_BLOCK
    assert np.array_equal(field_matmul(ctx, A, B), A @ B % 5)


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("q", [2, 4, 9, 25])
def test_field_matmul_blocked_over_columns_equals_the_unblocked_product(q, block):
    # column blocks of B whose digit operand holds at most OPERAND_BLOCK
    # cells, one column each when a column is larger
    from prmhull import codes

    ctx = field_for_size(q)
    rng = np.random.default_rng(block + q)
    shapes = [(7, 5, 13), (9, 1, 40), (0, 3, 9), (3, 2, 0), (4, 0, 6), (5, 30, 3)]
    pairs = [
        (rng.integers(0, q, size=(r, m)), rng.integers(0, q, size=(m, s))) for r, m, s in shapes
    ]
    whole = [field_matmul(ctx, A, B) for A, B in pairs]
    assert all(A.shape[1] * ctx.e * B.shape[1] <= codes.OPERAND_BLOCK for A, B in pairs)
    with mock.patch.object(codes, "OPERAND_BLOCK", block):
        for (A, B), product in zip(pairs, whole):
            blocked = field_matmul(ctx, A, B)
            assert blocked.dtype == product.dtype and np.array_equal(blocked, product)
            assert np.array_equal(blocked, _scalar_matmul(ctx, A, B))


@pytest.mark.parametrize("m", [65, 66])
def test_field_matmul_is_exact_on_both_sides_of_the_float32_bound(m):
    # m e (p-1)^2 < 2^24 runs in float32: over GF(509), 65 * 508^2 =
    # 16,774,160 is under it and 66 * 508^2 = 17,032,224 runs in float64
    ctx = field_for_size(509)
    assert (m * 508**2 < 1 << 24) == (m == 65)
    A = np.full((2, m), 508)
    B = np.full((m, 3), 508)
    assert np.array_equal(field_matmul(ctx, A, B), _scalar_matmul(ctx, A, B))
    # with one product 507 * 507 the sum at (0, 0) is odd, and it passes 2^24,
    # past which float32 holds only even integers, exactly at m = 66
    A[0, -1] = B[-1, 0] = 507
    assert ((m - 1) * 508**2 + 507**2 < 1 << 24) == (m == 65)
    assert np.array_equal(field_matmul(ctx, A, B), _scalar_matmul(ctx, A, B))


def test_field_matmul_over_an_extension_field_with_a_large_inner_dimension():
    # GF(3^5): five digit planes summed over 2,000 terms, B split into two
    # column blocks of the default size
    from prmhull import codes

    ctx = field_for_size(243)
    rng = np.random.default_rng(243)
    A = rng.integers(0, 243, size=(2, 2000))
    B = rng.integers(0, 243, size=(2000, 30))
    assert 2000 * ctx.e * 30 > codes.OPERAND_BLOCK
    assert np.array_equal(field_matmul(ctx, A, B), _scalar_matmul(ctx, A, B))


def test_field_matmul_refuses_products_past_float_exactness():
    # m e (p-1)^2 < 2^53 is the exactness bound; empty outer dimensions make
    # an inner dimension of up to 2^53 cost nothing to pass; at q = 2 and 3
    # the bound is met with equality
    for q in (2, 3, 125, 128, 509):
        ctx = field_for_size(q)
        limit = ((1 << 53) - 1) // (ctx.e * (ctx.p - 1) ** 2)
        ok = field_matmul(ctx, np.zeros((0, limit), int), np.zeros((limit, 0), int))
        assert ok.shape == (0, 0)
        with pytest.raises(ValueError, match="exact"):
            field_matmul(ctx, np.zeros((0, limit + 1), int), np.zeros((limit + 1, 0), int))
    with pytest.raises(ValueError):
        field_matmul(field_for_size(4), np.zeros((2, 3), int), np.zeros((2, 3), int))


def test_dual_is_memoised():
    ctx = field_for_size(4)
    c = _random_code(ctx, random.Random(1), 3, 7)
    assert c.dual() is c.dual()
    h = c.hermitian_dual(2)
    assert h.dual() is h.dual()


def test_matrix_is_read_only_uint16():
    ctx = field_for_size(9)
    c = _random_code(ctx, random.Random(2), 3, 6)
    for code in (c, c.dual(), c.hermitian_dual(3), LinearCode.from_rows(ctx, [], n=4)):
        assert code.matrix.dtype == np.uint16
        assert not code.matrix.flags.writeable
        with pytest.raises(ValueError):
            code.matrix[..., :1] = 0


def test_dual_memo_makes_no_reference_cycle():
    ctx = field_for_size(4)
    rng = random.Random(3)
    gc.disable()
    try:
        c = _random_code(ctx, rng, 2, 6)
        d = c.dual()
        h = c.hermitian_dual(2)
        hd = h.dual()
        refs = [weakref.ref(x) for x in (c, d, d.dual(), h, hd)]
        del c, d, h, hd
        # reference counting alone frees them: nothing points back
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


def test_dual_memo_shared_between_threads():
    # library callers may share lru_cached codes across threads; a race on
    # the memo may only duplicate work, never hand out a different dual
    ctx = field_for_size(9)
    codes = [_random_code(ctx, random.Random(seed), 3, 8) for seed in range(16)]
    expected = [LinearCode(ctx, c.n, c.matrix, c.pivots).dual() for c in codes]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [(i, pool.submit(c.dual)) for i, c in enumerate(codes) for _ in range(8)]
            results = [(i, f.result(timeout=60)) for i, f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(d == expected[i] for i, d in results)
    assert all(c.dual() == e for c, e in zip(codes, expected))


# -- minimum weight: information sets, memo, floor, budget ----------------------


def _all_codewords(ctx, matrix):
    """Every codeword of the row space, one per message of itertools.product."""
    k, n = matrix.shape
    msgs = np.array(list(itertools.product(range(ctx.q), repeat=k)), dtype=np.int64)
    msgs = msgs.reshape(ctx.q**k, k)
    ADD, _, MUL, _ = _scalar_tables(ctx)
    acc = np.zeros((len(msgs), n), dtype=np.int64)
    for i in range(k):
        acc = ADD[acc, MUL[msgs[:, i : i + 1], matrix[i][None, :]]]
    return acc


def _brute_weight_outside(ctx, code, sub):
    """Plain minimum weight over code minus sub; None when nothing is left."""
    inside = {tuple(cw) for cw in _all_codewords(ctx, sub.matrix)}
    outside = [cw for cw in _all_codewords(ctx, code.matrix) if tuple(cw) not in inside]
    return min((int(np.count_nonzero(cw)) for cw in outside), default=None)


@st.composite
def _codes_with_subcodes(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
    ctx = field_for_size(q)
    kmax = 0
    while kmax < 8 and q ** (kmax + 1) <= 4096:
        kmax += 1
    k = draw(st.integers(0, kmax))
    # n < 2k leaves the later information sets partial or missing
    n = draw(st.integers(max(k, 1), 2 * k + 2))
    flat = draw(st.lists(st.integers(0, q - 1), min_size=k * n, max_size=k * n))
    columns = [flat[i * k : (i + 1) * k] for i in range(n)]
    # all-zero columns, and columns repeated up to a nonzero scalar
    columns += [[0] * k] * draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 3))):
        col = columns[draw(st.integers(0, n - 1))]
        u = draw(st.integers(1, q - 1))
        columns.append([ctx.mul(u, x) for x in col])
    order = draw(st.permutations(range(len(columns))))
    n = len(columns)
    rows = [[columns[c][i] for c in order] for i in range(k)]
    code = LinearCode.from_rows(ctx, rows, n=n)
    # a unit upper-triangular mix of a row permutation is invertible, so its
    # first s rows span an s-dimensional subcode for every s = 0 .. k
    k = code.k
    ADD, _, MUL, _ = _scalar_tables(ctx)
    perm = draw(st.permutations(range(k)))
    mixed = []
    for i in range(k):
        row = code.matrix[perm[i]].astype(np.int64)
        for l in range(i + 1, k):
            u = draw(st.integers(0, q - 1))
            row = ADD[row, MUL[u, code.matrix[perm[l]]]]
        mixed.append(row)
    subs = [LinearCode.from_rows(ctx, mixed[:s], n=n) for s in range(k + 1)]
    return ctx, code, subs


@given(_codes_with_subcodes(), st.sampled_from([None, 1, 3, 7]))
@settings(max_examples=150, deadline=None)
def test_min_weight_matches_itertools_brute_force(case, block):
    # the small blocks split one level on one information set across
    # several products, so the floor stop also fires mid-level
    from prmhull import codes

    with mock.patch.object(codes, "_MESSAGE_BLOCK", block or codes._MESSAGE_BLOCK):
        _check_min_weight_against_brute_force(*case)


def _check_min_weight_against_brute_force(ctx, code, subs):
    zero = subs[0]
    assert [s.k for s in subs] == list(range(code.k + 1))
    if code.k == 0:
        with pytest.raises(ValueError):
            code.min_weight()
        assert code.min_weight_excluding(zero) is None
        return
    expected_full = _brute_weight_outside(ctx, code, zero)
    for sub in subs:
        expected = _brute_weight_outside(ctx, code, sub)
        cold = LinearCode(ctx, code.n, code.matrix, code.pivots)
        assert cold.min_weight_excluding(sub) == expected  # floor memo cold
        assert cold._min_weight is None or cold._min_weight[0] == expected_full
        assert code.min_weight() == expected_full
        assert code.min_weight_excluding(sub) == expected  # floor memo warm


def test_second_min_weight_call_runs_no_scan(monkeypatch):
    from prmhull import codes

    ctx = field_for_size(5)
    c = _random_code(ctx, random.Random(7), 3, 8)
    w = c.min_weight()

    def no_scan(*_args, **_kwargs):
        raise AssertionError("_brouwer_zimmermann called")

    monkeypatch.setattr(codes, "_brouwer_zimmermann", no_scan)
    assert c.min_weight() == w


def test_memoised_min_weight_still_refuses_over_cap():
    # the cap counts the messages the search enumerates.  This code's search
    # takes W = 6: the 3 weight-1 messages on each of two full information
    # sets, after which the bound 2 + 2 meets the weight 4 found
    ctx = field_for_size(4)

    def fresh():
        return _random_code(ctx, random.Random(8), 3, 7)

    assert fresh().min_weight(cap=6) == 4
    with pytest.raises(EnumerationBudgetError):
        fresh().min_weight(cap=5)
    c = fresh()
    assert c.min_weight() == 4
    assert c.min_weight(cap=6) == 4
    zero = LinearCode.from_rows(ctx, [], n=7)
    for call in (
        lambda: c.min_weight(cap=5),
        lambda: c.min_weight(cap=0),
        lambda: c.min_weight_excluding(zero, cap=5),
    ):
        with pytest.raises(EnumerationBudgetError):
            call()


def test_refused_min_weight_searches_again_only_for_a_cap_past_its_count(monkeypatch):
    # the code of the test above: level 1 costs 3 messages per information
    # set and the weight 4 is decided after W = 6, so cap 0 refuses at 3 and
    # cap 3 at 6.  A refusal is kept; a cap below its count refuses with no
    # search, one at least its count searches again
    from prmhull import codes

    ctx = field_for_size(4)
    c = _random_code(ctx, random.Random(8), 3, 7)
    searches = []
    real = codes._brouwer_zimmermann

    def counted(*args, **kwargs):
        searches.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(codes, "_brouwer_zimmermann", counted)
    for cap, message in [
        (0, "3 messages exceed the cap 0"),
        (0, "3 messages exceed the cap 0"),
        (2, "3 messages exceed the cap 2"),
        (3, "6 messages exceed the cap 3"),
        (5, "6 messages exceed the cap 5"),
        (3, "6 messages exceed the cap 3"),
    ]:
        with pytest.raises(EnumerationBudgetError, match=f"^{message}$") as refused:
            c.min_weight(cap=cap)
        assert refused.value.work == int(message.split()[0])
        copy = pickle.loads(pickle.dumps(refused.value))
        assert (str(copy), copy.work) == (message, refused.value.work)
    assert searches == [0, 3]
    assert c.min_weight(cap=6) == 4
    assert c.min_weight(cap=100) == 4
    assert searches == [0, 3, 6]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_min_weight_word_is_a_nonzero_codeword_of_the_minimum_weight(q):
    ctx = field_for_size(q)
    rng = random.Random(q)
    for k, n in [(1, 4), (2, 6), (3, 7), (4, 9)]:
        c = _random_code(ctx, rng, k, n)
        word = c.min_weight_word()
        assert word.shape == (c.n,) and not word.flags.writeable
        assert word.any() and c.contains(word)
        assert int(np.count_nonzero(word)) == c.min_weight() == _brute_min_weight(ctx, c)


def test_min_weight_word_is_memoised_with_the_weight(monkeypatch):
    from prmhull import codes

    ctx = field_for_size(5)
    first, second = (_random_code(ctx, random.Random(7), 3, 8) for _ in range(2))
    w = first.min_weight()
    word = second.min_weight_word()

    def no_scan(*_args, **_kwargs):
        raise AssertionError("_brouwer_zimmermann called")

    monkeypatch.setattr(codes, "_brouwer_zimmermann", no_scan)
    # either accessor's search serves the other
    assert first.min_weight_word() is first.min_weight_word()
    assert int(np.count_nonzero(first.min_weight_word())) == w
    assert second.min_weight() == w
    assert second.min_weight_word() is word


def _outcome(call):
    """("weight", w) or ("refused", message) of one accessor call."""
    try:
        got = call()
    except EnumerationBudgetError as exc:
        return "refused", str(exc)
    return "weight", got if isinstance(got, int) else int(np.count_nonzero(got))


@pytest.mark.parametrize(
    "make, caps",
    [
        # the cases of test_min_weight_budget
        (lambda: LinearCode.from_rows(field_for_size(9), np.eye(12, dtype=int)), [12]),
        (lambda: LinearCode.from_rows(field_for_size(9), np.eye(12, dtype=int)), [11]),
        # of test_memoised_min_weight_still_refuses_over_cap
        (lambda: _random_code(field_for_size(4), random.Random(8), 3, 7), [6]),
        (lambda: _random_code(field_for_size(4), random.Random(8), 3, 7), [5]),
        (lambda: _random_code(field_for_size(4), random.Random(8), 3, 7), [20_000_000, 6, 5, 0]),
        # of test_refused_min_weight_searches_again_only_for_a_cap_past_its_count
        (
            lambda: _random_code(field_for_size(4), random.Random(8), 3, 7),
            [0, 0, 2, 3, 5, 3, 6, 100],
        ),
    ],
)
def test_min_weight_word_refuses_exactly_where_min_weight_does(monkeypatch, make, caps):
    from prmhull import codes

    searches = {}
    real = codes._brouwer_zimmermann

    def counted(*args, **kwargs):
        searches.setdefault(id(args[0]), []).append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(codes, "_brouwer_zimmermann", counted)
    by_weight, by_word = make(), make()
    for cap in caps:
        assert _outcome(lambda: by_word.min_weight_word(cap=cap)) == _outcome(
            lambda: by_weight.min_weight(cap=cap)
        ), cap
    assert searches[id(by_word)] == searches[id(by_weight)]


def test_min_weight_excluding_refuses_exactly_past_its_own_count():
    # excluding the third row, the search needs W = 24 messages (level 1 on
    # two information sets, then the first set alone to the end) where the
    # full-code weight needs 6, so cap 23 is refused by the excluding search
    # itself, cold or with the full-code weight memoised
    ctx = field_for_size(4)

    def fresh():
        c = _random_code(ctx, random.Random(21), 3, 7)
        return c, LinearCode.from_rows(ctx, c.matrix[2:])

    c, sub = fresh()
    assert c.min_weight_excluding(sub, cap=24) == 4
    assert c.min_weight(cap=6) == 3
    with pytest.raises(EnumerationBudgetError):
        c.min_weight_excluding(sub, cap=23)
    c, sub = fresh()
    with pytest.raises(EnumerationBudgetError):
        c.min_weight_excluding(sub, cap=23)


def test_low_rate_search_costs_little_more_than_every_message():
    # the 13 points of the projective plane over GF(3), each column three
    # times: every nonzero codeword has weight 27, and the 13 disjoint
    # information sets would need level 2 on each for their bound to pass
    # 26.  After level 1 on every set the search finishes on the first set
    # alone, which costs less
    ctx = field_for_size(3)
    points = [
        p for p in itertools.product(range(3), repeat=3) if any(p) and next(x for x in p if x) == 1
    ]
    c = LinearCode.from_rows(ctx, np.array(points * 3).T.tolist())
    assert (c.k, c.n) == (3, 39)
    assert c.min_weight() == 27
    normalised = (3**3 - 1) // 2
    assert c._min_weight[1] <= normalised + 3 * 13


def test_zero_cap_refuses_before_any_elimination_or_product(monkeypatch):
    from prmhull import codes

    ctx = field_for_size(4)
    c = _random_code(ctx, random.Random(9), 3, 7)
    sub = LinearCode.from_rows(ctx, c.matrix[:1])
    calls = []

    def counted(name):
        real = getattr(codes, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("rref", "field_matmul"):
        monkeypatch.setattr(codes, name, counted(name))
    for _ in range(2):  # cold, then with the weights memoised
        for call in (lambda: c.min_weight(cap=0), lambda: c.min_weight_excluding(sub, cap=0)):
            with pytest.raises(EnumerationBudgetError):
                call()
        assert calls == []
        c.min_weight_excluding(sub)
        assert "field_matmul" in calls
        calls.clear()


@pytest.mark.parametrize("block", [1, 5, 1 << 13])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_normalised_messages_are_each_weight_w_message_with_leading_one(q, block):
    from prmhull import codes

    with mock.patch.object(codes, "_MESSAGE_BLOCK", block):
        for k in range(1, 6):
            for w in range(1, k + 1):
                got = [tuple(m) for b in codes._normalised_messages(q, k, w) for m in b]
                expected = {
                    m
                    for m in itertools.product(range(q), repeat=k)
                    if sum(x != 0 for x in m) == w and next(x for x in m if x) == 1
                }
                assert len(got) == len(set(got)) == codes._level_size(q, k, w)
                assert set(got) == expected


def test_encoding_one_is_the_identity_with_digits_one_then_zeros():
    # the minimum-weight search writes its normalised messages with symbol 1
    # first on their support and encodings 1 .. q-1 after it; that relies on
    # encoding 1 being the field's one, digits (1, 0, ..., 0)
    from prmhull.codes import TABLE_LIMIT
    from prmhull.fields import field_make, prime_power

    build = field_make.__wrapped__  # uncached: keep ~100 fields out of the field cache
    for q in range(2, TABLE_LIMIT + 1):
        try:
            p, e = prime_power(q)
        except ValueError:
            continue
        ctx = build(p, e)
        assert [ctx.mul(1, a) for a in range(q)] == list(range(q))
        assert ctx.mul(1, q - 1) == q - 1
        assert tuple(ctx.digits[1]) == (1,) + (0,) * (e - 1)
