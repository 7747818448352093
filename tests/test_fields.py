import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prmhull.codes import TABLE_LIMIT, kernel_tables
from prmhull.fields import FieldContext, field_for_size, field_make, is_prime, prime_power

SMALL_SIZES = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]
# a field is its digit rows and its log/antilog pair, at every size
FIELD_ATTRIBUTES = {
    "p", "e", "q", "modulus", "_place", "digits", "generator", "exp_table", "log_table"
}


def test_modulus_gf4_is_the_unique_irreducible_quadratic():
    assert field_make(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1


def test_modulus_prime_field_is_x():
    assert field_make(3, 1).modulus == (0, 1)


def test_modulus_gf9_lex_smallest():
    assert field_make(3, 2).modulus == (1, 0, 1)  # x^2 + 1


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(2, 0)
    with pytest.raises(ValueError):
        field_make(2, 17)
    with pytest.raises(ValueError):
        field_for_size(12)
    for q in (-1, 0, 1, 100, 65535):
        with pytest.raises(ValueError):
            prime_power(q)


@pytest.mark.parametrize("q, expected", [(2, (2, 1)), (9, (3, 2)), (64, (2, 6)), (625, (5, 4))])
def test_prime_power_factors(q, expected):
    assert prime_power(q) == expected


def test_contexts_are_cached_singletons():
    assert field_make(2, 2) is field_make(2, 2)
    assert field_for_size(4) is field_make(2, 2)


def test_char2_addition_and_generator_arithmetic():
    g4 = field_make(2, 2)
    assert g4.add(1, 1) == 0
    g = 2  # the class of x
    assert g4.mul(g, g) == g4.add(g, 1)
    assert g4.inv(g) == g4.add(g, 1)
    assert g4.div(g, g) == 1


def test_sub_and_neg():
    g5 = field_for_size(5)
    a, b = 2, 4
    assert g5.sub(a, b) == 3
    assert g5.neg(b) == 1
    assert g5.sub(a, a) == 0
    g4 = field_for_size(4)
    assert g4.neg(2) == 2  # characteristic 2


def test_pow_conventions():
    g9 = field_make(3, 2)
    assert g9.pow(0, 0) == 1
    assert g9.pow(0, 5) == 0
    assert g9.pow(7, 0) == 1
    with pytest.raises(ValueError):
        g9.pow(2, -1)


def test_division_by_zero():
    g4 = field_make(2, 2)
    with pytest.raises(ZeroDivisionError):
        g4.inv(0)
    with pytest.raises(ZeroDivisionError):
        g4.div(1, 0)


@pytest.mark.parametrize("q", SMALL_SIZES)
def test_field_axioms_exhaustive_small(q):
    ctx = field_for_size(q)
    n = min(q, 16)  # full axiom triples only for tiny fields
    for x in range(n):
        for y in range(n):
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
            for z in range(n):
                assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
                assert ctx.add(ctx.add(x, y), z) == ctx.add(x, ctx.add(y, z))


@given(
    q=st.sampled_from([32, 49, 64, 81, 121, 125, 128, 243, 251, 256]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_field_axioms_sampled_larger(q, data):
    ctx = field_for_size(q)
    x = data.draw(st.integers(0, q - 1))
    y = data.draw(st.integers(0, q - 1))
    z = data.draw(st.integers(0, q - 1))
    assert ctx.add(x, y) == ctx.add(y, x)
    assert ctx.mul(x, y) == ctx.mul(y, x)
    assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
    if x:
        assert ctx.mul(x, ctx.inv(x)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 128, 243, 251, 256])
def test_unit_group_and_frobenius_fixed_points(q):
    ctx = field_for_size(q)
    for a in range(q):
        assert ctx.pow(a, q) == a
        if a:
            assert ctx.pow(a, q - 1) == 1


@pytest.mark.parametrize("base_q", [2, 3, 4])
def test_frobenius_is_an_automorphism(base_q):
    ctx = field_for_size(base_q * base_q)
    q2 = ctx.q
    for a in range(q2):
        fa = ctx.pow(a, base_q)
        assert ctx.pow(fa, base_q) == a  # order two on GF(q^2)
    # prime subfield (encodings 0..p-1) is fixed pointwise
    for a in range(ctx.p):
        assert ctx.pow(a, base_q) == a
    for a in range(q2):
        for b in range(q2):
            fa, fb = ctx.pow(a, base_q), ctx.pow(b, base_q)
            assert ctx.pow(ctx.add(a, b), base_q) == ctx.add(fa, fb)
            assert ctx.pow(ctx.mul(a, b), base_q) == ctx.mul(fa, fb)


def test_generator_has_full_order():
    for q in SMALL_SIZES:
        ctx = field_for_size(q)
        g = ctx.generator
        seen = set()
        v = 1
        for _ in range(q - 1):
            seen.add(v)
            v = ctx.mul(v, g)
        assert len(seen) == q - 1 and v == 1


def test_reducible_modulus_is_refused():
    # x^2 - 1 = (x - 1)(x + 1): no element has order 8, and the search ends
    with pytest.raises(AssertionError, match="order q-1"):
        FieldContext(3, 2, (2, 0, 1))


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


@pytest.mark.parametrize("q", [625, 65536, 65521])
def test_large_field_scalar_paths(q):
    """Fields above the dense-table limit still do exact scalar arithmetic."""
    ctx = field_for_size(q)
    with pytest.raises(ValueError, match="dense tables"):
        kernel_tables(ctx)
    assert set(vars(ctx)) == FIELD_ATTRIBUTES
    a, b = 617, 7
    assert ctx.mul(a, ctx.inv(a)) == 1
    assert ctx.pow(a, ctx.q) == a
    c = ctx.pow(b, ctx.p)
    assert ctx.pow(c, ctx.q // ctx.p) == b
    for x, y in [(a, b), (b, a), (q - 1, q - 1), (q - 1, 1), (0, a)]:
        assert ctx.sub(ctx.add(x, y), y) == x
        assert ctx.add(x, ctx.neg(x)) == 0
        assert ctx.neg(ctx.neg(x)) == x
    assert ctx.exp_table.shape == (q,) and ctx.exp_table[q - 1] == 1
    assert np.array_equal(np.sort(ctx.exp_table[: q - 1]), np.arange(1, q))


# -- reference: schoolbook arithmetic on digit polynomials mod the modulus -----

REFERENCE_SIZES = [2, 3, 4, 8, 9, 16, 25, 27, 49, 125, 243, 625]


def _ref_digits(ctx, a):
    return [a // ctx.p**i % ctx.p for i in range(ctx.e)]


def _ref_encode(ctx, digits):
    return sum(c * ctx.p**i for i, c in enumerate(digits))


def _ref_add(ctx, a, b):
    da, db = _ref_digits(ctx, a), _ref_digits(ctx, b)
    return _ref_encode(ctx, [(x + y) % ctx.p for x, y in zip(da, db)])


def _ref_mul(ctx, a, b):
    """The product of the digit polynomials, reduced with x^e = -(m_0 + ... + m_{e-1} x^{e-1})."""
    p, e, m = ctx.p, ctx.e, ctx.modulus
    assert len(m) == e + 1 and m[e] == 1
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(_ref_digits(ctx, a)):
        for j, y in enumerate(_ref_digits(ctx, b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for k in reversed(range(e, 2 * e - 1)):
        c, prod[k] = prod[k], 0
        for j in range(e):
            prod[k - e + j] = (prod[k - e + j] - c * m[j]) % p
    return _ref_encode(ctx, prod[:e])


def _ref_order(ctx, a):
    """Multiplicative order of a, or None when no power below q is 1."""
    v = a
    for n in range(1, ctx.q):
        if v == 1:
            return n
        v = _ref_mul(ctx, v, a)
    return None


@pytest.mark.parametrize("q", REFERENCE_SIZES)
def test_arithmetic_matches_schoolbook_reference(q):
    ctx = field_for_size(q)
    if q <= 16:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = np.random.default_rng(q)
        pairs = [(0, q - 1), (1, q - 1), (q - 1, q - 1)] + rng.integers(0, q, (300, 2)).tolist()
    for a, b in pairs:
        assert ctx.mul(a, b) == _ref_mul(ctx, a, b)
        assert ctx.add(a, b) == _ref_add(ctx, a, b)
    assert ctx.generator == next(g for g in range(1, q) if _ref_order(ctx, g) == q - 1)


@pytest.mark.parametrize("q", [q for q in REFERENCE_SIZES if q <= TABLE_LIMIT])
def test_kernel_tables_match_schoolbook_reference(q):
    ctx = field_for_size(q)
    mul, sub, shift = kernel_tables(ctx)
    assert (mul.shape, mul.dtype, sub.shape, sub.dtype) == ((q, q), np.int64, (q, q), np.int64)
    assert (shift.shape, shift.dtype) == ((ctx.e, q, ctx.e), np.float64)
    if q <= 16:
        pairs = [(a, b) for a in range(q) for b in range(q)]
    else:
        rng = np.random.default_rng(q)
        pairs = [(0, q - 1), (q - 1, 0), (q - 1, q - 1)] + rng.integers(0, q, (300, 2)).tolist()
    for a, b in pairs:
        assert mul[a, b] == _ref_mul(ctx, a, b)
        assert _ref_add(ctx, int(sub[a, b]), b) == a
    for t in range(ctx.e):
        for a in range(q):
            x_t_a = _ref_mul(ctx, ctx.p**t, a)  # x^t is encoded as p^t
            assert shift[t, a].tolist() == _ref_digits(ctx, x_t_a)
    # the tables are built once per field, and the field keeps none of them
    assert kernel_tables(ctx) is kernel_tables(ctx)
    assert set(vars(ctx)) == FIELD_ATTRIBUTES
