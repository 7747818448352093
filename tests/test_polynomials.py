import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prmhull.codes import LinearCode
from prmhull.fields import field_for_size
from prmhull.points import affine_points, projective_points
from prmhull.polynomials import (
    SparsePolynomial,
    basis_ad,
    evaluate_monomials,
    evaluate_polynomials,
    format_monomial,
    format_polynomial,
    ideal_generators_pm,
    overline,
    parse_polynomial,
    reduce_mod_ip2,
    standard_basis_p2,
)

SWEEP_Q = [2, 3, 4, 5, 7, 8, 9]


def test_overline_examples():
    for q in (2, 3, 4, 5, 9):
        assert overline(0, q) == 0
        assert overline(q, q) == 1
        assert overline(q - 1, q) == q - 1


@given(z=st.integers(0, 10_000), q=st.integers(2, 300))
@settings(max_examples=200)
def test_overline_is_the_canonical_representative(z, q):
    r = overline(z, q)
    if z == 0:
        assert r == 0
    else:
        assert 1 <= r <= q - 1
        assert (r - z) % (q - 1) == 0


def test_reduce_examples():
    g4 = field_for_size(4)
    f = SparsePolynomial.monomial(g4, (0, 5, 0))
    assert format_polynomial(reduce_mod_ip2(f)) == "x1^2"
    f = SparsePolynomial.monomial(g4, (5, 0, 3))
    assert format_polynomial(reduce_mod_ip2(f)) == "x0*x2^3"
    g5 = field_for_size(5)
    f = SparsePolynomial.monomial(g5, (3, 1, 2))
    assert (
        format_polynomial(reduce_mod_ip2(f))
        == "x1*x2^2 + x0*x2^2 + 4*x2^2 + x0*x1 + 4*x1 + 4*x0 + 1"
    )


def test_reduce_rejects_wrong_arity():
    g4 = field_for_size(4)
    with pytest.raises(ValueError):
        reduce_mod_ip2(SparsePolynomial.monomial(g4, (1, 2)))


def _random_poly(ctx, rng, max_exp):
    terms = {}
    for _ in range(rng.randint(1, 8)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(3))
        terms[mono] = rng.randint(1, ctx.q - 1)
    return SparsePolynomial(ctx, 3, terms)


@pytest.mark.parametrize("q", SWEEP_Q)
def test_normal_form_soundness_random(q):
    """Reduction preserves evaluations at every plane point (100 random f)."""
    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    rng = random.Random(q)
    support = set(standard_basis_p2(q))
    for _ in range(100):
        f = _random_poly(ctx, rng, 2 * (q - 1))
        g = reduce_mod_ip2(f)
        assert set(g.terms) <= support
        assert (f.evaluate(pts) == g.evaluate(pts)).all()


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_normal_form_soundness_large_exponents(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    nterms = data.draw(st.integers(1, 5))
    terms = {}
    for _ in range(nterms):
        mono = tuple(data.draw(st.integers(0, 6 * q)) for _ in range(3))
        terms[mono] = data.draw(st.integers(1, q - 1))
    f = SparsePolynomial(ctx, 3, terms)
    g = reduce_mod_ip2(f)
    assert (f.evaluate(pts) == g.evaluate(pts)).all()


@pytest.mark.parametrize("q", SWEEP_Q)
def test_standard_basis_evaluations_invertible(q):
    """Equal evaluations iff equal normal forms: the basis matrix has full rank."""
    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    basis = standard_basis_p2(q)
    assert len(basis) == q * q + q + 1 == len(pts)
    rows = evaluate_monomials(ctx, pts, basis)
    assert LinearCode.from_rows(ctx, rows).k == len(pts)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [2, 3])
def test_ideal_generators_vanish_on_all_points(q, m):
    ctx = field_for_size(q)
    pts = projective_points(ctx, m)
    for g in ideal_generators_pm(ctx, m):
        assert not g.evaluate(pts).any()


def test_ideal_generator_shapes_m2():
    ctx = field_for_size(4)
    gens = ideal_generators_pm(ctx, 2)
    assert len(gens) == 5
    # x0^2 - x0 and the final (x0-1)(x1-1)(x2-1)
    assert gens[0].terms == {(2, 0, 0): 1, (1, 0, 0): ctx.neg(1)}
    assert (0, 0, 0) in gens[-1].terms


def test_basis_ad_running_example():
    a1, a2, a3 = basis_ad(4, 4)
    assert [format_monomial(m) for m in a1] == [
        "x0^4",
        "x0^3*x1",
        "x0^3*x2",
        "x0^2*x1^2",
        "x0^2*x1*x2",
        "x0^2*x2^2",
        "x0*x1^3",
        "x0*x1^2*x2",
        "x0*x1*x2^2",
        "x0*x2^3",
    ]
    assert len(a2) == 4 and len(a3) == 1
    assert len(a1) + len(a2) + len(a3) == 15


def test_basis_ad_degree_one():
    for q in (3, 5):
        a1, a2, a3 = basis_ad(q, 1)
        assert a1 == [(1, 0, 0)] and a2 == [(0, 1, 0)] and a3 == [(0, 0, 1)]


@pytest.mark.parametrize("q", SWEEP_Q)
def test_basis_ad_evaluations_independent(q):
    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    for d in range(1, 2 * (q - 1) + 1):
        a1, a2, a3 = basis_ad(q, d)
        monos = a1 + a2 + a3
        rows = evaluate_monomials(ctx, pts, monos)
        assert LinearCode.from_rows(ctx, rows).k == len(monos), (q, d)


def test_basis_ad_range_check():
    with pytest.raises(ValueError):
        basis_ad(4, 0)
    with pytest.raises(ValueError):
        basis_ad(4, 7)


def test_evaluate_constant_and_chart_structure():
    g2 = field_for_size(2)
    pts = projective_points(g2, 2)
    one = SparsePolynomial.constant(g2, 3, 1)
    assert one.evaluate(pts).tolist() == [1] * 7
    x0 = SparsePolynomial.monomial(g2, (1, 0, 0))
    assert x0.evaluate(pts).tolist() == [1, 1, 1, 1, 0, 0, 0]


def test_exponent_zero_differs_from_q_minus_one():
    g4 = field_for_size(4)
    pts = projective_points(g4, 2)
    ev1 = SparsePolynomial.constant(g4, 3, 1).evaluate(pts)
    evq = SparsePolynomial.monomial(g4, (3, 0, 0)).evaluate(pts)
    diff = ev1 != evq
    assert diff.sum() == 5  # the q+1 points outside the first chart
    assert not diff[:16].any()


def _scalar_value(ctx, f, point):
    """f at one point by scalar field arithmetic alone."""
    acc = 0
    for mono, c in f.terms.items():
        term = c
        for x, a in zip(point, mono):
            term = ctx.mul(term, ctx.pow(x, a))
        acc = ctx.add(acc, term)
    return acc


@pytest.mark.parametrize("kind", ["projective", "affine"])
@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27])
def test_evaluation_matches_scalar_arithmetic(q, kind):
    ctx = field_for_size(q)
    pts = projective_points(ctx, 2) if kind == "projective" else affine_points(ctx, 2)
    nv = pts.arity
    rng = random.Random(q)
    # 0 and q-1 evaluate differently at zero coordinates; the rest wrap mod q-1
    exponents = [0, 1, q - 1, 2 * (q - 1), 3 * (q - 1), q, q + 1, 3 * q + 2]
    monos = [(0,) * nv, (q - 1,) * nv]
    monos += [tuple(rng.choice(exponents) for _ in range(nv)) for _ in range(10)]
    polys = [SparsePolynomial.zero(ctx, nv)]
    for size in (1, 3, 6):
        terms = {m: rng.randint(1, q - 1) for m in rng.sample(monos, size)}
        polys.append(SparsePolynomial(ctx, nv, terms))
    assert evaluate_monomials(ctx, pts, monos).tolist() == [
        [_scalar_value(ctx, SparsePolynomial.monomial(ctx, m), x) for x in pts.points] for m in monos
    ]
    assert evaluate_polynomials(ctx, pts, polys).tolist() == [
        [_scalar_value(ctx, f, x) for x in pts.points] for f in polys
    ]
    assert evaluate_monomials(ctx, pts, []).shape == (0, len(pts))
    assert evaluate_polynomials(ctx, pts, []).shape == (0, len(pts))


def test_negative_and_non_integer_exponents_are_refused():
    ctx = field_for_size(4)
    pts = projective_points(ctx, 2)
    for mono in [(-1, 2, 0), (1.5, 0, 0), (0, 2.0, 0)]:
        with pytest.raises(ValueError, match="exponent"):
            SparsePolynomial(ctx, 3, {mono: 1})
        with pytest.raises(ValueError, match="exponent"):
            evaluate_monomials(ctx, pts, [(1, 0, 0), mono])
    # x0^-2*x0^3 would sum to x0 and hide the negative factor
    for text in ["x0^-1*x1^2", "x1^2*x0^-1", "x0^-2*x0^3"]:
        with pytest.raises(ValueError, match="exponent"):
            parse_polynomial(ctx, 3, text)
    for text in ["x0^1.5", "x0^"]:
        with pytest.raises(ValueError):
            parse_polynomial(ctx, 3, text)
    with pytest.raises(ValueError, match="variables"):
        evaluate_monomials(ctx, pts, [(1, 0)])


def test_non_integer_coefficients_are_refused():
    # evaluation would truncate 1.5 to 1
    ctx = field_for_size(3)
    for coeff in (1.5, 2.0, np.float64(1)):
        with pytest.raises(ValueError, match="encoding"):
            SparsePolynomial(ctx, 2, {(1, 0): coeff})
        with pytest.raises(ValueError, match="encoding"):
            SparsePolynomial.from_term_list(ctx, 2, [((1, 0), coeff)])
    assert SparsePolynomial(ctx, 2, {(1, 0): np.int64(2)}).terms == {(1, 0): 2}


def test_evaluation_refuses_another_fields_points_and_polynomials():
    g4, g8 = field_for_size(4), field_for_size(8)
    pts8 = projective_points(g8, 2)
    f4 = SparsePolynomial(g4, 3, {(1, 0, 0): 2})
    with pytest.raises(ValueError, match="different field"):
        evaluate_polynomials(g8, pts8, [f4])
    with pytest.raises(ValueError, match="different field"):
        evaluate_monomials(g8, projective_points(g4, 2), [(1, 0, 0)])
    with pytest.raises(ValueError, match="different field"):
        f4.evaluate(pts8)
    # the zero polynomial has no monomial whose length could give its arity away
    for f in [SparsePolynomial(g8, 2, {(1, 0): 1}), SparsePolynomial.zero(g8, 2)]:
        with pytest.raises(ValueError, match="arity"):
            evaluate_polynomials(g8, pts8, [f])
        with pytest.raises(ValueError, match="arity"):
            f.evaluate(pts8)


def test_format_examples():
    g4 = field_for_size(4)
    f = SparsePolynomial(g4, 3, {(0, 0, 4): 1, (0, 2, 2): 1, (2, 0, 2): 1, (2, 1, 1): 1})
    assert format_polynomial(f) == "x2^4 + x1^2*x2^2 + x0^2*x2^2 + x0^2*x1*x2"
    assert format_polynomial(SparsePolynomial.zero(g4, 3)) == "0"
    assert format_polynomial(SparsePolynomial.constant(g4, 3, 1)) == "1"
    assert format_polynomial(SparsePolynomial.constant(g4, 3, 3)) == "3"


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_format_parse_round_trip(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 9]))
    ctx = field_for_size(q)
    nterms = data.draw(st.integers(0, 6))
    terms = {}
    for _ in range(nterms):
        mono = tuple(data.draw(st.integers(0, 7)) for _ in range(3))
        terms[mono] = data.draw(st.integers(1, q - 1))
    f = SparsePolynomial(ctx, 3, terms)
    assert parse_polynomial(ctx, 3, format_polynomial(f)) == f
    # an explicit zero exponent parses to the empty factor, which prints as nothing
    assert format_polynomial(parse_polynomial(ctx, 3, "x0^0*x1^2*x2^3")) == "x1^2*x2^3"


def test_scalar_evaluation_fallback_large_field():
    """There is no scalar fallback: above the dense-table limit evaluation refuses."""
    from prmhull.fields import field_make
    from prmhull.points import affine_points

    ctx = field_make(5, 4)  # GF(625): no dense tables
    pts = affine_points(ctx, 1)
    f = SparsePolynomial(ctx, 1, {(2,): 3, (0,): 1})
    with pytest.raises(ValueError, match="dense tables"):
        f.evaluate(pts)
    with pytest.raises(ValueError, match="dense tables"):
        evaluate_monomials(ctx, pts, [(2,)])


def test_arithmetic_and_degree_helpers():
    g3 = field_for_size(3)
    x = SparsePolynomial.monomial(g3, (1, 0, 0))
    y = SparsePolynomial.monomial(g3, (0, 1, 0))
    f = (x + y) * (x - y)
    assert f.terms == {(2, 0, 0): 1, (0, 2, 0): 2}
    assert f.degree() == 2 and f.is_homogeneous()
    assert (f - f).is_zero()
    assert SparsePolynomial.from_term_list(
        g3, 3, [((1, 0, 0), 1), ((1, 0, 0), 2)]
    ).is_zero()


@pytest.mark.parametrize("coeff", [-1, 9, 10])
def test_coefficients_outside_the_encodings_are_refused(coeff):
    # over GF(9), -1 mod 9 is encoding 8 (2 + 2x), not ctx.neg(1) = 2
    ctx = field_for_size(9)
    with pytest.raises(ValueError, match="encoding"):
        SparsePolynomial(ctx, 3, {(1, 0, 0): coeff})
    with pytest.raises(ValueError, match="encoding"):
        SparsePolynomial.from_term_list(ctx, 3, [((1, 0, 0), 1), ((1, 0, 0), coeff)])
    with pytest.raises(ValueError, match="encoding"):
        parse_polynomial(ctx, 3, f"{coeff}*x0")
    assert SparsePolynomial(ctx, 3, {(1, 0, 0): ctx.neg(1)}) == parse_polynomial(ctx, 3, "2*x0")
