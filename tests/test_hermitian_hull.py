import numpy as np
import pytest

from prmhull import codes, hermitian_hull
from prmhull.codes import LinearCode, field_matmul
from prmhull.fields import field_for_size
from prmhull.hermitian_hull import (
    HermHullDim,
    affine_hermitian_hull_dim,
    affine_hull_monomials,
    affine_hull_oracle,
    affine_u_size,
    dual_degree,
    hermitian_hull_basis,
    hermitian_hull_dim,
    hermitian_hull_oracle,
    lambda_expansion,
    power_span_code,
    qadic,
    set_t,
    set_u,
    set_v,
    set_w,
    t_size,
    t_size_closed,
    u_size,
    v_companion,
    verify_hermitian_hull,
    w_companion,
    w_indices,
)
from prmhull.points import affine_points, projective_points
from prmhull.polynomials import (
    SparsePolynomial,
    basis_a1,
    evaluate_monomials,
    evaluate_polynomials,
    format_monomial,
    format_polynomial,
)
from prmhull.prm import bounded_monomials, degree_monomials, prm_code, rm_code


def _scaled(q, monos):
    return [tuple(q * e for e in m) for m in monos]


def _reference_hull(q, d):
    """The evaluation-space Hermitian hull: PRM_d against the code of the
    q-th powers of its monomial evaluations."""
    ctx = field_for_size(q * q)
    power = evaluate_monomials(ctx, projective_points(ctx, 2), _scaled(q, degree_monomials(3, d)))
    return prm_code(ctx, 2, d).relative_hull(LinearCode.from_rows(ctx, power))


def _reference_affine_hull(q, d1, d2):
    """The evaluation-space RM_d1 cap RM_d2^herm, likewise."""
    ctx = field_for_size(q * q)
    monos = _scaled(q, bounded_monomials(2, d2, ctx.q - 1))
    power = evaluate_monomials(ctx, affine_points(ctx, 2), monos)
    return rm_code(ctx, 2, d1).relative_hull(LinearCode.from_rows(ctx, power))


def _evaluated(oracle, pts, monos):
    """The code of the oracle's coefficient rows evaluated at the points."""
    ctx = oracle.ctx
    rows = field_matmul(ctx, oracle.matrix, evaluate_monomials(ctx, pts, monos))
    return LinearCode.from_rows(ctx, rows, n=len(pts))


def _hermitian_evaluated(q, d):
    pts = projective_points(field_for_size(q * q), 2)
    return _evaluated(hermitian_hull_oracle(q, d), pts, degree_monomials(3, d))


def _affine_evaluated(q, d1, d2):
    pts = affine_points(field_for_size(q * q), 2)
    return _evaluated(affine_hull_oracle(q, d1, d2), pts, bounded_monomials(2, d1, q * q - 1))


def test_qadic_expansions():
    assert qadic(7, 3) == (1, 2)
    assert qadic(0, 3) == (0, 0)
    assert qadic(8, 3) == (2, 2)
    with pytest.raises(ValueError):
        qadic(9, 3)
    # dperp = l0 + l1 q + q^2
    assert dual_degree(3, 7) == 9
    assert lambda_expansion(3, 7) == (0, 0)
    assert lambda_expansion(3, 4) == (0, 1)
    with pytest.raises(ValueError):
        lambda_expansion(3, 8)


def test_affine_hull_monomials_examples():
    # only the monomial with both exponents 2 fails the bound at q=3, d=4
    monos = affine_hull_monomials(3, 4, 4)
    assert len(monos) == 14
    assert (2, 2) not in monos
    assert affine_hull_monomials(3, 1, 1) == [(0, 0), (0, 1), (1, 0)]
    assert affine_hull_monomials(2, 0, 5) == [(0, 0)]
    assert affine_hull_monomials(2, 0, 2 * (4 - 1)) == []


def test_set_u_worked_example():
    u = set_u(3, 7)
    assert len(u) == 21
    excluded = [m for m in basis_a1(9, 7) if m not in set(u)]
    assert {m for m in excluded} == {
        (1, 1, 5),
        (1, 2, 4),
        (1, 4, 2),
        (1, 5, 1),
        (3, 2, 2),
        (4, 1, 2),
        (4, 2, 1),
    }


def test_set_u_small_degree_is_a1():
    assert set_u(3, 4) == basis_a1(9, 4)
    assert set_u(2, 1) == [(1, 0, 0)]
    for q in (2, 3, 4):
        for d in range(1, 2 * (q - 1) + 1):
            assert set_u(q, d) == basis_a1(q * q, d), (q, d)


def test_set_t_and_v_worked_example():
    assert set_t(3, 7) == [0]
    assert [format_monomial(m) for m in set_v(3, 7)] == ["x1^7"]
    assert set_t(3, 8) == []  # endpoint degree q^2-1: threshold is strict


def test_t_size_examples():
    assert t_size(3, 7) == 1 == t_size_closed(3, 7)
    assert t_size(3, 4) == 3
    assert t_size(4, 5) == 4


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_t_and_u_formulas_equal_enumeration(q):
    for d in range(1, q * q):
        assert t_size(q, d) == len(set_t(q, d)) == t_size_closed(q, d), (q, d)
        if d < q * q - 1:
            assert u_size(q, d).total == len(set_u(q, d)), (q, d)
            assert affine_u_size(q, d).total == len(affine_hull_monomials(q, d, d)), (q, d)


def test_u_size_components_worked_example():
    uc = u_size(3, 7)
    assert (uc.b1, uc.b2, uc.b3, uc.b4) == (1, 0, 2, 4)
    assert uc.total == 28 - 7 == 21
    assert u_size(3, 4).total == 10
    assert u_size(3, 1).total == 1
    with pytest.raises(ValueError):
        u_size(3, 8)  # lambda expansion undefined at q^2-1


def test_set_w_worked_example():
    w = set_w(3, 7)
    assert len(w) == 1
    assert format_polynomial(w[0]) == "x1^6*x2 + x0^4*x1^2*x2"
    assert w_indices(3, 7) == [1]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_set_w_empty_at_small_degrees(q):
    for d in range(1, 2 * (q - 1) + 1):
        assert set_w(q, d) == [], (q, d)


@pytest.mark.parametrize("q", [2, 3])
def test_power_identities_exhaustive(q):
    """The q-th power partners of the V and W elements evaluate identically."""
    Q = q * q
    ctx = field_for_size(Q)
    pts = projective_points(ctx, 2)
    for d in range(1, Q):
        for a2 in set_t(q, d):
            lhs = SparsePolynomial.monomial(ctx, (0, d - a2, a2))
            assert (lhs.evaluate(pts) == v_companion(q, d, a2).evaluate(pts)).all()
        for w, a2 in zip(set_w(q, d), w_indices(q, d)):
            assert (w.evaluate(pts) == w_companion(q, d, a2).evaluate(pts)).all()


def test_power_identities_sampled_q4():
    ctx = field_for_size(16)
    pts = projective_points(ctx, 2)
    for d in (3, 7, 10, 14, 15):
        for a2 in set_t(4, d):
            lhs = SparsePolynomial.monomial(ctx, (0, d - a2, a2))
            assert (lhs.evaluate(pts) == v_companion(4, d, a2).evaluate(pts)).all()
        for w, a2 in zip(set_w(4, d), w_indices(4, d)):
            assert (w.evaluate(pts) == w_companion(4, d, a2).evaluate(pts)).all()


def test_hull_dim_examples():
    assert hermitian_hull_dim(3, 7) == HermHullDim(23, False)
    assert hermitian_hull_dim(3, 2) == HermHullDim(6, True)
    assert hermitian_hull_dim(3, 1) == HermHullDim(2, True)
    # 4 = 0 mod q-1 at q=3: congruent case, the whole code (oracle-confirmed)
    assert hermitian_hull_dim(3, 4) == HermHullDim(15, True)
    with pytest.raises(ValueError):
        hermitian_hull_dim(3, 8)


def test_hull_basis_modes():
    assert hermitian_hull_basis(3, 4).mode == "exact_congruent"
    assert hermitian_hull_basis(3, 3).mode == "exact_small"
    assert hermitian_hull_basis(3, 7).mode == "lower_bound"
    # degree q^2-1 allowed for the basis statement itself
    assert hermitian_hull_basis(3, 8).mode == "exact_congruent"


@pytest.mark.parametrize("q", [2, 3])
def test_verify_exhaustive_and_tight(q):
    for d in range(1, q * q - 1):
        chk = verify_hermitian_hull(q, d)
        assert chk.ok, (q, d, chk)
        assert chk.spans_or_bound_tight, (q, d, chk)


def test_verify_worked_example():
    chk = verify_hermitian_hull(3, 7)
    assert chk.closed_form == 23 and chk.oracle_dim == 23
    assert not chk.exact and chk.spans_or_bound_tight
    assert chk.independent and chk.contained


@pytest.mark.parametrize("q", [2, 3])
def test_independence_of_uvw(q):
    Q = q * q
    ctx = field_for_size(Q)
    pts = projective_points(ctx, 2)
    for d in range(1, Q):
        basis = hermitian_hull_basis(q, d)
        rows = evaluate_polynomials(ctx, pts, basis.elements())
        assert LinearCode.from_rows(ctx, rows).k == basis.size, (q, d)


@pytest.mark.parametrize("q", [2, 3])
def test_basis_spans_power_space_even_at_top_degree(q):
    """At every degree (including q^2-1) the basis spans the intersection
    with the q-th-power span of the complementary-degree basis."""
    Q = q * q
    ctx = field_for_size(Q)
    pts = projective_points(ctx, 2)
    for d in range(1, Q):
        basis = hermitian_hull_basis(q, d)
        rows = evaluate_polynomials(ctx, pts, basis.elements())
        span = LinearCode.from_rows(ctx, rows)
        target = prm_code(ctx, 2, d).intersect(power_span_code(q, dual_degree(q, d)))
        if basis.mode == "lower_bound":
            assert span.is_subcode_of(target), (q, d)
        else:
            assert span == target, (q, d)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_corner_coordinate_obstruction(q):
    """For d <= 2(q-1) the hull reaches the last coordinate iff d = 0 mod q-1."""
    for d in range(1, 2 * (q - 1) + 1):
        hull = _hermitian_evaluated(q, d)
        assert hull == _reference_hull(q, d), (q, d)
        has = bool(hull.matrix[:, -1].any()) if hull.k else False
        assert has == (d % (q - 1) == 0), (q, d)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_coefficient_oracles_match_the_evaluation_space_reference(q):
    Q = q * q
    for d in range(1, Q - 1):
        assert _hermitian_evaluated(q, d) == _reference_hull(q, d), (q, d)
    for d2 in range(0, 2 * (Q - 1) + 1):
        for d1 in sorted({max(d2 - 1, 0), d2}):
            assert _affine_evaluated(q, d1, d2) == _reference_affine_hull(q, d1, d2), (q, d1, d2)


def _sigma(Q, j):
    """sum over y in GF(Q) of y^j, an element of the prime field: -1 when
    j > 0 and Q-1 divides j, else 0 (the j = 0 sum is Q = 0)."""
    return np.where((j > 0) & (j % (Q - 1) == 0), -1, 0)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_gram_matrix_equals_power_sums(q, monkeypatch):
    """The oracle's Gram entry for monomials a, b is the sum of x^e, e = a + q b,
    over the points: with s = _sigma, over the charts (1, y, z), (0, 1, z) and
    (0, 0, 1) of the plane s(e1)s(e2) + [e0 = 0]s(e2) + [e0 = e1 = 0], and
    over A^2 s(e1)s(e2)."""
    Q = q * q
    p = field_for_size(Q).p
    grams = []

    def capture(ctx, M):
        grams.append(np.array(M).T)
        return codes._null_space(ctx, M)

    monkeypatch.setattr(hermitian_hull, "_null_space", capture)
    for d in range(1, Q - 1):
        hermitian_hull_oracle(q, d)
        monos = np.array(degree_monomials(3, d))
        e = monos[:, None, :] + q * monos[None, :, :]
        s1, s2 = _sigma(Q, e[..., 1]), _sigma(Q, e[..., 2])
        x0_zero = e[..., 0] == 0
        sums = s1 * s2 + x0_zero * s2 + (x0_zero & (e[..., 1] == 0))
        assert (grams.pop() == sums % p).all(), (q, d)
    for d in range(0, 2 * (Q - 1) + 1):
        affine_hull_oracle(q, d, d)
        monos = np.array(bounded_monomials(2, d, Q - 1))
        e = monos[:, None, :] + q * monos[None, :, :]
        sums = _sigma(Q, e[..., 0]) * _sigma(Q, e[..., 1])
        assert (grams.pop() == sums % p).all(), (q, d)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_hermitian_oracle_refuses_degrees_outside_its_range(q):
    # the range of hermitian_hull_dim; the monomials are independent up to q^2
    for d in (0, q * q - 1):
        with pytest.raises(ValueError):
            hermitian_hull_oracle(q, d)


def test_affine_dim_examples():
    assert affine_hermitian_hull_dim(3, 1) == 3
    assert affine_hermitian_hull_dim(3, 4) == 14
    assert affine_hermitian_hull_dim(2, 0) == 1
    assert affine_u_size(3, 4).total == 14


@pytest.mark.parametrize("q", [2, 3])
def test_affine_inclusion_boundary_oracle(q):
    Q = q * q
    ctx = field_for_size(Q)
    for d in range(0, 2 * (Q - 1) + 1):
        code = rm_code(ctx, 2, d)
        included = code.is_subcode_of(code.hermitian_dual(q))
        assert included == (d <= 2 * (q - 1) - 1), (q, d)
        # the code is its own hull exactly when the Gram matrix is zero
        assert (affine_hull_oracle(q, d, d).k == code.k) == included, (q, d)


@pytest.mark.parametrize("q", [2, 3])
def test_affine_hull_dim_matches_oracle(q):
    for d in range(0, q * q - 1):
        assert (
            affine_hull_oracle(q, d, d).k
            == affine_hermitian_hull_dim(q, d)
            == affine_u_size(q, d).total
        ), (q, d)


def test_affine_two_degree_oracle_spot():
    # the two-degree form backs the homogenized set U = U_{d-1,d}
    for q, d in ((2, 2), (3, 5), (3, 7)):
        oracle = affine_hull_oracle(q, d - 1, d)
        assert oracle.k == len(affine_hull_monomials(q, d - 1, d)), (q, d)


@pytest.mark.parametrize("q", [2, 3])
def test_relative_hull_oracles_match_intersections_with_duals(q):
    Q = q * q
    ctx = field_for_size(Q)
    for d in range(1, Q - 1):
        code = prm_code(ctx, 2, d)
        assert _hermitian_evaluated(q, d) == code.intersect(code.hermitian_dual(q)), (q, d)
    for d1 in range(0, 2 * (Q - 1) + 1, 3):
        for d2 in range(0, 2 * (Q - 1) + 1, 2):
            expected = rm_code(ctx, 2, d1).intersect(rm_code(ctx, 2, d2).hermitian_dual(q))
            assert _affine_evaluated(q, d1, d2) == expected, (q, d1, d2)


def test_hermitian_oracles_build_no_dual(monkeypatch):
    ctx = field_for_size(16)
    pts = projective_points(ctx, 2)
    expected = []
    for d in range(1, 15):
        code = prm_code(ctx, 2, d)
        expected.append(code.intersect(code.hermitian_dual(4)))

    def no_dual(self):
        raise AssertionError("LinearCode.dual called")

    real_rref = codes.rref

    def short_rref(ctx, rows):
        # A^2 has 256 points, P^2 273: no elimination as long as either
        assert np.shape(rows)[1] < 256, "an elimination of length n"
        return real_rref(ctx, rows)

    with monkeypatch.context() as patch:
        patch.setattr(LinearCode, "dual", no_dual)
        patch.setattr(codes, "rref", short_rref)
        patch.setattr(hermitian_hull, "rref", short_rref)
        oracles = [hermitian_hull_oracle(4, d) for d in range(1, 15)]
        checks = [verify_hermitian_hull(4, d) for d in range(1, 15)]
        affine = affine_hull_oracle(4, 5, 5)
    evaluated = [_evaluated(o, pts, degree_monomials(3, d)) for d, o in enumerate(oracles, 1)]
    assert evaluated == expected
    assert all(chk.ok for chk in checks)
    assert affine.k == affine_hermitian_hull_dim(4, 5)


@pytest.mark.parametrize("q, d", [(3, 3), (3, 7), (4, 5), (4, 7)])
def test_coordinate_check_refuses_broken_bases(q, d, monkeypatch):
    from dataclasses import replace

    Q = q * q
    ctx = field_for_size(Q)
    pts = projective_points(ctx, 2)
    reference = _reference_hull(q, d)
    basis = hermitian_hull_basis(q, d)
    first = basis.set_u[0]
    outside = next(
        m
        for m in degree_monomials(3, d)
        if not reference.contains(evaluate_monomials(ctx, pts, [m])[0])
    )
    broken = {
        "U monomial dropped": replace(basis, set_u=basis.set_u[1:]),
        "U monomial duplicated": replace(basis, set_u=basis.set_u + (first,)),
        "monomial outside the hull added": replace(basis, set_u=basis.set_u + (outside,)),
    }
    for fault, b in broken.items():
        monkeypatch.setattr(hermitian_hull, "hermitian_hull_basis", lambda *_: b)
        chk = verify_hermitian_hull(q, d)
        assert chk.oracle_dim == reference.k, fault
        # what a length-n elimination of the basis rows says
        span = LinearCode.from_rows(ctx, evaluate_polynomials(ctx, pts, b.elements()))
        expected = (span.k == b.size, span.is_subcode_of(reference), span == reference)
        assert (chk.independent, chk.contained, chk.spans_or_bound_tight) == expected, fault
        assert not all(expected), fault
