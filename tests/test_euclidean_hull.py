import pytest

from prmhull.codes import LinearCode
from prmhull.euclidean_hull import (
    DualNotPrmError,
    extended_dual_hull_oracle,
    hull_dim_with_dual,
    hull_oracle,
    membership_identity,
    q_polynomial,
    relative_hull_basis,
    relative_hull_dim,
    self_hull_basis,
    self_hull_dim,
    verify_relative_hull,
    verify_relative_hulls,
    y_set,
)
from prmhull.fields import field_for_size
from prmhull.points import projective_points
from prmhull.polynomials import (
    SparsePolynomial,
    evaluate_monomials,
    evaluate_polynomials,
    format_monomial,
    format_polynomial,
)
from prmhull.prm import prm_code, prm_params


def test_q_polynomial_worked_example():
    qpoly, companion = q_polynomial(4, 4, 5)
    assert format_polynomial(qpoly) == "x2^4 + x1^2*x2^2 + x0^2*x2^2 + x0^2*x1*x2"
    assert format_polynomial(companion) == "x2^5 + x0*x1^2*x2^2 + x1^4*x2 + x0^4*x2"
    assert qpoly.degree() == 4 and qpoly.is_homogeneous()
    assert companion.degree() == 5 and companion.is_homogeneous()


@pytest.mark.parametrize(
    "q,d1,d2", [(4, 4, 5), (5, 5, 6), (5, 6, 7), (7, 7, 9), (9, 9, 12)]
)
def test_q_polynomial_evaluation_pairing(q, d1, d2):
    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    qpoly, companion = q_polynomial(q, d1, d2)
    assert (qpoly.evaluate(pts) == companion.evaluate(pts)).all()


def test_q_polynomial_preconditions():
    with pytest.raises(ValueError):
        q_polynomial(4, 2, 5)  # d1 < q
    with pytest.raises(ValueError):
        q_polynomial(4, 4, 4)  # needs d1 < d2


def test_y_set_convention():
    assert y_set(4, 4, 5) == [0, 1]
    assert y_set(4, 1, 2) == []  # d2 < q
    assert y_set(5, 2, 5) == [0]


def test_basis_worked_example_13_elements():
    basis = relative_hull_basis(4, 4, 5)
    assert not basis.congruent
    assert basis.dimension == 13
    assert [format_monomial(m) for m in basis.part_y] == ["x1^4", "x1^3*x2"]
    assert basis.part_q is not None
    assert len(basis.part_a1) == 10
    assert basis.past_a1() == basis.polynomials()[10:]


def test_basis_congruent_case():
    basis = relative_hull_basis(4, 1, 4)
    assert basis.congruent and basis.dimension == 3
    names = [format_polynomial(p) for p in basis.polynomials()]
    assert names == ["x0", "x1", "x2"]
    assert [format_polynomial(p) for p in basis.past_a1()] == ["x1", "x2"]


def test_basis_low_degree_case():
    basis = relative_hull_basis(4, 1, 2)
    assert basis.dimension == 1
    assert [format_monomial(m) for m in basis.part_a1] == ["x0"]


def test_dim_examples():
    assert relative_hull_dim(4, 4, 5) == 13
    assert relative_hull_dim(5, 2, 5) == 4
    # non-congruent d2 <= q-1 branch (oracle-confirmed; see also test below)
    assert relative_hull_dim(3, 1, 2) == 1
    assert relative_hull_dim(3, 1, 3) == prm_params(3, 2, 1).k == 3


def test_inputs_are_sorted():
    assert relative_hull_dim(4, 5, 4) == relative_hull_dim(4, 4, 5)
    b = relative_hull_basis(4, 5, 4)
    assert (b.d1, b.d2) == (4, 5)


def test_membership_identity_worked_example():
    lhs, rhs = membership_identity(4, 4, 5, 0)
    assert format_monomial(lhs) == "x1^4"
    assert format_polynomial(rhs) == "x1^5 + x0*x1^4 + x0^3*x1^2"
    lhs, rhs = membership_identity(4, 4, 5, 1)
    assert format_polynomial(rhs) == "x1^4*x2 + x0*x1^3*x2 + x0^3*x1*x2"
    with pytest.raises(ValueError):
        membership_identity(4, 4, 5, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_membership_identity_evaluations(q):
    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    for d1 in range(1, 2 * (q - 1) + 1):
        for d2 in range(d1 + 1, 2 * (q - 1) + 1):
            if (d2 - d1) % (q - 1) == 0:
                continue
            for a2 in y_set(q, d1, d2):
                lhs, rhs = membership_identity(q, d1, d2, a2)
                lp = SparsePolynomial.monomial(ctx, lhs)
                assert (lp.evaluate(pts) == rhs.evaluate(pts)).all(), (q, d1, d2, a2)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_a1_members_lie_in_higher_degrees(q):
    """Every A_1^{d1} evaluation is inside PRM_{d2} for d2 > d1."""
    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    for d1 in range(1, 2 * (q - 1)):
        basis = relative_hull_basis(q, d1, d1)  # A_1 via the congruent path
        rows = evaluate_monomials(ctx, pts, list(basis.part_a1))
        for d2 in range(d1 + 1, 2 * (q - 1) + 1):
            code = prm_code(ctx, 2, d2)
            assert LinearCode.from_rows(ctx, rows).is_subcode_of(code), (q, d1, d2)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_pure_a2_membership_is_characterized_by_y(q):
    """Single A_2 monomials are in PRM_{d2} iff the index is in Y, and one
    random combination with support outside Y is not."""
    import random

    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    rng = random.Random(q)
    for d1 in range(1, 2 * (q - 1) + 1):
        for d2 in range(d1 + 1, 2 * (q - 1) + 1):
            if (d2 - d1) % (q - 1) == 0:
                continue
            code = prm_code(ctx, 2, d2)
            y = set(y_set(q, d1, d2))
            indices = range(min(q - 1, d1 - 1) + 1)
            for a2 in indices:
                row = evaluate_monomials(ctx, pts, [(0, d1 - a2, a2)])[0]
                assert code.contains(row) == (a2 in y), (q, d1, d2, a2)
            outside = [a2 for a2 in indices if a2 not in y]
            if outside:
                support = sorted(set(list(y)[:1] + [rng.choice(outside)]))
                poly = SparsePolynomial(
                    ctx, 3, {(0, d1 - a2, a2): rng.randint(1, q - 1) for a2 in support}
                )
                assert not code.contains(poly.evaluate(pts)), (q, d1, d2, support)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_top_corner_obstruction(q):
    """No intersection member is nonzero at the last point unless d1 >= q
    (or the degrees are congruent); the four-term polynomial provides one."""
    for d1 in range(1, 2 * (q - 1) + 1):
        for d2 in range(d1 + 1, 2 * (q - 1) + 1):
            if (d2 - d1) % (q - 1) == 0:
                continue
            oracle = hull_oracle(q, d1, d2)
            has_corner = bool(oracle.matrix[:, -1].any()) if oracle.k else False
            assert has_corner == (d1 >= q), (q, d1, d2)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_formula_oracle_and_span_small(q):
    for d1 in range(1, 2 * (q - 1) + 1):
        for d2 in range(d1, 2 * (q - 1) + 1):
            chk = verify_relative_hull(q, d1, d2)
            assert chk.ok, (q, d1, d2, chk)


def test_self_hull_examples():
    assert self_hull_dim(5, 2) == 6  # 2d = 0 mod q-1: the whole code
    assert self_hull_dim(4, 1) == 2
    assert self_hull_dim(7, 2) == 5
    basis = self_hull_basis(4, 1)
    assert basis.dimension == 2
    with pytest.raises(ValueError):
        self_hull_basis(4, 4)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_self_hull_matches_true_dual_oracle(q):
    ctx = field_for_size(q)
    for d in range(1, 2 * (q - 1) + 1):
        code = prm_code(ctx, 2, d)
        oracle = code.intersect(code.dual())
        assert self_hull_dim(q, d) == oracle.k, (q, d)
    assert self_hull_dim(q, 2 * (q - 1)) == 0


def test_extended_dual_oracle_endpoint():
    assert extended_dual_hull_oracle(4, 6, 6).k == 0


@pytest.mark.parametrize("q", [3, 4, 5])
def test_hull_dim_with_dual_matches_true_dual_oracle(q):
    ctx = field_for_size(q)
    for d1 in range(1, 2 * (q - 1) + 1):
        for d2 in range(1, 2 * (q - 1) + 1):
            c1, c2 = prm_code(ctx, 2, d1), prm_code(ctx, 2, d2)
            oracle = c1.intersect(c2.dual()).k
            if d2 == q - 1:
                with pytest.raises(DualNotPrmError):
                    hull_dim_with_dual(q, d1, d2)
                continue
            assert hull_dim_with_dual(q, d1, d2) == oracle, (q, d1, d2)


def _span(q, polys):
    """The span of the evaluations at the plane's points, by a length-n elimination."""
    ctx = field_for_size(q)
    return LinearCode.from_rows(ctx, evaluate_polynomials(ctx, projective_points(ctx, 2), polys))


def test_basis_code_equals_oracle_spot():
    assert _span(9, relative_hull_basis(9, 9, 12).polynomials()) == hull_oracle(9, 9, 12)


def test_degree_range_validation():
    with pytest.raises(ValueError):
        relative_hull_dim(4, 0, 5)
    with pytest.raises(ValueError):
        relative_hull_dim(4, 1, 7)
    with pytest.raises(ValueError):
        self_hull_dim(4, 7)


def _broken_bases(q, d1, d2):
    """Closed-form bases of PRM_d1 cap PRM_d2 with one fault each."""
    from dataclasses import replace

    from prmhull.prm import degree_monomials

    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    basis = relative_hull_basis(q, d1, d2)
    assert basis.part_y and basis.part_q is not None
    c2 = prm_code(ctx, 2, d2)
    outside = [
        m
        for m in degree_monomials(3, d1)
        if not c2.contains(evaluate_monomials(ctx, pts, [m])[0])
    ]
    a1 = basis.part_a1
    return {
        "Y monomial dropped": replace(basis, part_y=basis.part_y[1:]),
        "A_1 monomial duplicated": replace(basis, part_a1=a1[:-1] + a1[:1]),
        "Q swapped for a monomial outside C2": replace(
            basis, part_q=SparsePolynomial.monomial(ctx, outside[0])
        ),
        "part_a1 changed": replace(basis, part_a1=a1[1:] + (outside[0],)),
    }


@pytest.mark.parametrize("q, d1, d2", [(4, 4, 5), (9, 9, 12)])
def test_coordinate_check_refuses_broken_bases(q, d1, d2, monkeypatch):
    from prmhull import euclidean_hull

    assert verify_relative_hull(q, d1, d2).basis_spans
    oracle = hull_oracle(q, d1, d2)
    for fault, broken in _broken_bases(q, d1, d2).items():
        monkeypatch.setattr(euclidean_hull, "relative_hull_basis", lambda *_: broken)
        spans = verify_relative_hull(q, d1, d2).basis_spans
        # the span compared with the oracle by a length-n elimination
        assert spans == (_span(q, broken.polynomials()) == oracle)
        assert not spans, fault


def test_one_batched_call_runs_one_length_n_elimination(monkeypatch):
    # the partners of one d1 share the span of A_1^{d1}; with every code warm
    # and no dual built, it is the one elimination of length n the whole
    # call runs.  from_rows resolves codes.rref, so patching codes and
    # euclidean_hull counts every elimination
    from prmhull import codes, euclidean_hull, prm

    q, d1 = 9, 9
    ctx = field_for_size(q)
    n = len(projective_points(ctx, 2))
    assert n == 91
    partners = range(d1, 2 * (q - 1) + 1)
    prm.prm_code.cache_clear()  # fresh codes, no memoised dual
    for d in partners:
        prm_code(ctx, 2, d)
    widths = []
    real = codes.rref

    def recording(ctx, rows):
        widths.append(rows.shape[1])
        return real(ctx, rows)

    for module in (codes, euclidean_hull):
        monkeypatch.setattr(module, "rref", recording)
    assert all(chk.ok for chk in verify_relative_hulls(q, d1, partners))
    assert widths.count(n) == 1


def _partners(q, d1):
    return range(d1, 2 * (q - 1) + 1)


@pytest.mark.parametrize("q, d1s", [(2, None), (3, None), (4, None), (5, None), (9, [9])])
def test_batched_oracle_dim_is_the_intersection_dimension(q, d1s):
    # k1 - rank(G1 reduced against C2) against the elimination oracle's intersection
    for d1 in d1s or range(1, 2 * (q - 1) + 1):
        checks = verify_relative_hulls(q, d1, _partners(q, d1))
        assert [(c.d1, c.d2) for c in checks] == [(d1, d2) for d2 in _partners(q, d1)]
        for chk in checks:
            assert chk.oracle_dim == hull_oracle(q, d1, chk.d2).k, chk


@pytest.mark.parametrize("change", ["reordered", "shortened"])
def test_a_partner_with_another_a1_part_fails_only_its_own_record(change, monkeypatch):
    # the call takes the first partner's span of A_1; a partner whose A_1
    # part differs, even only in order, fails its own record and no other
    from dataclasses import replace

    from prmhull import euclidean_hull

    q, d1 = 4, 2
    partners = list(_partners(q, d1))
    planted_d2 = partners[2]
    before = verify_relative_hulls(q, d1, partners)
    assert all(chk.ok for chk in before)
    real = euclidean_hull.relative_hull_basis

    def planted(q, d1, d2):
        basis = real(q, d1, d2)
        if d2 != planted_d2:
            return basis
        a1 = basis.part_a1
        return replace(basis, part_a1=a1[::-1] if change == "reordered" else a1[:-1])

    monkeypatch.setattr(euclidean_hull, "relative_hull_basis", planted)
    after = verify_relative_hulls(q, d1, partners)
    assert [chk.d2 for chk in after if not chk.ok] == [planted_d2]
    assert not after[2].basis_spans
    assert after[:2] + after[3:] == before[:2] + before[3:]


def test_batched_check_refuses_a_partner_below_d1():
    with pytest.raises(ValueError, match="at least d1"):
        verify_relative_hulls(4, 3, [3, 2])
    assert verify_relative_hulls(4, 3, []) == []


def _more_broken_bases(q, d1, d2):
    """Closed-form bases of the right size whose fault only one part of the
    check sees: a member in C2 but outside C1 (a row past A_1, or in A_1
    itself), or a row past A_1 repeated in place of another."""
    from dataclasses import replace

    from prmhull.prm import degree_monomials

    ctx = field_for_size(q)
    pts = projective_points(ctx, 2)
    basis = relative_hull_basis(q, d1, d2)
    c1 = prm_code(ctx, 2, d1)
    outside = next(
        m for m in degree_monomials(3, d2) if not c1.contains(evaluate_monomials(ctx, pts, [m])[0])
    )
    return {
        "Q swapped for a monomial outside C1": replace(
            basis, part_q=SparsePolynomial.monomial(ctx, outside)
        ),
        "A_1 member outside C1": replace(basis, part_a1=basis.part_a1[:-1] + (outside,)),
        "Y monomial repeated": replace(basis, part_y=basis.part_y[:1] * len(basis.part_y)),
    }


@pytest.mark.parametrize(
    "fault",
    [
        "Y monomial dropped",
        "A_1 monomial duplicated",
        "Q swapped for a monomial outside C2",
        "part_a1 changed",
        "Q swapped for a monomial outside C1",
        "A_1 member outside C1",
        "Y monomial repeated",
    ],
)
def test_euclid_sweep_fails_exactly_the_pair_of_a_broken_basis(fault, monkeypatch):
    # one pair's basis broken, the other partners of its d1 intact: a changed
    # A_1 part fails only the broken pair, whose A_1 is not the first partner's
    from prmhull import euclidean_hull, verify

    broken = (_broken_bases(4, 4, 5) | _more_broken_bases(4, 4, 5))[fault]
    real = euclidean_hull.relative_hull_basis

    def planted(q, d1, d2):
        return broken if (q, d1, d2) == (4, 4, 5) else real(q, d1, d2)

    monkeypatch.setattr(euclidean_hull, "relative_hull_basis", planted)
    records = verify.euclid_sweep(4)
    failed = [(r["d1"], r["d2"]) for r in records if r["status"] == "fail"]
    assert failed == [(4, 5)]
