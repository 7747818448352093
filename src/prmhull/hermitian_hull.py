"""Hermitian hull machinery for plane codes over GF(q^2).

The Hermitian dual of PRM_d(q^2, 2) is the componentwise q-th power of
PRM_{dperp}(q^2, 2) with dperp = 2(q^2-1)-d, so hull membership becomes a
question about which degree-d classes are q-th powers of degree-dperp
classes.  The answer is organized by three polynomial sets:

  U  homogenizations of the affine hull monomials U_{d-1,d}; equals the
     whole of A_1^d when d <= 2(q-1),
  V  monomials x1^(d-a2) x2^a2 indexed by T = {a2 < d with
     overline(q a2) < dperp - (q^2-1)},
  W  two-term degree-d polynomials that only appear for d > 2(q-1).

U cup A_2 cup A_3 is a basis when d = 0 mod q-1; U cup V is a basis when
d <= 2(q-1) otherwise; U cup V cup W is independent and contained in the
hull in the remaining range, giving a dimension lower bound (observed
tight wherever checked).  |T| and |U| also have q-adic counting formulas,
implemented alongside the literal enumerations.

The oracles work in coefficient space: the monomials of PRM_d, d <= q^2,
are independent on P^2(GF(q^2)) (Mercier & Rolland 1998), and RM_d's on
A^2, so the hull is {m S : m S S^(q)T = 0}, S and S^(q) the evaluations of
the monomials and the q-scaled ones: a k x k Gram matrix's left null space.

All entry points take the base q; the codes live over GF(q^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import LinearCode, _null_space, field_matmul, rref
from .fields import field_for_size
from .points import PointSet
from .polynomials import (
    Monomial,
    SparsePolynomial,
    basis_a1,
    basis_a2,
    basis_ad,
    coefficient_rows,
    evaluate_monomials,
    overline,
)
from .prm import binom, bounded_monomials, degree_monomials, dim_prm, dim_rm, kernel_points


def _check_base(q: int, *degrees: int, lo: int = 0, hi: int = 0) -> int:
    """q^2, after refusing a base q < 2 or any of `degrees` outside [lo, hi]."""
    if q < 2:
        raise ValueError("base field size must be >= 2")
    for d in degrees:
        if not lo <= d <= hi:
            raise ValueError(f"degree {d} outside [{lo}, {hi}] over GF({q}^2)")
    return q * q


def qadic(d: int, q: int) -> tuple[int, int]:
    """(b0, b1) with d = b0 + b1*q and both digits in [0, q-1]."""
    if not 0 <= d <= q * q - 1:
        raise ValueError(f"{d} has no two-digit base-{q} expansion")
    return d % q, d // q


def dual_degree(q: int, d: int) -> int:
    """dperp = 2(q^2-1) - d, the Euclidean dual degree over GF(q^2)."""
    return 2 * (q * q - 1) - d


def lambda_expansion(q: int, d: int) -> tuple[int, int]:
    """(l0, l1) with dperp = l0 + l1*q + q^2; needs d < q^2-1."""
    if not 0 <= d < q * q - 1:
        raise ValueError(f"lambda expansion needs d < q^2-1, got {d}")
    return qadic(dual_degree(q, d) - q * q, q)


# -- affine side ------------------------------------------------------------------


def affine_hull_monomials(q: int, d1: int, d2: int) -> list[Monomial]:
    """U_{d1,d2}: the monomial basis of RM_d1 cap RM_d2^herm over GF(q^2).

    Two-variable monomials with a1+a2 <= d1 whose q-th power partners fit
    under degree 2(q^2-1)-d2-1.
    """
    Q = _check_base(q, d1, d2, hi=2 * (q * q - 1))
    bound = 2 * (Q - 1) - d2 - 1
    out = []
    for a1 in range(min(d1, Q - 1) + 1):
        for a2 in range(min(d1 - a1, Q - 1) + 1):
            if overline(q * a1, Q) + overline(q * a2, Q) <= bound:
                out.append((a1, a2))
    return out


def affine_hermitian_hull_dim(q: int, d: int) -> int:
    """dim(RM_d(q^2,2) cap RM_d(q^2,2)^herm) = |U_{d,d}|."""
    _check_base(q, d, hi=q * q - 2)
    return len(affine_hull_monomials(q, d, d))


def affine_hull_oracle(q: int, d1: int, d2: int) -> LinearCode:
    """RM_d1 cap RM_d2^herm over GF(q^2), as coefficient rows on
    bounded_monomials(2, d1, q^2-1)."""
    Q = _check_base(q, d1, d2, hi=2 * (q * q - 1))
    monos1, monos2 = (bounded_monomials(2, d, Q - 1) for d in (d1, d2))
    return _gram_null_space(q, kernel_points(field_for_size(Q), 2, affine=True), monos1, monos2)


# -- the sets U, T, V, W ---------------------------------------------------------


def set_u(q: int, d: int) -> list[Monomial]:
    """U: homogenizations x0^(d-a1-a2) x1^a1 x2^a2 of U_{d-1,d}.

    Listed in the A_1^d enumeration order (descending x0, then x1).
    """
    Q = _check_base(q, d, lo=1, hi=q * q - 1)
    members = set(affine_hull_monomials(q, d - 1, d))
    return [m for m in basis_a1(Q, d) if m[1:] in members]


def set_t(q: int, d: int) -> list[int]:
    """T: indices a2 < d with overline(q a2) below dperp - (q^2-1)."""
    Q = _check_base(q, d, lo=1, hi=q * q - 1)
    dp = dual_degree(q, d)
    return [
        a2
        for a2 in range(min(d - 1, Q - 1) + 1)
        if dp > overline(q * a2, Q) + (Q - 1)
    ]


def t_size(q: int, d: int) -> int:
    """|T| by the q-adic digit count b1(q-1-b1) + min(b0,q-1-b1) + min(b1,q-1-b0)."""
    _check_base(q, d, lo=1, hi=q * q - 1)
    b0, b1 = qadic(d, q)
    return b1 * (q - 1 - b1) + min(b0, q - 1 - b1) + min(b1, q - 1 - b0)


def t_size_closed(q: int, d: int) -> int:
    """|T| by the two-branch closed form d - b1^2 (- overflow correction)."""
    b0, b1 = qadic(d, q)
    if b0 + b1 <= q - 1:
        return d - b1 * b1
    return d - b1 * b1 - 2 * (b0 + b1 - (q - 1))


def set_v(q: int, d: int) -> list[Monomial]:
    """V: x1^(d-a2) x2^a2 for a2 in T."""
    return [(0, d - a2, a2) for a2 in set_t(q, d)]


def v_companion(q: int, d: int, a2: int) -> SparsePolynomial:
    """The q-th power partner whose evaluation equals x1^(d-a2) x2^a2."""
    Q = _check_base(q)
    ctx = field_for_size(Q)
    dp = dual_degree(q, d)
    g1 = overline(q * (d - a2), Q)
    g2 = overline(q * a2, Q)
    odp = dp - (Q - 1)  # overline(dperp) for dperp in (q^2-1, 2(q^2-1))
    # the last two monomials can coincide, in which case they must cancel
    inner = SparsePolynomial.from_term_list(
        ctx,
        3,
        [
            ((0, dp - g2, g2), 1),
            ((Q - 1, odp - g2, g2), ctx.neg(1)),
            ((dp - g1 - g2, g1, g2), 1),
        ],
    )
    return _char_power(inner, q)


def _char_power(f: SparsePolynomial, q: int) -> SparsePolynomial:
    """f**q in characteristic p | q: exponents scale, coefficients power."""
    ctx = f.ctx
    return SparsePolynomial(
        ctx,
        f.nvars,
        {tuple(q * e for e in m): ctx.pow(c, q) for m, c in f.terms.items()},
    )


def w_indices(q: int, d: int) -> list[int]:
    """Indices a2 passing the two-sided window conditions that define W."""
    Q = _check_base(q, d, lo=1, hi=q * q - 1)
    dp = dual_degree(q, d)
    out = []
    for a2 in range(min(d, Q - 1) + 1):
        lhs = dp - overline(q * a2, Q)
        if not (Q - 1 >= lhs > overline(q * (d - a2), Q)):
            continue
        if d - a2 > overline(q * dp - a2, Q):
            out.append(a2)
    return out


def set_w(q: int, d: int) -> list[SparsePolynomial]:
    """W: the two-term degree-d polynomials, one per qualifying index."""
    Q = _check_base(q)
    ctx = field_for_size(Q)
    out = []
    for a2 in w_indices(q, d):
        e1 = overline(q * dual_degree(q, d) - a2, Q)
        out.append(
            SparsePolynomial(
                ctx,
                3,
                {(0, d - a2, a2): 1, (d - e1 - a2, e1, a2): 1},
            )
        )
    return out


def w_companion(q: int, d: int, a2: int) -> SparsePolynomial:
    """The q-th power partner of the W element at index a2."""
    Q = _check_base(q)
    ctx = field_for_size(Q)
    dp = dual_degree(q, d)
    g1 = overline(q * (d - a2), Q)
    g2 = overline(q * a2, Q)
    inner = SparsePolynomial(
        ctx,
        3,
        {(0, dp - g2, g2): 1, (dp - g1 - g2, g1, g2): 1},
    )
    return _char_power(inner, q)


# -- counting |U| -----------------------------------------------------------------


@dataclass(frozen=True)
class UCount:
    total: int
    b1: int
    b2: int
    b3: int
    b4: int


def _u_count(q: int, base_dim: int, beta: tuple[int, int], lam: tuple[int, int]) -> UCount:
    b0, b1_ = beta
    l0, l1 = lam
    pairs_hi = binom(q - l1 - 1, q - l1 - 3)
    pairs_lo = binom(b1_, b1_ - 2)
    B1 = pairs_hi * pairs_lo
    B2 = max(b1_ * (pairs_hi - binom(q - b0 - 1, q - b0 - 3)), 0)
    B3 = max((q - 1 - l1) * (pairs_lo - binom(l0 + 1, l0 - 1)), 0)
    B4 = (
        b1_
        * (q - 1 - l1)
        * binom(b0 - l1, b0 - l1)
        * binom(b1_ - l0 - 1, b1_ - l0 - 1)
    )
    return UCount(base_dim - (B1 + B2 + B3 + B4), B1, B2, B3, B4)


def u_size(q: int, d: int) -> UCount:
    """|U| from the q-adic digits of d-1 and of dperp - q^2."""
    Q = _check_base(q, d, lo=1, hi=q * q - 2)
    return _u_count(q, dim_rm(Q, d - 1), qadic(d - 1, q), lambda_expansion(q, d))


def affine_u_size(q: int, d: int) -> UCount:
    """|U_{d,d}| by the same count with the digits of d itself."""
    Q = _check_base(q, d, hi=q * q - 2)
    return _u_count(q, dim_rm(Q, d), qadic(d, q), lambda_expansion(q, d))


# -- hull dimension and bases ------------------------------------------------------


@dataclass(frozen=True)
class HermHullDim:
    value: int
    exact: bool


def hermitian_hull_dim(q: int, d: int) -> HermHullDim:
    """dim(PRM_d(q^2,2) cap its Hermitian dual), exact or a lower bound."""
    Q = _check_base(q, d, lo=1, hi=q * q - 2)  # degree q^2-1 is excluded
    congruent = d % (q - 1) == 0
    if congruent:
        if d <= 2 * (q - 1):
            return HermHullDim(dim_prm(Q, d), True)
        return HermHullDim(u_size(q, d).total + d + 1, True)
    if d <= 2 * (q - 1):
        b1 = qadic(d, q)[1]
        return HermHullDim(dim_rm(Q, d - 1) + d - b1 * b1, True)
    return HermHullDim(
        u_size(q, d).total + t_size(q, d) + len(w_indices(q, d)), False
    )


@dataclass(frozen=True)
class HermHullBasis:
    """U/V/W data for degree d; elements() lists the basis polynomials."""

    q: int
    d: int
    mode: str  # exact_congruent | exact_small | lower_bound
    set_u: tuple[Monomial, ...]
    set_v: tuple[Monomial, ...]
    set_w: tuple[SparsePolynomial, ...]
    congruent_tail: tuple[Monomial, ...] = ()

    @property
    def size(self) -> int:
        return (
            len(self.set_u) + len(self.set_v) + len(self.set_w) + len(self.congruent_tail)
        )

    def elements(self) -> list[SparsePolynomial]:
        ctx = field_for_size(self.q * self.q)
        out = [SparsePolynomial.monomial(ctx, m) for m in self.set_u]
        out += [SparsePolynomial.monomial(ctx, m) for m in self.set_v]
        out += list(self.set_w)
        out += [SparsePolynomial.monomial(ctx, m) for m in self.congruent_tail]
        return out


def hermitian_hull_basis(q: int, d: int) -> HermHullBasis:
    """The hull basis (exact modes) or independent subset (lower-bound mode).

    Degree q^2-1 is allowed here: the returned set then describes the
    intersection with the q-th-power span rather than the hull proper.
    """
    Q = _check_base(q, d, lo=1, hi=q * q - 1)
    u = tuple(set_u(q, d))
    if d % (q - 1) == 0:
        tail = tuple(basis_a2(Q, d)) + ((0, 0, d),)
        return HermHullBasis(q, d, "exact_congruent", u, (), (), tail)
    if d <= 2 * (q - 1):
        return HermHullBasis(q, d, "exact_small", u, tuple(set_v(q, d)), ())
    return HermHullBasis(
        q, d, "lower_bound", u, tuple(set_v(q, d)), tuple(set_w(q, d))
    )


# -- oracles ------------------------------------------------------------------------


def hermitian_hull_oracle(q: int, d: int) -> LinearCode:
    """C cap C^herm for C = PRM_d(q^2,2), d in [1, q^2-2], as coefficient
    rows on degree_monomials(3, d)."""
    Q = _check_base(q, d, lo=1, hi=q * q - 2)
    monos = degree_monomials(3, d)
    return _gram_null_space(q, kernel_points(field_for_size(Q), 2), monos, monos)


def _gram_null_space(q: int, pts: PointSet, monos1: list, monos2: list) -> LinearCode:
    """{m : m S1 S2^(q)T = 0}, the left null space of the Gram matrix; S1 and
    S2^(q) evaluate monos1 and the q-scaled monos2 at the points."""
    ctx = pts.ctx
    S1 = evaluate_monomials(ctx, pts, monos1)
    S2q = evaluate_monomials(ctx, pts, [tuple(q * e for e in m) for m in monos2])
    null, piv = _null_space(ctx, field_matmul(ctx, S1, S2q.T).T)
    return LinearCode(ctx, len(monos1), null, piv)


def power_span_code(q: int, degree: int) -> LinearCode:
    """Span of the q-th powers of the degree-`degree` quotient basis.

    For degree dperp with d < q^2-1 this equals the Hermitian dual of
    PRM_d; at d = q^2-1 it is the space the basis statements are about.
    """
    ctx = field_for_size(_check_base(q))
    monos = [tuple(q * e for e in m) for part in basis_ad(ctx.q, degree) for m in part]
    return LinearCode.from_rows(ctx, evaluate_monomials(ctx, kernel_points(ctx, 2), monos))


@dataclass(frozen=True)
class HermHullCheck:
    q: int
    d: int
    mode: str
    closed_form: int
    exact: bool
    basis_size: int
    oracle_dim: int
    independent: bool
    contained: bool
    spans_or_bound_tight: bool

    @property
    def ok(self) -> bool:
        if not (self.independent and self.contained):
            return False
        if self.exact:
            return self.closed_form == self.oracle_dim and self.spans_or_bound_tight
        # a bound is the size of a basis found independent and contained
        return self.closed_form == self.basis_size <= self.oracle_dim


def verify_hermitian_hull(q: int, d: int) -> HermHullCheck:
    """Closed form vs hull oracle; tightness is reported, not assumed.

    B, the basis's coefficient rows on the oracle's monomials, is reduced
    against the oracle O: the residual is zero iff B lies in O.  B is
    [B_P | residual] up to an invertible column operation (B_P its entries
    on O's pivots), so its rank comes from an elimination of B_P and the
    residual's nonzero columns; span(B) = O iff B lies in O with rank dim O.
    """
    basis = hermitian_hull_basis(q, d)
    dim = hermitian_hull_dim(q, d)
    oracle = hermitian_hull_oracle(q, d)
    rows = coefficient_rows(basis.elements(), degree_monomials(3, d))
    residual = oracle._reduce_rows(rows)
    contained = not residual.any()
    coords = np.hstack([rows[:, list(oracle.pivots)], residual[:, residual.any(axis=0)]])
    rank = len(rref(oracle.ctx, coords)[1])
    return HermHullCheck(
        q, d, basis.mode,
        closed_form=dim.value, exact=dim.exact, basis_size=basis.size, oracle_dim=oracle.k,
        independent=rank == basis.size, contained=contained,
        spans_or_bound_tight=contained and rank == oracle.k,
    )
