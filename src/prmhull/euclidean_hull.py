"""Closed-form bases for PRM_d1(2) cap PRM_d2(2) over the plane, and the
oracle verification that backs them.

All functions take intersection degrees 1 <= d1 <= d2 <= 2(q-1) (inputs
are sorted; the intersection is symmetric).  When d1 = d2 mod q-1 the
smaller code is contained in the larger and the basis is its whole
degree-d1 monomial basis.  Otherwise the basis is A_1^{d1}, plus the
monomials x1^(d1-a2) x2^a2 for a2 in Y = {0..min(d1-1, d2-q)}, plus one
four-term polynomial attached to the smaller degree when q <= d1.

Reading the intersection as a relative hull Hull_{C2}(C1) requires the
dual of C2 to be another PRM code, which fails exactly at degree q-1:
`hull_dim_with_dual` refuses that degree with DualNotPrmError, and the
CLI refuses it unless asked for the bare intersection.

`verify_relative_hulls` checks the bases of one d1 against every partner
d2 at once, by membership, with no intersection or dual built: with M
the generator G1 reduced against C2, dim(C1 cap C2) = k1 - rank M, and B
lies in C1 cap C2 iff B lies in C1 and reduces to zero against C2.
A_1^{d1} depends on (q, d1) alone, so every partner shares one span of
it, eliminated once per call and not kept, since a sweep visits each d1
once.  `hull_oracle` builds the intersection itself, by the same
membership identity in `LinearCode.intersect`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .codes import LinearCode, rref
from .fields import field_for_size
from .polynomials import (
    Monomial,
    SparsePolynomial,
    basis_a1,
    basis_ad,
    evaluate_monomials,
    evaluate_polynomials,
    overline,
)
from .prm import dim_prm, dim_rm, kernel_points, prm_code, prm_params


class DualNotPrmError(ValueError):
    """Hull interpretation refused: the dual involved is not a PRM code."""


def _validate(q: int, d1: int, d2: int) -> tuple[int, int]:
    if q < 2:
        raise ValueError("field size must be >= 2")
    if not (1 <= d1 <= 2 * (q - 1) and 1 <= d2 <= 2 * (q - 1)):
        raise ValueError(f"degrees must lie in [1, {2*(q-1)}] for GF({q})")
    return (d1, d2) if d1 <= d2 else (d2, d1)


def y_set(q: int, d1: int, d2: int) -> list[int]:
    """Y = {0, ..., min(d1-1, d2-q)}; empty when d2 < q."""
    if d2 - q < 0:
        return []
    return list(range(min(d1 - 1, d2 - q) + 1))


def q_polynomial(q: int, d1: int, d2: int) -> tuple[SparsePolynomial, SparsePolynomial]:
    """The degree-d1 polynomial covering x2^d1, and its degree-d2 companion.

    Both have the same evaluation at every plane point, which is what puts
    the class in the intersection.
    """
    d1, d2 = _validate(q, d1, d2)
    if not (q <= d1 < d2):
        raise ValueError(f"requires q <= d1 < d2, got q={q}, d1={d1}, d2={d2}")
    if (d2 - d1) % (q - 1) == 0:
        raise ValueError("degrees congruent mod q-1: containment case, no polynomial")
    ctx = field_for_size(q)
    o1, o2 = overline(d1, q), overline(d2, q)
    qpoly = SparsePolynomial(
        ctx,
        3,
        {
            (0, 0, d1): 1,
            (0, d1 - o2, o2): 1,
            (d1 - o2, 0, o2): 1,
            (d1 - o2, o2 - o1, o1): 1,
        },
    )
    companion = SparsePolynomial(
        ctx,
        3,
        {
            (0, 0, d2): 1,
            (0, d2 - o1, o1): 1,
            (d2 - o1, 0, o1): 1,
            (d2 - d1, d1 - o2, o2): 1,
        },
    )
    return qpoly, companion


def membership_identity(q: int, d1: int, d2: int, a2: int) -> tuple[Monomial, SparsePolynomial]:
    """x1^(d1-a2) x2^a2 rewritten as a degree-d2 combination with equal evaluation."""
    d1, d2 = _validate(q, d1, d2)
    if a2 not in y_set(q, d1, d2):
        raise ValueError(f"a2={a2} is not in Y for (q, d1, d2)=({q}, {d1}, {d2})")
    ctx = field_for_size(q)
    o2 = overline(d2, q)
    lhs = (0, d1 - a2, a2)
    rhs = SparsePolynomial(
        ctx,
        3,
        {
            (0, d2 - a2, a2): 1,
            (d2 - o2, o2 - a2, a2): ctx.neg(1),
            (d2 - d1, d1 - a2, a2): 1,
        },
    )
    return lhs, rhs


@dataclass(frozen=True)
class EuclidHullBasis:
    """Basis of the degree-(d1, d2) intersection inside the plane quotient."""

    q: int
    d1: int
    d2: int
    congruent: bool
    part_a1: tuple[Monomial, ...]
    part_y: tuple[Monomial, ...]
    part_q: SparsePolynomial | None
    congruent_tail: tuple[Monomial, ...] = field(default=())

    @property
    def dimension(self) -> int:
        return (
            len(self.part_a1)
            + len(self.part_y)
            + (1 if self.part_q is not None else 0)
            + len(self.congruent_tail)
        )

    def polynomials(self) -> list[SparsePolynomial]:
        ctx = field_for_size(self.q)
        return [SparsePolynomial.monomial(ctx, m) for m in self.part_a1] + self.past_a1()

    def past_a1(self) -> list[SparsePolynomial]:
        """The basis after A_1, in basis order: Y, the q-polynomial, the congruent tail."""
        ctx = field_for_size(self.q)
        out = [SparsePolynomial.monomial(ctx, m) for m in self.part_y]
        if self.part_q is not None:
            out.append(self.part_q)
        out += [SparsePolynomial.monomial(ctx, m) for m in self.congruent_tail]
        return out


def relative_hull_basis(q: int, d1: int, d2: int) -> EuclidHullBasis:
    """Basis of PRM_d1(2) cap PRM_d2(2) (intersection degrees, sorted)."""
    d1, d2 = _validate(q, d1, d2)
    if (d2 - d1) % (q - 1) == 0:
        a1, a2m, a3 = basis_ad(q, d1)
        return EuclidHullBasis(
            q, d1, d2, True, tuple(a1), (), None, tuple(a2m) + tuple(a3)
        )
    a1 = tuple(basis_a1(q, d1))
    ymonos = tuple((0, d1 - a2, a2) for a2 in y_set(q, d1, d2))
    qpoly = q_polynomial(q, d1, d2)[0] if q <= d1 else None
    return EuclidHullBasis(q, d1, d2, False, a1, ymonos, qpoly)


def relative_hull_dim(q: int, d1: int, d2: int) -> int:
    """dim(PRM_d1(2) cap PRM_d2(2)) in closed form."""
    d1, d2 = _validate(q, d1, d2)
    if (d2 - d1) % (q - 1) == 0:
        return prm_params(q, 2, d1).k
    k1 = dim_rm(q, d1 - 1)
    if d2 <= q - 1:
        return k1
    if d1 <= q - 1:
        return k1 + min(d1, d2 - (q - 1))
    return k1 + d2 - q + 2


def self_hull_basis(q: int, d: int) -> EuclidHullBasis:
    """Basis of PRM_d(2) cap its dual, for 1 <= d <= q-1."""
    if not 1 <= d <= q - 1:
        raise ValueError(f"self-hull basis defined for 1 <= d <= q-1, got {d}")
    return relative_hull_basis(q, d, 2 * (q - 1) - d)


def self_hull_dim(q: int, d: int) -> int:
    """dim(PRM_d(2) cap PRM_d(2)^perp) across the full degree range."""
    # at d = q-1 the dual is PRM_{q-1} plus the all-ones word, so the code
    # lies in its dual and is its own hull
    return dim_prm(q, d) if d == q - 1 else hull_dim_with_dual(q, d, d)


def hull_dim_with_dual(q: int, d1: int, d2: int) -> int:
    """dim Hull_{PRM_d2}(PRM_d1) = dim(PRM_d1 cap PRM_d2^perp), d2 != q-1.

    This hull fixes the entanglement of the asymmetric EAQECC from
    (PRM_d1, PRM_d2): `quantum.prm_asym_eaqecc` takes
    c = dim PRM_d1 - hull_dim_with_dual(q, d1, d2).

    The dual side reduces to the intersection at the complementary degree
    2(q-1) - d2; at d2 = 2(q-1) the dual is the all-ones code and the hull
    is zero because constants are never degree-d classes.
    """
    _validate(q, d1, d2)
    if d2 == q - 1:
        raise DualNotPrmError(
            f"d2 = q-1: dual is not a PRM code (q={q}); only the oracle "
            "path serves the extended dual"
        )
    partner = 2 * (q - 1) - d2
    if partner == 0:
        return 0
    return relative_hull_dim(q, min(d1, partner), max(d1, partner))


def hull_oracle(q: int, d1: int, d2: int) -> LinearCode:
    """Gaussian-elimination intersection of the two PRM codes."""
    d1, d2 = _validate(q, d1, d2)
    ctx = field_for_size(q)
    return prm_code(ctx, 2, d1).intersect(prm_code(ctx, 2, d2))


@dataclass(frozen=True)
class HullCheck:
    q: int
    d1: int
    d2: int
    formula_dim: int
    basis_size: int
    oracle_dim: int
    basis_spans: bool

    @property
    def ok(self) -> bool:
        return self.formula_dim == self.oracle_dim == self.basis_size and self.basis_spans


def verify_relative_hull(q: int, d1: int, d2: int) -> HullCheck:
    """Closed form vs oracle for one pair: `verify_relative_hulls` with one partner."""
    d1, d2 = _validate(q, d1, d2)
    return verify_relative_hulls(q, d1, [d2])[0]


def verify_relative_hulls(q: int, d1: int, d2s) -> list[HullCheck]:
    """Closed form vs oracle for PRM_d1 cap PRM_d2 at each partner d2 >= d1,
    in order: the dimensions are equal and the basis B spans exactly.

    No intersection and no dual is built.  A row lies in C2 = PRM_d2 iff it
    reduces to zero against C2, and reduction is linear, so with M the
    generator G1 of C1 = PRM_d1 reduced against C2:
    - dim(C1 cap C2) = k1 - rank M, the identity `LinearCode.intersect`
      uses;
    - B lies in C1 cap C2 exactly when it lies in C1 and reduces to zero
      against C2.
    B spans the intersection iff it lies in it and rank B is its dimension.
    B is A_1 plus at most q rows R, so rank B is dim span(A_1) plus the
    rank of R reduced against span(A_1).

    A_1 depends on (q, d1) alone: the first partner's A_1 part is
    eliminated once, the one elimination of length n, and a partner whose
    A_1 part differs, even only in order, fails with basis_spans false.
    Every partner's rows R are evaluated in one call; [span(A_1); R] is
    reduced against C1 and R against span(A_1) once each.  Each partner
    then reduces [G1; span(A_1); its own rows] against C2 in one call,
    which leaves two ranks and no elimination of length n.
    """
    ctx = field_for_size(q)
    d2s = list(d2s)
    if any(_validate(q, d1, d2) != (d1, d2) for d2 in d2s):
        raise ValueError(f"partner degrees must be at least d1 = {d1}")
    if not d2s:
        return []
    pts = kernel_points(ctx, 2)
    c1 = prm_code(ctx, 2, d1)
    k1 = c1.k
    bases = [relative_hull_basis(q, d1, d2) for d2 in d2s]
    part_a1 = bases[0].part_a1
    a1 = LinearCode.from_rows(ctx, evaluate_monomials(ctx, pts, part_a1))
    rests = [basis.past_a1() for basis in bases]
    rows = evaluate_polynomials(ctx, pts, [f for rest in rests for f in rest])
    ends = itertools.accumulate(len(rest) for rest in rests)
    # nonzero exactly on the rows of [span(A_1); R] outside C1
    outside_c1 = c1._reduce_rows(np.vstack([a1.matrix, rows])).any(axis=1)
    a1_outside, rows_outside = outside_c1[: a1.k].any(), outside_c1[a1.k :]
    reduced = a1._reduce_rows(rows)
    checks = []
    for d2, basis, rest, end in zip(d2s, bases, rests, ends):
        own = slice(end - len(rest), end)
        c2 = prm_code(ctx, 2, d2)
        # M on top, then what must reduce to zero against C2
        against_c2 = c2._reduce_rows(np.vstack([c1.matrix, a1.matrix, rows[own]]))
        contained = not (a1_outside or rows_outside[own].any() or against_c2[k1:].any())
        oracle_dim = k1 - len(rref(ctx, against_c2[:k1])[1])
        rank = a1.k + len(rref(ctx, reduced[own])[1])
        formula = relative_hull_dim(q, d1, d2)
        spans = basis.part_a1 == part_a1 and contained and rank == oracle_dim
        checks.append(HullCheck(q, d1, d2, formula, basis.dimension, oracle_dim, spans))
    return checks


def extended_dual_hull_oracle(q: int, d1: int, d2: int) -> LinearCode:
    """Oracle-only Hull_{PRM_d2}(PRM_d1) with the true (extended) dual of PRM_d2."""
    ctx = field_for_size(q)
    return prm_code(ctx, 2, d1).relative_hull(prm_code(ctx, 2, d2))
