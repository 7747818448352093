"""Projective and affine Reed-Muller codes and their closed-form parameters.

PRM_d(q, m) evaluates all degree-d monomials at the canonical projective
representatives; RM_d(q, m) evaluates monomials with every exponent at
most q-1 and total degree at most d at all affine points.  Dimensions and
minimum distances come from the classical alternating-sum and (q-s)q^(m-r-1)
formulas; duality sends PRM_d to PRM_{m(q-1)-d}, plus the all-ones vector
exactly when d = 0 mod q-1 (with PRM_0 meaning the all-ones code), and
RM_d to RM_{m(q-1)-d-1}.

Every code and oracle takes its points from `kernel_points`, which refuses
a field too large for the kernel before any point of it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .codes import LinearCode, kernel_tables
from .fields import FieldContext
from .points import PointSet, affine_points, projective_points
from .polynomials import evaluate_monomials, grlex_key


# Each cached code keeps alive its memoised dual, which only
# `quantum.asym_from_codes` builds, and its weight memo, so the code caches
# are bounded.  `verify all` builds 60 PRM codes and no RM code; it evicts none.
CODE_CACHE_SIZE = 128


def binom(n: int, r: int) -> int:
    """Binomial coefficient with C(n, r) = 0 for r < 0 or n < r."""
    if r < 0 or n < r:
        return 0
    return math.comb(n, r)


@dataclass(frozen=True)
class CodeParams:
    family: str
    q: int
    m: int
    d: int
    n: int
    k: int
    wt: int


@dataclass(frozen=True)
class DualDescription:
    """Dual of PRM_d: PRM_{dual_degree}, plus the all-ones row when flagged.

    dual_degree 0 means the all-ones code itself.
    """

    dual_degree: int
    extra_all_ones: bool


def degree_monomials(nvars: int, d: int) -> list:
    """All exponent tuples of total degree exactly d, in graded-lex order."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining + 1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, nvars)
    return sorted(out, key=grlex_key)


def bounded_monomials(nvars: int, d: int, cap: int) -> list:
    """Exponent tuples with total degree <= d and each exponent <= cap."""
    out = [
        m
        for m in product(range(min(d, cap) + 1), repeat=nvars)
        if sum(m) <= d
    ]
    return sorted(out, key=grlex_key)


def _check_degree(q: int, m: int, d: int, lowest: int) -> None:
    """Refuse m < 1 and a degree d outside [lowest, m(q-1)]: PRM degrees
    start at 1, RM orders at 0."""
    if m < 1:
        raise ValueError(f"m must be >= 1; got {m}")
    if not lowest <= d <= m * (q - 1):
        raise ValueError(f"degree {d} outside [{lowest}, {m*(q-1)}] over GF({q})")


def kernel_points(ctx: FieldContext, m: int, affine: bool = False) -> PointSet:
    """P^m (or A^m) over ctx, once the kernel has accepted the field."""
    kernel_tables(ctx)
    return affine_points(ctx, m) if affine else projective_points(ctx, m)


@lru_cache(maxsize=CODE_CACHE_SIZE)
def prm_code(ctx: FieldContext, m: int, d: int) -> LinearCode:
    """The projective Reed-Muller code of degree d over P^m."""
    _check_degree(ctx.q, m, d, 1)
    pts = kernel_points(ctx, m)
    return LinearCode.from_rows(ctx, evaluate_monomials(ctx, pts, degree_monomials(m + 1, d)))


@lru_cache(maxsize=CODE_CACHE_SIZE)
def rm_code(ctx: FieldContext, m: int, d: int) -> LinearCode:
    """The affine Reed-Muller code of order d over A^m."""
    _check_degree(ctx.q, m, d, 0)
    pts = kernel_points(ctx, m, affine=True)
    monos = bounded_monomials(m, d, ctx.q - 1)
    return LinearCode.from_rows(ctx, evaluate_monomials(ctx, pts, monos))


def _weight_formula(q: int, m: int, reduced: int) -> int:
    """(q - s) q^(m - r - 1) where reduced = r(q-1) + s, 0 <= s < q-1."""
    r, s = divmod(reduced, q - 1)
    return (q - s) * q ** (m - r) // q  # an int at r = m too, where s = 0


def prm_params(q: int, m: int, d: int) -> CodeParams:
    """Closed-form [n, k, wt] of PRM_d(q, m)."""
    _check_degree(q, m, d, 1)
    n = (q ** (m + 1) - 1) // (q - 1)
    k = 0
    for t in range(1, d + 1):
        if t % (q - 1) != d % (q - 1):
            continue
        k += sum(
            (-1) ** j * binom(m + 1, j) * binom(t - j * q + m, t - j * q)
            for j in range(m + 2)
        )
    return CodeParams("PRM", q, m, d, n, k, _weight_formula(q, m, d - 1))


def rm_params(q: int, m: int, d: int) -> CodeParams:
    """Closed-form [n, k, wt] of RM_d(q, m)."""
    _check_degree(q, m, d, 0)
    k = 0
    for t in range(d + 1):
        k += sum(
            (-1) ** j * binom(m, j) * binom(t - j * q + m - 1, t - j * q)
            for j in range(m + 1)
        )
    return CodeParams("RM", q, m, d, q**m, k, _weight_formula(q, m, d))


def prm_dual_description(q: int, m: int, d: int) -> DualDescription:
    """Dual degree m(q-1)-d; the all-ones row joins when d = 0 mod q-1."""
    _check_degree(q, m, d, 1)
    d_perp = m * (q - 1) - d
    extra = d % (q - 1) == 0 and d < m * (q - 1)
    return DualDescription(d_perp, extra)


def rm_dual_degree(q: int, m: int, d: int) -> int:
    """Dual order m(q-1)-d-1 (-1 meaning the zero code)."""
    _check_degree(q, m, d, 0)
    return m * (q - 1) - d - 1


def prm_dual_code(ctx: FieldContext, m: int, d: int) -> LinearCode:
    """The dual of PRM_d built from its description (oracle comparisons)."""
    desc = prm_dual_description(ctx.q, m, d)
    n = (ctx.q ** (m + 1) - 1) // (ctx.q - 1)
    ones = np.ones((1, n), dtype=np.int64)
    if desc.dual_degree == 0:
        rows = ones
    else:
        rows = prm_code(ctx, m, desc.dual_degree).matrix
        if desc.extra_all_ones:
            rows = np.vstack([rows, ones])
    return LinearCode.from_rows(ctx, rows, n)


def dim_prm(q: int, d: int) -> int:
    """dim PRM_d(q, 2), the plane case used throughout the hull work."""
    return prm_params(q, 2, d).k


def dim_rm(q: int, d: int) -> int:
    """dim RM_d(q, 2), with the empty convention for d < 0."""
    if d < 0:
        return 0
    return rm_params(q, 2, d).k
