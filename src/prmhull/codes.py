"""Exact linear algebra over GF(q): reduced row echelon form, duals,
intersections, Hermitian duals, and brute-force minimum weight.

A LinearCode is its RREF generator matrix (zero rows dropped), which is
the canonical representative of the row space: two codes are equal iff
their matrices are identical.  Row operations are vectorized through the
field's dense lookup tables, so the kernel needs q <= fields.TABLE_LIMIT.
The matrix is stored read-only as uint16, which holds every encoding
below that limit; `rref` copies its input to int64 and eliminates there,
each pivot step touching only the columns from the pivot on (the rows
below the pivot row are already zero to its left).

A code's dual is computed once and kept in its `_dual` slot.  The memo
points one way only: a dual never refers back to the code it came from,
so codes form no reference cycles and are freed as soon as they are
unreachable.  The check matrix is written down directly from the RREF
(identity on the free columns, negated non-pivot entries on the pivot
columns) and reduced by one elimination.  Since C^perp^perp = C, the
dual's own dual is pre-set to a fresh code sharing this code's read-only
matrix, so `intersect(C, D.dual())` never eliminates D^perp^perp again.

The Hermitian dual needs no elimination of its own.  Frobenius x -> x^q
is a field automorphism of GF(q^2) fixing 0 and 1, so applied entrywise
to an RREF matrix it gives the RREF of the image code with the same
pivots; hence C^(perp h) = frob(C^perp) is read off the memoised dual.
It also commutes with taking duals, dual(frob X) = frob(dual X), so the
Hermitian dual's own dual is frob(C) and is filled in up front, which
saves `intersect(C, C^(perp h))` one more elimination.

Minimum weight enumerates the message space in blocks.  Messages are
expanded into GF(p) digits and multiplied against a GF(p)-component
expansion of the generator matrix with a float64 matmul (exact at these
magnitudes), then reduced mod p; a coordinate is nonzero iff any of its
e components is.  Only normalised messages are scanned, those whose
leading (highest-index) nonzero symbol is 1: message index i holds
symbol (i // q^j) % q for row j, so they are the index ranges
[q^j, 2 q^j), because encoding 1 is the field's one.  Every nonzero
codeword is a nonzero scalar multiple of exactly one of them and has its
weight, so this is exact and does 1/(q-1) of the work.  The full-code
weight is kept in the `_min_weight` slot.  `min_weight_excluding` scans
only the ranges whose leading row lies outside the subcode (C minus a
subspace is closed under nonzero scalars too) and stops at the first
block that reaches the full-code weight, below which nothing can lie.
The cap makes infeasible enumerations an explicit error, never an
estimate: `q^k > cap` refuses every call, memoised or not.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldContext, require_tables

DEFAULT_WEIGHT_CAP = 20_000_000
_BLOCK = 1 << 15


class EnumerationBudgetError(RuntimeError):
    """Enumeration would exceed the codeword budget."""


def rref(ctx: FieldContext, rows: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; zero rows dropped."""
    require_tables(ctx)
    M = np.array(rows, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError("expected a 2-d array of encodings")
    nrows, ncols = M.shape
    MUL, SUB, INV = ctx.mul_table, ctx.sub_table, ctx.inv_table
    r = 0
    pivots = []
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        # rows r.. are zero left of column c, so row operations with the
        # pivot row change only columns c..
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr], c:] = M[[pr, r], c:]
        inv = INV[M[r, c]]
        if inv != 1:
            M[r, c:] = MUL[inv, M[r, c:]]
        col = M[:, c].copy()
        col[r] = 0
        hits = np.nonzero(col)[0]
        if hits.size:
            M[hits, c:] = SUB[M[hits, c:], MUL[col[hits][:, None], M[r, c:][None, :]]]
        pivots.append(c)
        r += 1
    return M[:r], tuple(pivots)


class LinearCode:
    """A length-n code over GF(q), held as its RREF generator matrix."""

    __slots__ = ("ctx", "n", "matrix", "pivots", "_dual", "_min_weight", "__weakref__")

    def __init__(self, ctx: FieldContext, n: int, matrix: np.ndarray, pivots: tuple):
        self.ctx = ctx
        self.n = n
        self.matrix = np.asarray(matrix, dtype=np.uint16)
        self.matrix.setflags(write=False)
        self.pivots = pivots
        self._dual: LinearCode | None = None
        self._min_weight: int | None = None

    @classmethod
    def from_rows(cls, ctx: FieldContext, rows, n: int | None = None) -> LinearCode:
        rows = list(rows)
        if not rows:
            if n is None:
                raise ValueError("zero code needs an explicit length")
            return cls(ctx, n, np.zeros((0, n), dtype=np.uint16), ())
        lengths = {len(r) for r in rows}
        if len(lengths) != 1:
            raise ValueError("ragged rows")
        length = lengths.pop()
        if n is not None and n != length:
            raise ValueError(f"rows have length {length}, expected {n}")
        M = np.array(rows, dtype=np.int64)
        if M.size and (M.min() < 0 or M.max() >= ctx.q):
            raise ValueError("entries are not element encodings of this field")
        R, piv = rref(ctx, M)
        return cls(ctx, length, R, piv)

    @property
    def k(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.ctx == other.ctx
            and self.n == other.n
            and self.matrix.shape == other.matrix.shape
            and bool((self.matrix == other.matrix).all())
        )

    def __repr__(self) -> str:
        return f"LinearCode({self.ctx!r}, n={self.n}, k={self.k})"

    # -- duals, sums, intersections --------------------------------------------

    def dual(self) -> LinearCode:
        """Euclidean dual under the standard inner product (memoised)."""
        if self._dual is None:
            ctx = require_tables(self.ctx)
            n = self.n
            pivots = list(self.pivots)
            is_free = np.ones(n, dtype=bool)
            is_free[pivots] = False
            free = np.flatnonzero(is_free)
            H = np.zeros((len(free), n), dtype=np.int64)
            H[np.arange(len(free)), free] = 1
            H[:, pivots] = ctx.neg_table[self.matrix[:, free]].T
            R, piv = rref(ctx, H)
            dual = LinearCode(ctx, n, R, piv)
            # a fresh code sharing the read-only matrix: no cycle forms
            dual._dual = LinearCode(ctx, n, self.matrix, self.pivots)
            self._dual = dual
        return self._dual

    def _check_compatible(self, other: LinearCode) -> None:
        if self.ctx != other.ctx:
            raise ValueError("codes over different fields")
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")

    def sum_with(self, other: LinearCode) -> LinearCode:
        self._check_compatible(other)
        stacked = np.vstack([self.matrix, other.matrix])
        R, piv = rref(self.ctx, stacked)
        return LinearCode(self.ctx, self.n, R, piv)

    def intersect(self, other: LinearCode) -> LinearCode:
        """C1 cap C2, computed as dual(dual(C1) + dual(C2))."""
        self._check_compatible(other)
        return self.dual().sum_with(other.dual()).dual()

    def hermitian_dual(self, base_q: int) -> LinearCode:
        """Dual under sum(u_i v_i^q) over GF(base_q^2): Frobenius of the dual.

        Frobenius keeps an RREF matrix in RREF with the same pivots, so no
        elimination runs here, and the result's dual is frob(self).
        """
        ctx = self.ctx
        if ctx.q != base_q * base_q:
            raise ValueError(f"{ctx!r} is not GF({base_q}^2)")
        frob = ctx.power_table(base_q)
        D = self.dual()
        herm = LinearCode(ctx, self.n, frob[D.matrix], D.pivots)
        herm._dual = LinearCode(ctx, self.n, frob[self.matrix], self.pivots)
        return herm

    # -- membership ---------------------------------------------------------------

    def _reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        ctx = self.ctx
        MUL, SUB = ctx.mul_table, ctx.sub_table
        R = np.array(rows, dtype=np.int64)
        for r, c in enumerate(self.pivots):
            coef = R[:, c].copy()
            hits = np.nonzero(coef)[0]
            if hits.size:
                R[hits] = SUB[R[hits], MUL[coef[hits][:, None], self.matrix[r][None, :]]]
        return R

    def contains(self, vector) -> bool:
        v = np.array(vector, dtype=np.int64).reshape(1, -1)
        if v.shape[1] != self.n:
            raise ValueError("vector length mismatch")
        return not self._reduce_rows(v).any()

    def is_subcode_of(self, other: LinearCode) -> bool:
        self._check_compatible(other)
        return not other._reduce_rows(self.matrix).any()

    # -- minimum weight ---------------------------------------------------------------

    def _refuse_over_cap(self, cap: int) -> None:
        total = self.ctx.q**self.k
        if total > cap:
            raise EnumerationBudgetError(
                f"q^k = {total} codewords exceeds the cap {cap}"
            )

    def min_weight(self, cap: int = DEFAULT_WEIGHT_CAP) -> int:
        """Exact minimum Hamming weight by message-space enumeration (memoised)."""
        if self.k == 0:
            raise ValueError("zero code has no nonzero codeword")
        self._refuse_over_cap(cap)
        if self._min_weight is None:
            self._min_weight = _min_weight_scan(self.ctx, self.matrix, 0, floor=1)
        return self._min_weight

    def min_weight_excluding(
        self, sub: LinearCode, cap: int = DEFAULT_WEIGHT_CAP
    ) -> int | None:
        """Minimum weight over this code minus a verified subcode.

        Returns None (the "empty" signal) when the subcode is the whole
        code.  Enumerates exactly the complement: the generator stacks a
        basis of the subcode below extension rows, and only messages whose
        leading nonzero symbol sits on an extension row are scanned.  The
        scan stops once it meets the full-code weight.
        """
        self._check_compatible(sub)
        if not sub.is_subcode_of(self):
            raise ValueError("excluded code is not a subcode")
        self._refuse_over_cap(cap)
        ext, _ = rref(self.ctx, sub._reduce_rows(self.matrix))
        if ext.shape[0] == 0:
            return None
        floor = self.min_weight(cap)
        gen = np.vstack([sub.matrix, ext])
        return _min_weight_scan(self.ctx, gen, sub.k, floor)


def _component_expansion(ctx: FieldContext, gen: np.ndarray) -> np.ndarray:
    """GF(p)-digit matrix of the generator: row e*i+l expands alpha^l * row i."""
    p, e = ctx.p, ctx.e
    k, n = gen.shape
    out = np.empty((e * k, e * n), dtype=np.float64)
    digits = ctx.digit_table
    alpha = p if e > 1 else 1
    scale = 1
    for l in range(e):
        scaled = gen if scale == 1 else ctx.mul_table[scale, gen]
        out[np.arange(k) * e + l, :] = digits[scaled].reshape(k, e * n)
        scale = ctx.mul(scale, alpha)
    return out


def _min_weight_scan(ctx: FieldContext, gen: np.ndarray, j0: int, floor: int) -> int:
    """Minimum symbol weight over the normalised messages with leading row >= j0.

    Those are the message indices in [q^j, 2 q^j) for j = j0 .. k-1; the
    scan returns as soon as a block reaches `floor`, a known lower bound.
    """
    require_tables(ctx)
    p, e, q = ctx.p, ctx.e, ctx.q
    k, n = gen.shape
    ghat = _component_expansion(ctx, gen)
    pw = p ** np.arange(e * k, dtype=np.int64)
    best = n + 1
    for j in range(j0, k):
        start = q**j
        for lo in range(start, 2 * start, _BLOCK):
            idx = np.arange(lo, min(lo + _BLOCK, 2 * start), dtype=np.int64)
            digits = ((idx[:, None] // pw) % p).astype(np.float64)
            cw = (digits @ ghat) % p
            weights = (cw.reshape(len(idx), n, e) != 0).any(axis=2).sum(axis=1)
            best = min(best, int(weights.min()))
            if best <= floor:
                return best
    return best
