"""Exact linear algebra over GF(q): reduced row echelon form, matrix
products, duals, intersections, Hermitian duals, and brute-force minimum
weight.

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
unreachable.  The check matrix is written down directly from a
systematic generator: identity on the free columns, negated non-pivot
entries on the pivot columns.  When 2k >= n the generator is the RREF
itself and the check matrix is reduced by one (n-k) x n elimination.
When 2k < n the generator is instead the RREF taken on reversed
columns, a k x n elimination whose pivots P_R are the right-greedy ones;
with F their complement, [I on F, -G_R^T on P_R] already is the RREF of
C^perp, because row f has off-identity entries only at pivots p > f
(matroid duality: the first basis of the dual matroid is the complement
of the last basis of the matroid).  Since C^perp^perp = C, the dual's
own dual is pre-set to a fresh code sharing this code's read-only
matrix, so `intersect(C, D.dual())` never eliminates D^perp^perp again.

Intersections come from a Gram matrix: C1 cap C2 = {m G1 : m G1 H2^T =
0} for a check matrix H2 of C2 (its memoised dual), so the intersection
is N G1 for N a basis of the left null space of the k1 x (n-k2) matrix
G1 H2^T, which is the dual of the row space of its transpose.  N and G1
are both in RREF, so N G1 is too, with G1's pivots at N's; no elimination
of length n runs.  The code of smaller dimension plays C1, which makes
the Gram matrix the smaller of the two choices, and since H2 and G1 are
the identity on their pivot columns, both products run over the free
columns only.  `field_matmul` forms each product from the GF(p)
digit planes of its operands, one float64 BLAS matmul per pair of planes
followed by a reduction mod p; the sums it reduces stay below
m e (p-1)^2 for inner dimension m, exact while that is under 2^53, and a
larger product raises ValueError.

The Hermitian dual needs no elimination of its own.  Frobenius x -> x^q
is a field automorphism of GF(q^2) fixing 0 and 1, so applied entrywise
to an RREF matrix it gives the RREF of the image code with the same
pivots; hence C^(perp h) = frob(C^perp) is read off the memoised dual.
It also commutes with taking duals, dual(frob X) = frob(dual X), so the
Hermitian dual's own dual is frob(C) and is filled in up front, which
saves `intersect(C, C^(perp h))` one more elimination.

Membership needs no elimination either: the RREF generator G is the
identity on its pivot columns, so R - R[:, pivots] G, one `field_matmul`,
is zero exactly on the rows of R that lie in the code.

Minimum weight enumerates the message space in blocks: each block of
messages is one `field_matmul` against the generator, and a codeword's
weight is its count of nonzero symbols.  Only normalised messages are
scanned, those whose leading (highest-index) nonzero symbol is 1:
message index i holds symbol (i // q^j) % q for row j, so they are the
index ranges [q^j, 2 q^j), because encoding 1 is the field's one.  Every
nonzero codeword is a nonzero scalar multiple of exactly one of them and
has its weight, so this is exact and does 1/(q-1) of the work.  The
full-code weight is kept in the `_min_weight` slot.
`min_weight_excluding` scans only the ranges whose leading row lies
outside the subcode (C minus a subspace is closed under nonzero scalars
too) and stops at the first block that reaches the full-code weight,
below which nothing can lie.  The cap makes infeasible enumerations an
explicit error, never an estimate: `q^k > cap` refuses every call,
memoised or not.
"""

from __future__ import annotations

import numpy as np

from .fields import FieldContext, require_tables

DEFAULT_WEIGHT_CAP = 20_000_000
_BLOCK = 1 << 13
_FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly


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
            low_rate = 2 * self.k < n
            if low_rate:
                # systematic on the right-greedy pivots: one k x n elimination
                R, rpiv = rref(ctx, self.matrix[:, ::-1])
                gen, pivots = R[:, ::-1], [n - 1 - c for c in rpiv]
            else:
                gen, pivots = self.matrix, list(self.pivots)
            free = np.flatnonzero(_free_columns(n, pivots))
            H = np.zeros((len(free), n), dtype=np.int64)
            H[np.arange(len(free)), free] = 1
            H[:, pivots] = ctx.neg_table[gen[:, free]].T
            if low_rate:
                R, piv = H, tuple(free.tolist())  # already the RREF of C^perp
            else:
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
        """C1 cap C2 = {m G1 : m G1 H2^T = 0}: N G1, N the left null space of G1 H2^T."""
        self._check_compatible(other)
        ctx, n = self.ctx, self.n
        if other.k < self.k:
            # the Gram matrix is k1 x (n - k2): smallest with the smaller code first
            return other.intersect(self)
        if self.k == 0 or other.k == n:
            return LinearCode(ctx, n, self.matrix, self.pivots)
        H2 = other.dual()
        # H2 is the identity on its pivot columns
        h_free = _free_columns(n, H2.pivots)
        gram = field_matmul(ctx, self.matrix[:, h_free], H2.matrix[:, h_free].T)
        gram = ctx.add_table[gram, self.matrix[:, list(H2.pivots)]]
        R, piv = rref(ctx, gram.T)
        null = LinearCode(ctx, self.k, R, piv).dual()
        # N and G1 are both in RREF, so N G1 is too, with pivots G1's at N's;
        # G1 is the identity on its pivot columns, where N G1 is N itself
        is_free = _free_columns(n, self.pivots)
        NG = np.empty((null.k, n), dtype=np.int64)
        NG[:, list(self.pivots)] = null.matrix
        NG[:, is_free] = field_matmul(ctx, null.matrix, self.matrix[:, is_free])
        return LinearCode(ctx, n, NG, tuple(self.pivots[c] for c in null.pivots))

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
        """R - R[:, pivots] G: zero exactly on the rows that lie in the code."""
        R = np.asarray(rows, dtype=np.int64)
        coef = R[:, list(self.pivots)]
        return self.ctx.sub_table[R, field_matmul(self.ctx, coef, self.matrix)]

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


def _free_columns(n: int, pivots) -> np.ndarray:
    """Boolean mask of the n columns that are not pivots."""
    is_free = np.ones(n, dtype=bool)
    is_free[list(pivots)] = False
    return is_free


def field_matmul(ctx: FieldContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The product A B over GF(q) of encoding matrices A (r x m) and B (m x s).

    With x the field's polynomial variable, A = sum_i x^i A_i over its e
    GF(p) digit planes, and likewise B; then A B = sum_u x^u S_u with
    S_u = sum_{i+j=u} A_i B_j, each plane product one float64 matmul.  The
    entries of S_u are integers below m e (p-1)^2, exact while that is
    under 2^53, which is checked.  Each S_u is reduced mod p, and x^u for
    u >= e folds back onto the e digits through the field's digit table.
    """
    require_tables(ctx)
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape}")
    p, e = ctx.p, ctx.e
    m = A.shape[1]
    if m * e * (p - 1) ** 2 >= _FLOAT_EXACT:
        raise ValueError(f"inner dimension {m} is too large for an exact product over {ctx!r}")
    a = _digit_planes(p, e, A)
    b = _digit_planes(p, e, B)
    digits = []
    for u in range(2 * e - 1):
        i0, i1 = max(0, u - e + 1), min(u, e - 1)
        s_u = a[i0] @ b[u - i0]
        for i in range(i0 + 1, i1 + 1):
            s_u += a[i] @ b[u - i]
        np.fmod(s_u, p, out=s_u)
        if u < e:
            digits.append(s_u)
        else:
            for t, coef in enumerate(ctx.digit_table[ctx.pow(p, u)]):
                if coef:
                    digits[t] += coef * s_u
    if e == 1:
        return digits[0].astype(np.int64)  # already reduced
    out = np.zeros(digits[0].shape, dtype=np.int64)
    for t in reversed(range(e)):
        out = out * p + np.fmod(digits[t], p).astype(np.int64)
    return out


def _digit_planes(p: int, e: int, M: np.ndarray) -> list[np.ndarray]:
    """The GF(p) digits of each encoding in M, one float64 plane per digit."""
    if e == 1:
        return [M.astype(np.float64)]
    return [((M // p**t) % p).astype(np.float64) for t in range(e)]


def _min_weight_scan(ctx: FieldContext, gen: np.ndarray, j0: int, floor: int) -> int:
    """Minimum symbol weight over the normalised messages with leading row >= j0.

    Those are the message indices in [q^j, 2 q^j) for j = j0 .. k-1; the
    scan returns as soon as a block reaches `floor`, a known lower bound.
    """
    q = ctx.q
    k, n = gen.shape
    pw = q ** np.arange(k, dtype=np.int64)
    best = n + 1
    for j in range(j0, k):
        start = q**j
        for lo in range(start, 2 * start, _BLOCK):
            idx = np.arange(lo, min(lo + _BLOCK, 2 * start), dtype=np.int64)
            codewords = field_matmul(ctx, (idx[:, None] // pw) % q, gen)
            best = min(best, int(np.count_nonzero(codewords, axis=1).min()))
            if best <= floor:
                return best
    return best
