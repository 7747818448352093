"""Exact linear algebra over GF(q): reduced row echelon form, matrix
products, duals, relative hulls and intersections, Hermitian duals, and
minimum weight by the Brouwer-Zimmermann search.

A LinearCode is its RREF generator matrix (zero rows dropped), which is
the canonical representative of the row space: two codes are equal iff
their matrices are identical.  `LinearCode.from_rows` is the one way
from rows not in RREF to a code; the constructor takes rows already in
RREF (null spaces, `_span_of`, `hermitian_dual`).  The field keeps only
its digit rows and log/antilog pair; `kernel_tables` builds from them,
once per field and on first use, the three tables the kernel reads: the
q x q `mul` and `sub` that vectorize the row operations of `rref`, and
the e x q x e `shift` of `field_matmul`.  Every other operation is
written with those: a negation is a row of `sub` (-b = 0 - b), a sum
a - (0 - b), and the one inverse per pivot is read from the log/antilog
pair.  The tables need q <= TABLE_LIMIT, so the kernel, and every code
built with it, refuses larger fields.  The matrix is stored read-only as
uint16, which holds every encoding below that limit; `rref` copies its
input to int64 and eliminates there, each pivot step touching only the
columns from the pivot on (the rows below the pivot row are already zero
to its left).  A step reads `sub` by one take from the flattened table,
sub[a, b] at a q + b, which numpy runs several times faster than
indexing with two arrays, and one search skips a whole run of columns
that are zero below the current row.

A code's dual is computed once and kept in its `_dual` slot.  The memo
points one way only: a dual never refers back to the code it came from,
so codes form no reference cycles and are freed as soon as they are
unreachable.  No intersection or relative hull reads it.

A check matrix is written down directly from a generator that is the
identity on its pivot columns: identity on the free columns, negated
non-pivot entries on the pivot columns.  The null space of any matrix M
comes from one elimination of M on reversed columns: its pivots P are
the right-greedy ones, and with F their complement, the check matrix
[I on F, -R^T on P] already is in RREF, because row f has off-identity
entries only at pivots p > f (matroid duality: the first basis of the
dual matroid is the complement of the last basis of the matroid).  When
2k < n the dual is that null space of the generator, one k x n
elimination; when 2k >= n the check matrix of the RREF itself is
reduced by one (n-k) x n elimination.

The relative hull C1 cap C2^perp = {m G1 : m G1 G2^T = 0} is N G1 for N
the left null space of the k1 x k2 Gram matrix G1 G2^T, taken as above
from one elimination of its transpose.  N and G1 are both in RREF, so
N G1 is too, with G1's pivots at N's; no dual is built and no
elimination of length n runs.  G2 and G1 are the identity on their
pivot columns, so both products run over the free columns only.  The
rank of the Gram matrix, k1 - dim(C1 cap C2^perp), is the entanglement
count c of the EAQECC parameters (Wilde & Brun 2008).

An intersection is taken by membership, with no dual: reduction against
a code B is linear, so m G_A lies in B exactly when m M = 0, for M the
generator G_A reduced against B (see membership below).  A cap B is N
G_A, N the left null space of M, embedded as the relative hull embeds
its own, and dim(A cap B) = k_A - rank M, one elimination with no basis
built.  M is k_A x (n - k_B), so with A the smaller code it is the
smaller of the two choices.

`field_matmul` writes A B as sum_t A_t (x^t B) over the e GF(p) digit
planes A_t of A: one BLAS matmul per plane, against the digits of x^t B
read from the kernel's shift table, then one reduction mod p.  The sums
are integers below m e (p-1)^2 for inner dimension m.  While that is
under 2^24 the planes, the operand, the accumulator and the reduction
are float32, which holds every integer below 2^24 exactly, so every
partial sum is exact in any order; from 2^24 to 2^53 they are float64,
and a larger product raises ValueError.  The reduction a - p floor(a/p)
is exact below either bound: the rounded quotient differs from a/p by at
most a/p times 2^-24 (2^-53 in float64), less than 1/p, while a/p lies at
least 1/p below the next integer, so its floor is the true quotient.
The product is formed one column block of B at a time, so that the
digit operand of x^t B holds at most OPERAND_BLOCK cells (1 MB in
float32, 2 MB in float64), or as many as A has when that is more: a
narrower block would leave the matmul bound by reading A.

The Hermitian dual is the memoised dual's image under x -> x^q, entrywise:
an automorphism of GF(q^2) fixing 0 and 1, so it keeps the RREF and its
pivots, and no elimination runs.

Membership needs no elimination either: the RREF generator G is the
identity on its pivot columns, so R - R[:, pivots] G is zero there by
construction, and on the free columns, one `field_matmul`, it is zero
exactly on the rows of R that lie in the code.

Minimum weight is the Brouwer-Zimmermann search (Zimmermann 1996, as
described by Grassl, "Searching for linear codes with large minimum
distance", 2006).  Information sets are built greedily, each on the
nonzero columns that no earlier set used: the first is the RREF's pivots,
so it is full, and set j, of rank r_j <= k, comes from one RREF of the
generator with those columns moved first.  That gives a generator G_j of
the code that is the identity on set j in its first r_j rows and zero
there in the others, so a codeword m G_j has at least wt(m) - (k - r_j)
nonzero symbols on set j.  Level w enumerates the messages of weight w
whose first nonzero symbol is 1 (every nonzero codeword is a nonzero
multiple of exactly one such message per set), in blocks of one
`field_matmul` each, on every set with k - r_j <= w.  A set that joins at
a later level first catches up on the levels below, because the bound
counts a set only once it has covered every level up to w: after level w
every codeword not yet seen has weight at least
sum_j max(0, w + 1 - k + r_j), the sets being disjoint.  The search stops
once the best weight found is at most that bound or a known floor, and
after level k, where the first set alone has covered every message.
Before each later level it compares what its sets would still need for
the bound to reach the best weight with the first set alone through
level k, and goes on with the first set alone when that costs no more:
low-rate codes, with many information sets and a large weight, would
otherwise enumerate more than all q^k messages.  The `_min_weight` slot
keeps the weight, the work and a witness: the first codeword the search
found at that weight, which `min_weight_word` returns under the same cap
rules as the weight.  `min_weight_excluding` runs the
same search and drops the codewords that reduce to zero against the
subcode; the bound holds for what is left, since every codeword below it
has been seen.

The cap makes infeasible searches an explicit error, never an estimate.
It counts the messages of every level a search enters on every set, and
the search raises before a level would take that count past the cap, so
at cap 0 it builds no information set and forms no product.  A memoised
weight whose search counted more than the cap refuses too, and so does a
refused search, kept as (None, count, None) in the same slot, for every cap
below the count it refused at.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import numpy as np

from .fields import FieldContext

TABLE_LIMIT = 512  # the kernel's q x q tables only up to this size
DEFAULT_WEIGHT_CAP = 20_000_000
_MESSAGE_BLOCK = 1 << 13
_REDUCE_BLOCK = 1 << 16  # cells per reduction step of field_matmul
OPERAND_BLOCK = 1 << 18  # cells of B's digit operand per block of field_matmul
_FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly


class EnumerationBudgetError(RuntimeError):
    """The search would enumerate more messages than the budget allows;
    `work` is the message count it refused at."""

    def __init__(self, work: int, cap: int):
        super().__init__(work, cap)  # the arguments, so that it pickles
        self.work, self.cap = work, cap

    def __str__(self) -> str:
        return f"{self.work} messages exceed the cap {self.cap}"


@lru_cache(maxsize=None)
def kernel_tables(ctx: FieldContext) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mul, sub, shift) over ctx: mul[a, b] = a b and sub[a, b] = a - b
    (q x q, int64), and shift[t, a] the GF(p) digits of x^t a (e x q x e,
    float64).  Raises ValueError for q > TABLE_LIMIT."""
    q, p, e = ctx.q, ctx.p, ctx.e
    if q > TABLE_LIMIT:
        raise ValueError(f"dense tables need q <= {TABLE_LIMIT}; {ctx!r} is too large")
    exp, log, digits = ctx.exp_table, ctx.log_table, ctx.digits
    mul = exp[(log[:, None] + log[None, :]) % (q - 1)]
    mul[0, :] = mul[:, 0] = 0
    place = p ** np.arange(e, dtype=np.int64)
    # one digit plane at a time: q x q temporaries, not q x q x e
    sub = sum((digits[:, t, None] - digits[None, :, t]) % p * place[t] for t in range(e))
    # x^t is encoded as p^t for t < e
    shift = digits[mul[place]].astype(np.float64)
    for table in (mul, sub, shift):
        table.setflags(write=False)  # shared by every caller through the cache
    return mul, sub, shift


def rref(ctx: FieldContext, rows: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns; zero rows dropped."""
    MUL, SUB, _ = kernel_tables(ctx)
    SUB, q = SUB.ravel(), ctx.q  # SUB[a, b] is SUB.take(a q + b): one flat take
    M = np.array(rows, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError("expected a 2-d array of encodings")
    nrows, ncols = M.shape
    r = c = 0
    pivots = []
    while r < nrows and c < ncols:
        nz = M[r:, c].nonzero()[0]
        if nz.size == 0:
            # one search skips the whole run of columns that are zero below row r
            live = M[r:, c:].any(axis=0).nonzero()[0]
            if live.size == 0:
                break
            c += int(live[0])
            nz = M[r:, c].nonzero()[0]
        # rows r.. are zero left of column c, so row operations with the
        # pivot row change only columns c..
        pr = r + int(nz[0])
        if pr != r:
            M[[r, pr], c:] = M[[pr, r], c:]
        if M[r, c] != 1:
            M[r, c:] = MUL[ctx.inv(int(M[r, c])), M[r, c:]]
        col = M[:, c].copy()
        col[r] = 0
        hits = col.nonzero()[0]
        if hits.size:
            M[hits, c:] = SUB.take(M[hits, c:] * q + MUL[:, M[r, c:]][col[hits]])
        pivots.append(c)
        r += 1
        c += 1
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
        # (weight, messages counted, a word of that weight), or
        # (None, count, None) after a refused search
        self._min_weight: tuple[int | None, int, np.ndarray | None] | None = None

    @classmethod
    def from_rows(cls, ctx: FieldContext, rows, n: int | None = None) -> LinearCode:
        """The code spanned by `rows`, equal-length rows of element encodings
        or a 2-d integer array; `n` is needed only when there is no row to
        read it from.  Raises ValueError for ragged or malformed rows."""
        M = _encodings(ctx, rows)
        if M.shape == (0,):
            if n is None:
                raise ValueError("zero code needs an explicit length")
            M = M.reshape(0, n)
        if M.ndim != 2:
            raise ValueError("expected rows of element encodings")
        if n is not None and n != M.shape[1]:
            raise ValueError(f"rows have length {M.shape[1]}, expected {n}")
        R, piv = rref(ctx, M)
        return cls(ctx, M.shape[1], R, piv)

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
            ctx = self.ctx
            if 2 * self.k < self.n:  # one k x n elimination
                self._dual = LinearCode(ctx, self.n, *_null_space(ctx, self.matrix))
            else:
                H, _ = _check_matrix(ctx, self.matrix, self.pivots)
                self._dual = LinearCode.from_rows(ctx, H, self.n)
        return self._dual

    def _check_compatible(self, other: LinearCode) -> None:
        if self.ctx != other.ctx:
            raise ValueError("codes over different fields")
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")

    def sum_with(self, other: LinearCode) -> LinearCode:
        self._check_compatible(other)
        return LinearCode.from_rows(self.ctx, np.vstack([self.matrix, other.matrix]), self.n)

    def _gram(self, other: LinearCode) -> np.ndarray:
        """The k1 x k2 Gram matrix G1 G2^T."""
        self._check_compatible(other)
        ctx = self.ctx
        # G2 is the identity on its pivot columns
        free2 = _free_columns(self.n, other.pivots)
        gram = field_matmul(ctx, self.matrix[:, free2], other.matrix[:, free2].T)
        # plus G1 on G2's pivots: a + b = a - (0 - b)
        _, sub, _ = kernel_tables(ctx)
        return sub.ravel().take(gram * ctx.q + sub[0].take(self.matrix[:, list(other.pivots)]))

    def relative_hull(self, other: LinearCode) -> LinearCode:
        """C1 cap C2^perp = {m G1 : m G1 G2^T = 0}: N G1, N the left null
        space of the Gram matrix G1 G2^T.  No dual is eliminated."""
        return self._span_of(*_null_space(self.ctx, self._gram(other).T))

    def _span_of(self, null: np.ndarray, null_piv: tuple) -> LinearCode:
        """The code of N G, for N in RREF with pivots `null_piv`."""
        ctx, n = self.ctx, self.n
        # N and G are both in RREF, so N G is too, with pivots G's at N's;
        # G is the identity on its pivot columns, where N G is N itself
        is_free = _free_columns(n, self.pivots)
        NG = np.empty((len(null), n), dtype=np.int64)
        NG[:, list(self.pivots)] = null
        NG[:, is_free] = field_matmul(ctx, null, self.matrix[:, is_free])
        return LinearCode(ctx, n, NG, tuple(self.pivots[c] for c in null_piv))

    def _smaller_first(self, other: LinearCode) -> tuple[LinearCode, LinearCode]:
        """(A, B), the two codes with A the smaller: A's generator reduced
        against B is k_A x (n - k_B), the smaller of the two choices."""
        self._check_compatible(other)
        return (other, self) if other.k < self.k else (self, other)

    def intersect(self, other: LinearCode) -> LinearCode:
        """C1 cap C2 = {m G_A : m M = 0}, M = G_A reduced against B: N G_A,
        N the left null space of M.  No dual is eliminated."""
        a, b = self._smaller_first(other)
        return a._span_of(*_null_space(a.ctx, b._reduce_rows(a.matrix).T))

    def intersect_dim(self, other: LinearCode) -> int:
        """dim(C1 cap C2) = k_A - rank M, for the matrix M that `intersect`
        reduces: one elimination, and no basis built."""
        a, b = self._smaller_first(other)
        return a.k - len(rref(a.ctx, b._reduce_rows(a.matrix))[1])

    def hermitian_dual(self, base_q: int) -> LinearCode:
        """Dual under sum(u_i v_i^q) over GF(base_q^2): the dual's image under
        x -> x^base_q, entrywise, which keeps its RREF and pivots."""
        ctx = self.ctx
        if ctx.q != base_q * base_q:
            raise ValueError(f"{ctx!r} is not GF({base_q}^2)")
        dual = self.dual()
        return LinearCode(ctx, self.n, ctx.power_table(base_q)[dual.matrix], dual.pivots)

    # -- membership ---------------------------------------------------------------

    def _reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        """R - R[:, pivots] G on the free columns: zero exactly on the rows of
        R that lie in the code (on the pivot columns, where G is the
        identity, it is zero by construction)."""
        R = np.asarray(rows, dtype=np.int64)
        is_free = _free_columns(self.n, self.pivots)
        coef = R[:, list(self.pivots)]
        _, sub, _ = kernel_tables(self.ctx)
        prod = field_matmul(self.ctx, coef, self.matrix[:, is_free])
        return sub.ravel().take(R[:, is_free] * self.ctx.q + prod)

    def contains(self, vector) -> bool:
        v = _encodings(self.ctx, vector).reshape(1, -1)
        if v.shape[1] != self.n:
            raise ValueError("vector length mismatch")
        return not self._reduce_rows(v).any()

    def is_subcode_of(self, other: LinearCode) -> bool:
        self._check_compatible(other)
        return not other._reduce_rows(self.matrix).any()

    # -- minimum weight ---------------------------------------------------------------

    def _weight_search(self, cap: int) -> tuple[int, int, np.ndarray]:
        """The memoised (weight, messages counted, word) of the search, run
        first if need be; raises as `min_weight` says."""
        if self.k == 0:
            raise ValueError("zero code has no nonzero codeword")
        memo = self._min_weight
        if memo is None or (memo[0] is None and memo[1] <= cap):
            try:
                weight, work, word = _brouwer_zimmermann(self, cap, floor=1)
            except EnumerationBudgetError as exc:
                memo = (None, exc.work, None)
            else:
                word = word.astype(np.uint16)
                word.setflags(write=False)
                memo = (weight, work, word)
            self._min_weight = memo
        if memo[1] > cap:
            raise EnumerationBudgetError(memo[1], cap)
        return memo

    def min_weight(self, cap: int = DEFAULT_WEIGHT_CAP) -> int:
        """Exact minimum Hamming weight by Brouwer-Zimmermann search (memoised).

        Raises EnumerationBudgetError when the search needs more than `cap`
        messages, also when the weight is already known.  A refusal is
        memoised too: the search does not depend on the cap, so it runs
        again only for a cap of at least the count it refused at.
        """
        return self._weight_search(cap)[0]

    def min_weight_word(self, cap: int = DEFAULT_WEIGHT_CAP) -> np.ndarray:
        """A codeword of weight `min_weight(cap)`, read-only: the first the
        search found at that weight, memoised with it.  Refuses exactly
        where `min_weight` does."""
        return self._weight_search(cap)[2]

    def min_weight_excluding(
        self, sub: LinearCode, cap: int = DEFAULT_WEIGHT_CAP
    ) -> int | None:
        """Minimum weight over this code minus a verified subcode.

        Returns None (the "empty" signal) when the subcode is the whole
        code.  Otherwise runs the search, dropping codewords that lie in the
        subcode, and stops once it meets the full-code weight, below which
        nothing can lie.  That weight is asked for first, so a refusal
        comes before any product.
        """
        self._check_compatible(sub)
        floor = self.min_weight(cap) if sub.k < self.k else None
        if not sub.is_subcode_of(self):
            raise ValueError("excluded code is not a subcode")
        if sub.k == self.k:
            return None
        return _brouwer_zimmermann(self, cap, floor, sub)[0]


def _encodings(ctx: FieldContext, rows) -> np.ndarray:
    """rows as an int64 array.  Raises ValueError for ragged rows (numpy
    refuses them) and unless every entry is an integer in [0, q), so none
    is truncated; empty input, float64 to numpy, is accepted."""
    M = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows))
    if M.size and (M.dtype.kind not in "iu" or M.min() < 0 or M.max() >= ctx.q):
        raise ValueError("entries are not element encodings of this field")
    return M.astype(np.int64, copy=False)


def _free_columns(n: int, pivots) -> np.ndarray:
    """Boolean mask of the n columns that are not pivots."""
    is_free = np.ones(n, dtype=bool)
    is_free[list(pivots)] = False
    return is_free


def _check_matrix(ctx: FieldContext, gen: np.ndarray, pivots) -> tuple[np.ndarray, tuple]:
    """[I on the free columns, -gen^T on the pivots] and its identity
    columns: a check matrix of the code of `gen`, the identity on `pivots`."""
    free = np.flatnonzero(_free_columns(gen.shape[1], pivots))
    H = np.zeros((len(free), gen.shape[1]), dtype=np.int64)
    H[np.arange(len(free)), free] = 1
    _, sub, _ = kernel_tables(ctx)
    H[:, list(pivots)] = sub[0, gen[:, free]].T  # -b = 0 - b
    return H, tuple(free.tolist())


def _null_space(ctx: FieldContext, M: np.ndarray) -> tuple[np.ndarray, tuple]:
    """RREF basis of {x : M x^T = 0} and its pivots, from one elimination of
    M on reversed columns.  Its pivots P are the right-greedy ones, and the
    check matrix written on them is already in RREF (matroid duality)."""
    n = M.shape[1]
    R, rpiv = rref(ctx, M[:, ::-1])
    return _check_matrix(ctx, R[:, ::-1], [n - 1 - c for c in rpiv])


def field_matmul(ctx: FieldContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The product A B over GF(q) of encoding matrices A (r x m) and B (m x s).

    With x the field's polynomial variable and A_t the e GF(p) digit planes
    of A, A B = sum_t A_t (x^t B): one matmul per plane, against the digits
    of x^t B from the kernel's shift table side by side.  Every partial sum
    is an integer below m e (p-1)^2.  While that is under 2^24 the product
    runs in float32, which holds every such integer exactly, so no sum is
    rounded in whatever order BLAS adds; from 2^24 to 2^53 it runs in
    float64, exact for the same reason, and a larger product raises
    ValueError.  One reduction mod p and a recombination straight into the
    int64 result end it.  The product is formed one column block of B at a
    time, so that the digit operand (m x s_b e) holds at most OPERAND_BLOCK
    cells, or as many as A has when that is more, and at least one column.
    """
    _, _, shift = kernel_tables(ctx)
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape}")
    (r, m), s = A.shape, B.shape[1]
    p, e = ctx.p, ctx.e
    bound = m * e * (p - 1) ** 2
    if bound >= _FLOAT_EXACT:
        raise ValueError(f"inner dimension {m} is too large for an exact product over {ctx!r}")
    # float32 holds every integer below 2^24 exactly: half the bytes of
    # every operand, accumulator and temporary wherever the sums stay below it
    shift = shift.astype(np.float32 if bound < 1 << 24 else np.float64, copy=False)
    out = np.empty((r, s), dtype=np.int64)
    # a block of fewer digit columns than A has rows would leave the matmul
    # bound by reading A, so a block may also be as large as A
    width = max(1, max(OPERAND_BLOCK, r * m) // max(1, m * e))
    for lo in range(0, s, width):
        Bb = B[:, lo:lo + width]
        sb = Bb.shape[1]
        # A_t is the plain digits at shift 0, read one plane at a time to keep peak RSS down
        acc = np.take(shift[0, :, 0], A) @ np.take(shift[0], Bb, axis=0).reshape(m, sb * e)
        for t in range(1, e):
            acc += np.take(shift[0, :, t], A) @ np.take(shift[t], Bb, axis=0).reshape(m, sb * e)
        # exact below either bound, where the rounded quotient of an integer
        # a by p is off by less than 1/p, so it cannot reach the next integer;
        # several times faster than np.fmod.  Reduced a block of rows at a
        # time, so its temporaries stay near _REDUCE_BLOCK cells
        rows = max(1, _REDUCE_BLOCK // max(1, sb * e))
        for top in range(0, r, rows):
            block = acc[top:top + rows]
            block -= p * np.floor(block / p)
        digits = acc.reshape(r, sb, e)
        value = out[:, lo:lo + sb]
        np.copyto(value, digits[..., e - 1], casting="unsafe")
        for t in reversed(range(e - 1)):
            value *= p
            np.add(value, digits[..., t], out=value, casting="unsafe")
    return out


def _brouwer_zimmermann(
    code: LinearCode, cap: int, floor: int, sub: LinearCode | None = None
) -> tuple[int, int, np.ndarray]:
    """Minimum weight over the code, or over the code minus `sub`, the
    number of messages counted against `cap`, and the first codeword found
    at that weight.

    Returns as soon as a block reaches `floor`, a known lower bound.  Each
    information set is [generator, rank, last level enumerated].
    """
    ctx, k, n = code.ctx, code.k, code.n
    sets = [[code.matrix, k, 0]]
    unused = _free_columns(n, code.pivots) & code.matrix.any(axis=0)
    best, work, word = n + 1, 0, None
    for w in range(1, k + 1):
        if w > 1 and _cheaper_to_exhaust(ctx.q, k, w, best, [r for _, r, _ in sets]):
            del sets[1:]
            unused[:] = False
        j = 0
        # ranks never grow from one set to the next, so the sets that
        # contribute at level w are a prefix
        while j < len(sets) and k - sets[j][1] <= w:
            gen, _, done = sets[j]
            for level in range(done + 1, w + 1):
                work += _level_size(ctx.q, k, level)
                if work > cap:
                    raise EnumerationBudgetError(work, cap)
                for messages in _normalised_messages(ctx.q, k, level):
                    codewords = field_matmul(ctx, messages, gen)
                    if sub is not None:
                        codewords = codewords[sub._reduce_rows(codewords).any(axis=1)]
                    if len(codewords):
                        weights = np.count_nonzero(codewords, axis=1)
                        i = int(weights.argmin())
                        if weights[i] < best:
                            best, word = int(weights[i]), codewords[i]
                    if best <= floor:
                        return best, work, word
            sets[j][2] = w
            j += 1
            if j == len(sets) and unused.any():
                gen, info = _information_set(code, unused)
                unused[info] = False
                sets.append([gen, len(info), 0])
        if best <= sum(max(0, w + 1 - k + r) for _, r, done in sets if done == w):
            break
    return best, work, word


def _cheaper_to_exhaust(q: int, k: int, w: int, best: int, ranks: list[int]) -> bool:
    """Whether the first set alone through level k, which is exhaustive,
    costs no more than levels w.. on the sets of these ranks until their
    bound reaches `best`."""
    exhaustive = sum(_level_size(q, k, level) for level in range(w, k + 1))
    search = 0
    for level in range(w, k + 1):
        search += _level_size(q, k, level) * sum(k - r <= level for r in ranks)
        if search >= exhaustive:
            return True
        if sum(max(0, level + 1 - k + r) for r in ranks) >= best:
            return False
    return True


def _level_size(q: int, k: int, w: int) -> int:
    """The number of normalised messages of weight w on k rows."""
    return comb(k, w) * (q - 1) ** (w - 1)


def _information_set(code: LinearCode, unused: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A generator that is systematic on a maximal independent set of the
    unused columns, and those columns: RREF with the unused columns first."""
    cols = np.flatnonzero(unused)
    order = np.concatenate([cols, np.flatnonzero(~unused)])
    R, piv = rref(code.ctx, code.matrix[:, order])
    gen = np.empty_like(R)
    gen[:, order] = R
    return gen, [int(order[c]) for c in piv if c < len(cols)]


def _normalised_messages(q: int, k: int, w: int):
    """The messages of weight w whose first nonzero symbol is 1, in blocks.

    On each support of w rows the other w - 1 symbols are the nonzero
    encodings 1 .. q-1, read as the base-(q-1) digits of an index.
    """
    tails = (q - 1) ** (w - 1)
    pw = (q - 1) ** np.arange(w - 1, dtype=np.int64)
    supports = itertools.combinations(range(k), w)
    while chunk := list(itertools.islice(supports, max(1, _MESSAGE_BLOCK // tails))):
        for lo in range(0, tails, _MESSAGE_BLOCK):
            idx = np.arange(lo, min(lo + _MESSAGE_BLOCK, tails), dtype=np.int64)
            symbols = np.ones((len(idx), w), dtype=np.int64)
            symbols[:, 1:] = 1 + (idx[:, None] // pw) % (q - 1)
            rows = np.repeat(np.array(chunk, dtype=np.int64), len(idx), axis=0)
            messages = np.zeros((len(rows), k), dtype=np.int64)
            np.put_along_axis(messages, rows, np.tile(symbols, (len(chunk), 1)), axis=1)
            yield messages
