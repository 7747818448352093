"""Exact linear algebra over GF(q): reduced row echelon form, matrix
products, duals, relative hulls and intersections, Frobenius images and
Hermitian duals, and minimum weight by the Brouwer-Zimmermann search.

A LinearCode is its RREF generator matrix (zero rows dropped), which is
the canonical representative of the row space: two codes are equal iff
their matrices are identical.  Row operations are vectorized through the
field's dense lookup tables, which no module outside the kernel and
fields.py reads, so the kernel needs q <= fields.TABLE_LIMIT.
The matrix is stored read-only as uint16, which holds every encoding
below that limit; `rref` copies its input to int64 and eliminates there,
each pivot step touching only the columns from the pivot on (the rows
below the pivot row are already zero to its left).

A code's dual is computed once and kept in its `_dual` slot.  The memo
points one way only: a dual never refers back to the code it came from,
so codes form no reference cycles and are freed as soon as they are
unreachable.  Since C^perp^perp = C, the dual's own dual is pre-set to a
fresh code sharing this code's read-only matrix, so `intersect(C,
D.dual())` never eliminates D^perp^perp again.

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
count c of the EAQECC parameters (Wilde & Brun 2008).  An intersection
is the relative hull against the memoised dual of the larger code, so
its Gram matrix is k1 x (n-k2), the smaller of the two choices.
`field_matmul` writes A B as sum_t A_t (x^t B) over the e GF(p) digit
planes A_t of A: one float64 BLAS matmul per plane, against the digits
of x^t B read from the field's shift table, then one reduction mod p.
The sums stay below m e (p-1)^2 for inner dimension m, exact while that
is under 2^53, and a larger product raises ValueError.

Frobenius x -> x^q is a field automorphism of GF(q^2) fixing 0 and 1,
so applied entrywise to an RREF matrix it gives the RREF of the image
code with the same pivots, with no elimination.  The Hermitian dual is
frob(C^perp), read off the memoised dual.  The Hermitian hull needs no dual:
C cap C^(perp h) = C cap frob(C)^perp is the relative hull of C against
frob(C), from the Gram matrix G G^(q)T (Guenda, Jitman & Gulliver 2018).

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
otherwise enumerate more than all q^k messages.  The weight and the work
are kept in the `_min_weight` slot.  `min_weight_excluding` runs the
same search and drops the codewords that reduce to zero against the
subcode; the bound holds for what is left, since every codeword below it
has been seen.

The cap makes infeasible searches an explicit error, never an estimate.
It counts the messages of every level a search enters on every set, and
the search raises before a level would take that count past the cap, so
at cap 0 it builds no information set and forms no product.  A memoised
weight whose search counted more than the cap refuses too.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np

from .fields import FieldContext, require_tables

DEFAULT_WEIGHT_CAP = 20_000_000
_MESSAGE_BLOCK = 1 << 13
_FLOAT_EXACT = 1 << 53  # float64 holds every integer below this exactly


class EnumerationBudgetError(RuntimeError):
    """The search would enumerate more messages than the budget allows."""


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
        self._min_weight: tuple[int, int] | None = None  # (weight, messages counted)

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
            if 2 * self.k < self.n:
                R, piv = _null_space(ctx, self.matrix)  # one k x n elimination
            else:
                H, _ = _check_matrix(ctx, self.matrix, self.pivots)
                R, piv = rref(ctx, H)
            dual = LinearCode(ctx, self.n, R, piv)
            # a fresh code sharing the read-only matrix: no cycle forms
            dual._dual = LinearCode(ctx, self.n, self.matrix, self.pivots)
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

    def relative_hull(self, other: LinearCode) -> LinearCode:
        """C1 cap C2^perp = {m G1 : m G1 G2^T = 0}: N G1, N the left null
        space of the Gram matrix G1 G2^T.  No dual is eliminated."""
        self._check_compatible(other)
        ctx, n = self.ctx, self.n
        # G2 is the identity on its pivot columns
        free2 = _free_columns(n, other.pivots)
        gram = field_matmul(ctx, self.matrix[:, free2], other.matrix[:, free2].T)
        gram = ctx.add_table[gram, self.matrix[:, list(other.pivots)]]
        null, null_piv = _null_space(ctx, gram.T)
        # N and G1 are both in RREF, so N G1 is too, with pivots G1's at N's;
        # G1 is the identity on its pivot columns, where N G1 is N itself
        is_free = _free_columns(n, self.pivots)
        NG = np.empty((len(null), n), dtype=np.int64)
        NG[:, list(self.pivots)] = null
        NG[:, is_free] = field_matmul(ctx, null, self.matrix[:, is_free])
        return LinearCode(ctx, n, NG, tuple(self.pivots[c] for c in null_piv))

    def intersect(self, other: LinearCode) -> LinearCode:
        """C1 cap C2 = C1 cap (C2^perp)^perp: the relative hull against C2's dual."""
        self._check_compatible(other)
        if other.k < self.k:
            # the Gram matrix is k1 x (n - k2): smallest with the smaller code first
            return other.intersect(self)
        return self.relative_hull(other.dual())

    def frobenius(self, base_q: int) -> LinearCode:
        """The image under x -> x^base_q, entrywise, over GF(base_q^2).

        Frobenius keeps an RREF matrix in RREF with the same pivots, so no
        elimination runs.
        """
        ctx = self.ctx
        if ctx.q != base_q * base_q:
            raise ValueError(f"{ctx!r} is not GF({base_q}^2)")
        return LinearCode(ctx, self.n, ctx.power_table(base_q)[self.matrix], self.pivots)

    def hermitian_dual(self, base_q: int) -> LinearCode:
        """Dual under sum(u_i v_i^q) over GF(base_q^2): Frobenius of the dual."""
        return self.dual().frobenius(base_q)

    # -- membership ---------------------------------------------------------------

    def _reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        """R - R[:, pivots] G on the free columns: zero exactly on the rows of
        R that lie in the code (on the pivot columns, where G is the
        identity, it is zero by construction)."""
        R = np.asarray(rows, dtype=np.int64)
        is_free = _free_columns(self.n, self.pivots)
        coef = R[:, list(self.pivots)]
        return self.ctx.sub_table[
            R[:, is_free], field_matmul(self.ctx, coef, self.matrix[:, is_free])
        ]

    def contains(self, vector) -> bool:
        v = np.array(vector, dtype=np.int64).reshape(1, -1)
        if v.shape[1] != self.n:
            raise ValueError("vector length mismatch")
        return not self._reduce_rows(v).any()

    def is_subcode_of(self, other: LinearCode) -> bool:
        self._check_compatible(other)
        return not other._reduce_rows(self.matrix).any()

    # -- minimum weight ---------------------------------------------------------------

    def min_weight(self, cap: int = DEFAULT_WEIGHT_CAP) -> int:
        """Exact minimum Hamming weight by Brouwer-Zimmermann search (memoised).

        Raises EnumerationBudgetError when the search needs more than `cap`
        messages, also when the weight is already known.
        """
        if self.k == 0:
            raise ValueError("zero code has no nonzero codeword")
        if self._min_weight is None:
            self._min_weight = _brouwer_zimmermann(self, cap, floor=1)
        weight, work = self._min_weight
        if work > cap:
            raise EnumerationBudgetError(f"{work} messages exceed the cap {cap}")
        return weight

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
    H[:, list(pivots)] = ctx.neg_table[gen[:, free]].T
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
    of A, A B = sum_t A_t (x^t B): one float64 matmul per plane, against
    the digits of x^t B from the field's shift table side by side (m x s e).
    The sums are integers below m e (p-1)^2, exact while that is under
    2^53, which is checked; one reduction mod p and a recombination end it.
    """
    require_tables(ctx)
    A, B = np.asarray(A), np.asarray(B)
    if A.ndim != 2 or B.ndim != 2 or A.shape[1] != B.shape[0]:
        raise ValueError(f"cannot multiply shapes {A.shape} and {B.shape}")
    (r, m), s = A.shape, B.shape[1]
    p, e = ctx.p, ctx.e
    if m * e * (p - 1) ** 2 >= _FLOAT_EXACT:
        raise ValueError(f"inner dimension {m} is too large for an exact product over {ctx!r}")
    shift = ctx.shift_digits
    # A_t is the plain digits at shift 0, read one plane at a time to keep peak RSS down
    acc = np.take(shift[0, :, 0], A) @ np.take(shift[0], B, axis=0).reshape(m, s * e)
    for t in range(1, e):
        acc += np.take(shift[0, :, t], A) @ np.take(shift[t], B, axis=0).reshape(m, s * e)
    # exact below 2^53, where the rounded quotient cannot reach the next
    # integer; several times faster than np.fmod
    acc -= p * np.floor(acc / p)
    digits = acc.reshape(r, s, e)
    out = digits[..., e - 1]
    for t in reversed(range(e - 1)):
        out = out * p + digits[..., t]
    return out.astype(np.int64)


def _brouwer_zimmermann(
    code: LinearCode, cap: int, floor: int, sub: LinearCode | None = None
) -> tuple[int, int]:
    """Minimum weight over the code, or over the code minus `sub`, and the
    number of messages counted against `cap`.

    Returns as soon as a block reaches `floor`, a known lower bound.  Each
    information set is [generator, rank, last level enumerated].
    """
    ctx, k, n = code.ctx, code.k, code.n
    sets = [[code.matrix, k, 0]]
    unused = _free_columns(n, code.pivots) & code.matrix.any(axis=0)
    best, work = n + 1, 0
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
                    raise EnumerationBudgetError(f"{work} messages exceed the cap {cap}")
                for messages in _normalised_messages(ctx.q, k, level):
                    codewords = field_matmul(ctx, messages, gen)
                    if sub is not None:
                        codewords = codewords[sub._reduce_rows(codewords).any(axis=1)]
                    if len(codewords):
                        best = min(best, int(np.count_nonzero(codewords, axis=1).min()))
                    if best <= floor:
                        return best, work
            sets[j][2] = w
            j += 1
            if j == len(sets) and unused.any():
                gen, info = _information_set(code, unused)
                unused[info] = False
                sets.append([gen, len(info), 0])
        if best <= sum(max(0, w + 1 - k + r) for _, r, done in sets if done == w):
            break
    return best, work


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
