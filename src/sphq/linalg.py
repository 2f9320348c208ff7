"""Exact linear algebra over the rationals or a prime field.

Everything upstream (path bases, Hom spaces, cohomology of Hom complexes)
reduces to rref / kernel / solve over an exact field.  ``Matrix`` is a
dense list of lists.  Rows given as ``{column: coeff}`` dicts have one
elimination, the forward pass ``_forward``: ``sparse_rank`` counts its
pivots, and ``sparse_rref`` back-substitutes from the last pivot up to the
same reduced echelon form as ``rref``.  Scalars of ℚ
are ``int`` while integral and ``fractions.Fraction`` otherwise: the two
mix exactly, and equal values compare and hash equal, so an integral
``Fraction`` left by a product is still a valid scalar.  Scalars of
GF(p) are ``ModInt``.  Division goes only through ``field.div``, since
``/`` between two ints gives a float.  Zero tests use truthiness (``if x``
/ ``if not x``), never a comparison with a freshly built ``field.zero()``.
Pivoting is deterministic (leftmost column, first nonzero row) so all
outputs are reproducible bit-for-bit.
"""

import math
from fractions import Fraction


class ModInt:
    """Residue mod a prime, with field arithmetic."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, o):
        return ModInt(self.v + o.v, self.p)

    def __sub__(self, o):
        return ModInt(self.v - o.v, self.p)

    def __neg__(self):
        return ModInt(-self.v, self.p)

    def __mul__(self, o):
        return ModInt(self.v * o.v, self.p)

    def __truediv__(self, o):
        if o.v % o.p == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % o.p)
        return ModInt(self.v * pow(o.v, -1, o.p), self.p)

    def __eq__(self, o):
        if isinstance(o, ModInt):
            return self.p == o.p and self.v == o.v
        if isinstance(o, int):
            return self.v == o % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "ModInt(%d, %d)" % (self.v, self.p)


class Rationals:
    """Field object for exact rational arithmetic."""

    characteristic = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def parse(self, s):
        try:
            f = Fraction(s)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (s,)) from None
        return f.numerator if f.denominator == 1 else f

    def div(self, a, b):
        """Exact quotient a / b: an ``int`` when it is integral.  Two
        ``int``s that divide exactly give their quotient without a
        ``Fraction``."""
        if type(a) is int and type(b) is int:
            q, r = divmod(a, b)
            if not r:
                return q
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def __eq__(self, o):
        return isinstance(o, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """Field object for GF(p), p a prime below 2^31."""

    def __init__(self, p):
        if not 2 <= p < 2 ** 31 or any(
                p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError("p must be a prime below 2^31, got %r" % (p,))
        self.p = p
        self.characteristic = p

    def zero(self):
        return ModInt(0, self.p)

    def one(self):
        return ModInt(1, self.p)

    def from_int(self, n):
        return ModInt(n, self.p)

    def parse(self, s):
        if "/" in s:
            a, b = s.split("/")
            den = ModInt(int(b), self.p)
            if not den:
                raise ValueError("denominator of %r is zero in GF(%d)" % (s, self.p))
            return ModInt(int(a), self.p) / den
        return ModInt(int(s), self.p)

    def div(self, a, b):
        return a / b

    def __eq__(self, o):
        return isinstance(o, PrimeField) and o.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


QQ = Rationals()


def scalar_to_str(x):
    """Serialize a scalar as "a" or "a/b" (lowest terms, denominator > 0)."""
    if isinstance(x, ModInt):
        return str(x.v)
    f = Fraction(x)
    return str(f)


class Matrix:
    """Dense matrix over an exact field.

    Zero-row and zero-column matrices are allowed and show up constantly
    (dimension-0 vertex spaces).
    """

    def __init__(self, rows, cols, entries, field=QQ):
        assert len(entries) == rows
        for r in entries:
            assert len(r) == cols
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.field = field

    @classmethod
    def zero(cls, rows, cols, field=QQ):
        z = field.zero()
        return cls(rows, cols, [[z] * cols for _ in range(rows)], field)

    @classmethod
    def identity(cls, n, field=QQ):
        z, o = field.zero(), field.one()
        return cls(n, n, [[o if i == j else z for j in range(n)] for i in range(n)], field)

    @classmethod
    def column(cls, vec, field=QQ):
        return cls(len(vec), 1, [[x] for x in vec], field)

    def copy(self):
        return Matrix(self.rows, self.cols, [row[:] for row in self.entries], self.field)

    def __eq__(self, o):
        return (isinstance(o, Matrix) and self.rows == o.rows and self.cols == o.cols
                and self.entries == o.entries)

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols, self.entries)

    def is_zero(self):
        return not any(x for row in self.entries for x in row)

    def __add__(self, o):
        assert self.rows == o.rows and self.cols == o.cols
        return Matrix(self.rows, self.cols,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, o.entries)], self.field)

    def __sub__(self, o):
        assert self.rows == o.rows and self.cols == o.cols
        return Matrix(self.rows, self.cols,
                      [[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, o.entries)], self.field)

    def __neg__(self):
        return Matrix(self.rows, self.cols,
                      [[-a for a in row] for row in self.entries], self.field)

    def scale(self, c):
        return Matrix(self.rows, self.cols,
                      [[c * a for a in row] for row in self.entries], self.field)

    def __mul__(self, o):
        assert self.cols == o.rows, "shape mismatch %dx%d * %dx%d" % (
            self.rows, self.cols, o.rows, o.cols)
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            ri = self.entries[i]
            row = []
            for j in range(o.cols):
                s = z
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        s = s + a * o.entries[k][j]
                row.append(s)
            out.append(row)
        return Matrix(self.rows, o.cols, out, self.field)

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [[self.entries[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], self.field)

    def col(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def apply(self, vec):
        """Matrix times a plain vector (list), returning a list."""
        assert len(vec) == self.cols
        z = self.field.zero()
        out = []
        for i in range(self.rows):
            s = z
            ri = self.entries[i]
            for k in range(self.cols):
                if ri[k]:
                    s = s + ri[k] * vec[k]
            out.append(s)
        return out


def hstack(mats):
    mats = list(mats)
    if not mats:
        return Matrix.zero(0, 0, QQ)
    rows = mats[0].rows
    assert all(m.rows == rows for m in mats)
    entries = [sum((m.entries[i] for m in mats), []) for i in range(rows)]
    return Matrix(rows, sum(m.cols for m in mats), entries, mats[0].field)


def vstack(mats):
    mats = list(mats)
    if not mats:
        return Matrix.zero(0, 0, QQ)
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    entries = []
    for m in mats:
        entries.extend(row[:] for row in m.entries)
    return Matrix(len(entries), cols, entries, mats[0].field)


def from_blocks(rows, cols, blocks, field=QQ):
    """rows x cols matrix holding each (r0, c0, block, coeff) of ``blocks``
    with its top-left cell at (r0, c0): coeff times the matrix ``block``,
    or the block as it is when coeff is None.  Blocks must not overlap;
    every cell outside them is zero, so a zero block is best left out.

    Each block row is slice-assigned into its output row, so no entry is
    tested and no output row shares a list with a block."""
    z = field.zero()
    entries = [[z] * cols for _ in range(rows)]
    for r0, c0, block, coeff in blocks:
        c1 = c0 + block.cols
        for r, row in enumerate(block.entries, r0):
            entries[r][c0:c1] = row if coeff is None else [coeff * a for a in row]
    return Matrix(rows, cols, entries, field)


def block_diag(mats, field=QQ):
    """Block-diagonal matrix with the given blocks in order; a block with
    no rows only widens the rows of the others."""
    blocks, r0, c0 = [], 0, 0
    for m in mats:
        blocks.append((r0, c0, m, None))
        r0 += m.rows
        c0 += m.cols
    return from_blocks(r0, c0, blocks, field)


def rref(M):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Deterministic: scans columns left to right, uses the first nonzero
    entry below the current row as pivot.
    """
    R = M.copy()
    field = R.field
    one = field.one()
    ent = R.entries
    pivots = []
    pr = 0
    for pc in range(R.cols):
        pivot_row = None
        for i in range(pr, R.rows):
            if ent[i][pc]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        ent[pr], ent[pivot_row] = ent[pivot_row], ent[pr]
        pv = ent[pr][pc]
        if pv != one:
            inv_row = ent[pr]
            for j in range(pc, R.cols):
                if inv_row[j]:
                    inv_row[j] = field.div(inv_row[j], pv)
        for i in range(R.rows):
            if i == pr:
                continue
            f = ent[i][pc]
            if not f:
                continue
            src = ent[pr]
            dst = ent[i]
            for j in range(pc, R.cols):
                if src[j]:
                    dst[j] = dst[j] - f * src[j]
        pivots.append(pc)
        pr += 1
        if pr == R.rows:
            break
    return R, pivots


def _sub_multiple(dst, f, src):
    """dst -= f * src on {column: coeff} dicts, dropping entries that vanish."""
    for j, c in src.items():
        v = dst.get(j)
        v = -f * c if v is None else v - f * c
        if v:
            dst[j] = v
        else:
            dst.pop(j, None)


def _forward(rows, field):
    """Forward elimination on rows given as {column: coeff} dicts of
    nonzero coefficients, which it consumes.  Returns {pivot column: row}.

    Each row is reduced, leftmost column first, against the stored rows
    keyed by their leading column, each scaled in place to a leading 1,
    until it is zero or leads in a new column.  Only columns right of a
    pivot change, so no reduction is undone."""
    one = field.one()
    pivots = {}
    for row in rows:
        while row:
            pc = min(row)
            pivot = pivots.get(pc)
            if pivot is None:
                pv = row[pc]
                if pv != one:
                    for j, c in row.items():
                        row[j] = field.div(c, pv)
                pivots[pc] = row
                break
            _sub_multiple(row, row[pc], pivot)
    return pivots


def sparse_rank(rows, field=QQ):
    """Rank of the rows given as {column: coeff} dicts of nonzero
    coefficients, which it consumes (``_forward``)."""
    return len(_forward(rows, field))


def sparse_rref(rows, field=QQ):
    """Reduced row echelon form of rows given as {column: coeff} dicts,
    which it leaves unchanged; zero coefficients are dropped.

    Returns (rows, pivots) like ``rref``: the nonzero rows of the reduced
    form in increasing pivot order, each a dict in increasing column order,
    and the sorted pivot columns.  ``_forward`` on copies of the rows, then
    back-substitution from the last pivot up: each row is cleared of the
    later pivot columns, whose rows are already reduced, so the result is
    the unique reduced form of the row space."""
    pivots = _forward([{j: c for j, c in row.items() if c} for row in rows],
                      field)
    order = sorted(pivots)
    for pc in reversed(order):
        row = pivots[pc]
        for j in [j for j in row if j != pc and j in pivots]:
            _sub_multiple(row, row[j], pivots[j])
    return [dict(sorted(pivots[pc].items())) for pc in order], order


def rank(M):
    return len(rref(M)[1])


def kernel_basis(M):
    """Matrix whose columns span the null space of M."""
    R, pivots = rref(M)
    return kernel_from_rref(R, pivots, M.cols)


def kernel_from_rref(R, pivots, ncols):
    """Null-space basis of a matrix with ``ncols`` columns, read off a
    reduced row echelon form R whose first ``ncols`` columns are the
    matrix's own reduced form with pivot columns ``pivots`` (R may carry
    further columns, as the rref of [M | I] does)."""
    z, o = R.field.zero(), R.field.one()
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    cols = []
    for f in free:
        v = [z] * ncols
        v[f] = o
        for r, pc in enumerate(pivots):
            v[pc] = -R.entries[r][f]
        cols.append(v)
    return Matrix(ncols, len(cols),
                  [[cols[j][i] for j in range(len(cols))] for i in range(ncols)],
                  R.field)


def solve(M, b):
    """Deterministic particular solution of M x = b, or None if inconsistent.

    Free variables are set to 0.
    """
    assert len(b) == M.rows
    z = M.field.zero()
    aug = Matrix(M.rows, M.cols + 1,
                 [row[:] + [b[i]] for i, row in enumerate(M.entries)], M.field)
    R, pivots = rref(aug)
    if M.cols in pivots:
        return None
    x = [z] * M.cols
    for r, pc in enumerate(pivots):
        x[pc] = R.entries[r][M.cols]
    return x
