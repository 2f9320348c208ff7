"""Exact linear algebra over the rationals or a prime field.

Everything upstream (path bases, Hom spaces, cohomology of Hom complexes)
reduces to rref / kernel / solve over an exact field, and all of it runs
one elimination, the forward pass ``_forward`` on rows given as
{column: coeff} dicts: ``sparse_rank`` counts its pivots, ``_reduce``
back-substitutes from the last pivot up to the reduced echelon form
(``sparse_rref`` on copies of its rows), ``null_space`` reads the kernel
off that form (``_kernel_vectors``), and ``_complement`` keeps
the vectors independent of an image and of those before them.  Vectors,
also of ``Matrix.apply``, are {coordinate: coeff} dicts.  ``Matrix`` is
dense storage only: ``rref``, ``rank``, ``kernel_basis`` and ``solve``
hand its nonzero entries to the same elimination, and only
``from_entries`` (cells) and ``from_blocks`` (blocks) write its entries.
Scalars of ℚ are ``int`` while integral and ``fractions.Fraction``
otherwise: the two mix exactly, and equal values compare and hash equal,
so an integral ``Fraction`` left by a product is still a valid scalar.
Scalars of GF(p) are ``ModInt``.  Division goes only through
``field.div``, since ``/`` between two ints gives a float.  Zero tests
use truthiness (``if x`` / ``if not x``), never a comparison with a
freshly built ``field.zero()``.  Pivoting is deterministic (leftmost
column, first nonzero row) so all outputs are reproducible bit-for-bit.
"""

import math
from fractions import Fraction
from itertools import chain


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

    def apply(self, vec):
        """Matrix times the {column: coeff} vector ``vec``: the
        {row: coeff} dict of the nonzero results."""
        out = {}
        for i, row in enumerate(self.entries):
            s = None
            for k, c in vec.items():
                a = row[k]
                if a:
                    s = a * c if s is None else s + a * c
            if s:
                out[i] = s
        return out


def hstack(mats):
    mats = list(mats)
    if not mats:
        return Matrix.zero(0, 0, QQ)
    rows = mats[0].rows
    assert all(m.rows == rows for m in mats)
    entries = [sum((m.entries[i] for m in mats), []) for i in range(rows)]
    return Matrix(rows, sum(m.cols for m in mats), entries, mats[0].field)


def from_entries(rows, cols, cells, field=QQ):
    """rows x cols matrix with value a in cell (r, c) for each triple
    (r, c, a) of ``cells``, each cell given at most once; every other cell
    is zero."""
    z = field.zero()
    entries = [[z] * cols for _ in range(rows)]
    for r, c, a in cells:
        entries[r][c] = a
    return Matrix(rows, cols, entries, field)


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

    Returns (rows, pivots): the nonzero rows of the reduced form in
    increasing pivot order, each a dict in increasing column order, and
    the sorted pivot columns.  ``_reduce`` on copies of the rows."""
    return _reduce([{j: c for j, c in row.items() if c} for row in rows],
                   field)


def _reduce(rows, field):
    """``sparse_rref`` of rows of nonzero coefficients, which it consumes:
    ``_forward``, then back-substitution from the last pivot up.  Each row
    is cleared of the later pivot columns, whose rows are already reduced,
    so the result is the unique reduced form of the row space."""
    pivots = _forward(rows, field)
    order = sorted(pivots)
    for pc in reversed(order):
        row = pivots[pc]
        for j in [j for j in row if j != pc and j in pivots]:
            _sub_multiple(row, row[j], pivots[j])
    return [dict(sorted(pivots[pc].items())) for pc in order], order


def _nonzero_rows(M):
    """The rows of M as fresh {column: coeff} dicts of its nonzero
    entries, which ``rref``, ``rank`` and ``kernel_basis`` hand to the
    elimination without a second copy."""
    return [{j: c for j, c in enumerate(row) if c} for row in M.entries]


def rref(M):
    """Reduced row echelon form.  Returns (R, pivot_columns): R has M's
    shape, the rows of ``sparse_rref`` in pivot order and zero rows last."""
    rows, pivots = _reduce(_nonzero_rows(M), M.field)
    return from_entries(M.rows, M.cols,
                        ((r, j, c) for r, row in enumerate(rows)
                         for j, c in row.items()), M.field), pivots


def rank(M):
    return sparse_rank(_nonzero_rows(M), M.field)


def null_space(rows, ncols, field=QQ):
    """Basis of the null space of the matrix with ``ncols`` columns whose
    nonzero entries are the {column: coeff} rows ``rows``, which it leaves
    unchanged: the ``_kernel_vectors`` of their ``sparse_rref``."""
    return _kernel_vectors(*sparse_rref(rows, field), ncols, field)


def _kernel_vectors(reduced, pivots, ncols, field):
    """One {coordinate: coeff} vector per free column f of the reduced
    rows with their pivots, in increasing f, with 1 at f and minus column
    f of the reduced rows at their pivots.  Each reduced row is scattered
    once, in pivot order, into the vectors of its free columns, so the
    work is its nonzero entries.  A reduced row is zero left of its pivot
    and at every other pivot, so each vector's keys ascend."""
    one = field.one()
    kernel = {f: {} for f in range(ncols)}
    for row, pc in zip(reduced, pivots):
        del kernel[pc]
        for f, c in row.items():
            if f != pc:
                kernel[f][pc] = -c
    for f, vec in kernel.items():
        vec[f] = one
    return list(kernel.values())


def kernel_basis(M):
    """Matrix whose columns are the ``null_space`` vectors of M, reduced
    from its fresh ``_nonzero_rows``."""
    vecs = _kernel_vectors(*_reduce(_nonzero_rows(M), M.field), M.cols,
                           M.field)
    return from_entries(M.cols, len(vecs),
                        ((i, k, c) for k, vec in enumerate(vecs)
                         for i, c in vec.items()), M.field)


def _complement(image, vecs, field):
    """(kept, rank): the vectors of ``vecs`` that are pivot columns of
    [image | vecs], in order, and the rank of [image | vecs].

    One ``_forward`` pass over the image vectors ({coordinate: coeff} dicts
    of nonzero coefficients, which it consumes), then copies of ``vecs``,
    keeps each vector whose copy becomes a pivot row: it is independent of
    the image and of the vectors before it, which is what a pivot column
    of the reduced form of [image | vecs] is."""
    rows = [dict(vec) for vec in vecs]
    pivots = _forward(chain(image, rows), field)
    kept = {id(row) for row in pivots.values()}
    return [vec for vec, row in zip(vecs, rows) if id(row) in kept], len(pivots)


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
