"""Exact linear algebra over the rationals or a prime field.

Everything upstream (path bases, Hom spaces, cohomology of Hom complexes)
reduces to rref / kernel / solve over an exact field.  ``Matrix`` is a
dense list of lists; ``sparse_rref`` reduces rows given as ``{column:
coeff}`` dicts and yields the same reduced echelon form.  Scalars are
``fractions.Fraction`` or ``ModInt``.  Zero tests use truthiness (``if x``
/ ``if not x``), never a comparison with a freshly built ``field.zero()``.
Pivoting is deterministic (leftmost column, first nonzero row) so all
outputs are reproducible bit-for-bit.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        return _ZERO

    def one(self):
        return _ONE

    def from_int(self, n):
        return Fraction(n)

    def parse(self, s):
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % (s,)) from None

    def __eq__(self, o):
        return isinstance(o, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """Field object for GF(p), p prime."""

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError("p must be prime, got %r" % (p,))
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


def hstack(mats, field=QQ):
    mats = list(mats)
    if not mats:
        return Matrix.zero(0, 0, field)
    rows = mats[0].rows
    assert all(m.rows == rows for m in mats)
    entries = [sum((m.entries[i] for m in mats), []) for i in range(rows)]
    return Matrix(rows, sum(m.cols for m in mats), entries, mats[0].field)


def vstack(mats, field=QQ):
    mats = list(mats)
    if not mats:
        return Matrix.zero(0, 0, field)
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    entries = []
    for m in mats:
        entries.extend(row[:] for row in m.entries)
    return Matrix(len(entries), cols, entries, mats[0].field)


def block_diag(mats, field=QQ):
    """Block-diagonal matrix with the given blocks in order."""
    out = Matrix.zero(sum(m.rows for m in mats), sum(m.cols for m in mats), field)
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.entries):
            out.entries[r0 + i][c0:c0 + m.cols] = row
        r0 += m.rows
        c0 += m.cols
    return out


def rref(M):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Deterministic: scans columns left to right, uses the first nonzero
    entry below the current row as pivot.
    """
    R = M.copy()
    one = R.field.one()
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
                    inv_row[j] = inv_row[j] / pv
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


def sparse_rref(rows, field=QQ):
    """Reduced row echelon form of rows given as {column: coeff} dicts.

    Returns (rows, pivots) like ``rref``: the nonzero rows of the reduced
    form in increasing pivot order, each a dict in increasing column order,
    and the sorted pivot columns.  Gauss-Jordan, one row at a time: every
    stored row has a leading 1 at its pivot and is kept free of every other
    pivot column, so the result is the unique reduced form of the row space.
    """
    one = field.one()
    reduced = {}
    for row in rows:
        row = {j: c for j, c in row.items() if c}
        for pc in [j for j in row if j in reduced]:
            _sub_multiple(row, row[pc], reduced[pc])
        if not row:
            continue
        pc = min(row)
        pv = row[pc]
        if pv != one:
            row = {j: c / pv for j, c in row.items()}
        for other in reduced.values():
            f = other.get(pc)
            if f:
                _sub_multiple(other, f, row)
        reduced[pc] = row
    pivots = sorted(reduced)
    return [dict(sorted(reduced[pc].items())) for pc in pivots], pivots


def rank(M):
    return len(rref(M)[1])


def kernel_basis(M):
    """Matrix whose columns span the null space of M."""
    R, pivots = rref(M)
    z, o = M.field.zero(), M.field.one()
    pivset = set(pivots)
    free = [j for j in range(M.cols) if j not in pivset]
    cols = []
    for f in free:
        v = [z] * M.cols
        v[f] = o
        for r, pc in enumerate(pivots):
            v[pc] = -R.entries[r][f]
        cols.append(v)
    return Matrix(M.cols, len(cols),
                  [[cols[j][i] for j in range(len(cols))] for i in range(M.cols)],
                  M.field)


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
