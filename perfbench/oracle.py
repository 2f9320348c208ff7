"""Answers the benchmark checks against without calling the measured code.

Everything here reads only the certified path basis of an algebra
(``alg.basis_by_st``) and the dimension vectors of objects, and does its
own exact arithmetic with ``fractions.Fraction``.

* Cartan data: dim P(x)_v is the number of basis paths x -> v, and
  dim I(x)_v the number of basis paths v -> x.
* Euler form: with a = Cp^-1 dim(M) the class of M in the basis of
  projectives, chi(M, N) = sum_x a_x dim N_x, because Hom(P(x), N) = N_x
  and projectives have no higher Ext.
"""

from fractions import Fraction


class Oracle:
    """K-theory of one algebra, from its path basis."""

    def __init__(self, alg):
        self.vertices = list(alg.quiver.vertices)
        by_st = alg.basis_by_st
        vs = self.vertices
        # proj[x] / inj[x]: dimension vectors of P(x) / I(x)
        self.proj = {x: [len(by_st.get((x, v), ())) for v in vs] for x in vs}
        self.inj = {x: [len(by_st.get((v, x), ())) for v in vs] for x in vs}
        cp = [[self.proj[x][i] for x in vs] for i in range(len(vs))]
        ci = [[self.inj[x][i] for x in vs] for i in range(len(vs))]
        self._cp_inv = _inverse(cp)
        self._ci_inv = _inverse(ci)

    def standard_dims(self, kind, x):
        if kind == "S":
            return [int(v == x) for v in self.vertices]
        return list(self.proj[x] if kind == "P" else self.inj[x])

    def rep_dims(self, M):
        return [M.dims.get(v, 0) for v in self.vertices]

    def complex_dims(self, C):
        """Alternating sum of the dimension vectors of a BoundedComplex."""
        out = [0] * len(self.vertices)
        for n, piece in C.pieces.items():
            sign = -1 if n % 2 else 1
            out = [a + sign * b for a, b in zip(out, self.rep_dims(piece))]
        return out

    def labeled_dims(self, F):
        """Class of a labeled complex (projective or injective labels)."""
        table = self.proj if F.kind == "proj" else self.inj
        out = [0] * len(self.vertices)
        for n, labels in F.pieces.items():
            sign = -1 if n % 2 else 1
            for x in labels:
                out = [a + sign * b for a, b in zip(out, table[x])]
        return out

    def chi(self, m_dims, n_dims):
        """Euler form sum_i (-1)^i dim Hom(M, N[i]) from dimension vectors."""
        a = _apply(self._cp_inv, m_dims)
        total = sum(ax * nx for ax, nx in zip(a, n_dims))
        if total.denominator != 1:
            raise ArithmeticError("non-integral Euler form")
        return int(total)

    def nu_dims(self, dims):
        """Class of nu X: P(x) -> I(x) on the projective coordinates."""
        return _apply(_columns(self.inj, self.vertices),
                      _apply(self._cp_inv, dims))

    def nu_inverse_dims(self, dims):
        """Class of nu^-1 X: I(x) -> P(x) on the injective coordinates."""
        return _apply(_columns(self.proj, self.vertices),
                      _apply(self._ci_inv, dims))


def alternating_sum(profile):
    return sum(d if i % 2 == 0 else -d for i, d in profile.items())


def _columns(table, vertices):
    return [[table[x][i] for x in vertices] for i in range(len(vertices))]


def _apply(M, vec):
    return [sum(Fraction(m) * v for m, v in zip(row, vec)) for row in M]


def _inverse(M):
    """Exact inverse of a square integer matrix (Gauss-Jordan)."""
    n = len(M)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for c in range(n):
        p = next((r for r in range(c, n) if A[r][c] != 0), None)
        if p is None:
            raise ArithmeticError("singular Cartan matrix")
        A[c], A[p] = A[p], A[c]
        pv = A[c][c]
        A[c] = [x / pv for x in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    return [row[n:] for row in A]


def rank(rows):
    """Rank of a matrix given as a list of rows (any exact scalars)."""
    A = [[Fraction(x) if isinstance(x, int) else x for x in row]
         for row in rows if any(row)]
    r = 0
    cols = len(A[0]) if A else 0
    for c in range(cols):
        p = next((i for i in range(r, len(A)) if A[i][c]), None)
        if p is None:
            continue
        A[r], A[p] = A[p], A[r]
        pv = A[r][c]
        for i in range(r + 1, len(A)):
            if A[i][c]:
                f = A[i][c] / pv
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        r += 1
    return r


def cohomology(C):
    """{degree: [dim H^n at each vertex]} of a BoundedComplex."""
    out = {}
    for n in sorted(C.pieces):
        dims = []
        for v in C.alg.quiver.vertices:
            dim = C.pieces[n].dims.get(v, 0)
            d_out = C.diffs.get(n)
            d_in = C.diffs.get(n - 1)
            if d_out is not None:
                dim -= rank(d_out.mats[v].entries)
            if d_in is not None:
                dim -= rank(d_in.mats[v].entries)
            dims.append(dim)
        if any(dims):
            out[n] = dims
    return out
