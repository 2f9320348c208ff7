"""Grothendieck-group utilities: Cartan and Euler matrices, classes of
complexes, and orthogonal sublattices of the Euler form."""

from fractions import Fraction

from .algebra import memoised
from .derived import LabeledComplex
from .errors import EngineInvariantViolation
from .linalg import Matrix, rref
from .reps import Representation, standard_basis
from .spherelike import certify_finite_gldim


def vertex_order(alg):
    return list(alg.quiver.vertices)


def dim_vector(M):
    return [M.dims[v] for v in vertex_order(M.alg)]


def k_class(X):
    """Class in K_0 in the basis of simples: the dimension vector of a
    module, the alternating sum of its pieces' for a complex.  The pieces
    of a labeled complex are read off the path basis, so no representation
    is built."""
    if isinstance(X, Representation):
        return dim_vector(X)
    order = vertex_order(X.alg)
    out = [0] * len(order)
    for n in X.degrees():
        sign = (-1) ** (n % 2)
        if isinstance(X, LabeledComplex):
            basis = standard_basis(X.alg, X.kind, X.labels(n))[0]
            dv = [len(basis[v]) for v in order]
        else:
            dv = dim_vector(X.piece(n))
        out = [a + sign * b for a, b in zip(out, dv)]
    return out


def cartan_matrix(alg):
    """C[x][y] = dim Hom(P(x), P(y)) = dim P(y)_x, the number of basis
    paths y -> x; vertices in quiver order."""
    order = vertex_order(alg)
    return [[len(alg.slice_basis(x, y)) for y in order] for x in order]


@memoised
def euler_matrix(alg):
    """E[x][y] = sum_i (-1)^i dim Ext^i(S(x), S(y)); needs finite global
    dimension, which is certified first.

    Hom(P(x), M) = M_x gives [P(x)]^T E = e_x, and [P(x)] is column x of
    the Cartan matrix C, so E is the inverse of C^T.  It is inverted over
    the rationals whatever the field; the result is an integer matrix.
    Memoised per algebra and shared, so callers must not mutate it.
    """
    certify_finite_gldim(alg)
    C = cartan_matrix(alg)
    n = len(C)
    R, pivots = rref(Matrix(n, 2 * n,
                            [[C[y][x] for y in range(n)] +
                             [int(x == j) for j in range(n)]
                             for x in range(n)]))
    E = [[Fraction(e) for e in row[n:]] for row in R.entries]
    if pivots != list(range(n)) or any(e.denominator != 1
                                       for row in E for e in row):
        raise EngineInvariantViolation(
            "Cartan matrix not invertible over the integers at finite "
            "global dimension")
    return [[int(e) for e in row] for row in E]


def euler_pairing(E, x, y):
    """x^T E y, summed over the nonzero coordinates of x and y only."""
    ys = [(j, b) for j, b in enumerate(y) if b]
    return sum(a * sum(row[j] * b for j, b in ys) for a, row in zip(x, E) if a)


def integer_kernel(rows, n):
    """Basis of {x in Z^n : A x = 0}: the Hermite normal form of the rows
    [A^T e_i | e_i] spans the same lattice, and its rows with zero A-part
    span the kernel (their identity parts form a basis of it)."""
    m = len(rows)
    aug = [[r[i] for r in rows] + [int(i == j) for j in range(n)]
           for i in range(n)]
    return [row[m:] for row in _hnf_rows(aug) if not any(row[:m])]


def _hnf_rows(basis):
    """Row-style Hermite normal form of a lattice basis (integer rows)."""
    rows = [list(r) for r in basis]
    m = len(rows)
    n = len(rows[0]) if m else 0
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if rows[i][c] != 0:
                piv = i if piv is None or abs(rows[i][c]) < abs(rows[piv][c]) else piv
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        while True:
            again = False
            for i in range(r + 1, m):
                if rows[i][c] != 0:
                    q = rows[i][c] // rows[r][c]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if rows[i][c] != 0:
                        rows[r], rows[i] = rows[i], rows[r]
                        again = True
            if not again:
                break
        if rows[r][c] < 0:
            rows[r] = [-a for a in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return [row for row in rows[:r]]


def perp_lattice(E, classes):
    """Left orthogonal {x : chi(x, c) = 0 for all given classes c}.

    Returns (basis, gram, antisymmetric) where gram[i][j] = chi(b_i, b_j)
    restricted to the sublattice.  For a rank-2 antisymmetric restriction
    the basis is oriented so that gram[0][1] >= 0.
    """
    n = len(E)
    rows = []
    for c in classes:
        rows.append([sum(E[i][j] * c[j] for j in range(n)) for i in range(n)])
    basis = integer_kernel(rows, n)
    basis = _hnf_rows(basis) if basis else []
    gram = [[euler_pairing(E, b1, b2) for b2 in basis] for b1 in basis]
    anti = all(gram[i][j] == -gram[j][i]
               for i in range(len(basis)) for j in range(len(basis)))
    if anti and len(basis) == 2 and gram[0][1] < 0:
        basis = [basis[1], basis[0]]
        gram = [[gram[1][1], gram[1][0]], [gram[0][1], gram[0][0]]]
    return basis, gram, anti


def same_lattice(b1, b2):
    return _hnf_rows(b1) == _hnf_rows(b2)
