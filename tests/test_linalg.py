"""Exact linear algebra checked against sympy and algebraic identities."""

import ast
import pathlib
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import sphq
from sphq import linalg
from sphq.linalg import (Matrix, PrimeField, QQ, block_diag, from_blocks,
                         from_entries, hstack, kernel_basis, rank, rref,
                         scalar_to_str, solve, sparse_rank, sparse_rref)

from reference import (dense_apply, dense_kernel_basis, dense_rank,
                       dense_rref, dense_solve, vstack)

fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def rand_matrix(draw, rows, cols):
    ent = draw(st.lists(st.lists(fractions, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows))
    return Matrix(rows, cols, ent, QQ)


matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.builds(
            lambda ent: Matrix(r, c, ent, QQ),
            st.lists(st.lists(fractions, min_size=c, max_size=c),
                     min_size=r, max_size=r))))


def to_sympy(M):
    return sympy.Matrix(M.rows, M.cols, lambda i, j: sympy.Rational(M.entries[i][j]))


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_matches_sympy(M):
    assert rank(M) == to_sympy(M).rank()


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rref_is_idempotent(M):
    R, piv = rref(M)
    R2, piv2 = rref(R)
    assert R.entries == R2.entries and piv == piv2


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_is_annihilated(M):
    K = kernel_basis(M)
    assert K.cols == M.cols - rank(M)
    if K.cols:
        assert (M * K).is_zero()
    assert rank(K) == K.cols


@settings(max_examples=60, deadline=None)
@given(matrices, st.lists(fractions, min_size=0, max_size=4))
def test_solve_consistent_iff_in_column_space(M, v):
    x = v[:M.cols] + [Fraction(0)] * max(0, M.cols - len(v))
    b = M.apply(sparse_rows([x])[0])
    s = solve(M, [b.get(i, 0) for i in range(M.rows)])
    assert s is not None
    assert M.apply(sparse_rows([s])[0]) == b


@settings(max_examples=40, deadline=None)
@given(matrices)
def test_solve_rejects_inconsistent(M):
    # append a row of zeros and target 1: always inconsistent
    aug = vstack([M, Matrix.zero(1, M.cols, QQ)]) if M.cols else M
    if M.cols == 0:
        return
    b = [QQ.zero()] * M.rows + [QQ.one()]
    assert solve(aug, b) is None


def test_prime_field_arithmetic():
    F = PrimeField(5)
    a, b = F.from_int(3), F.from_int(4)
    assert a + b == F.from_int(2)
    assert a * b == F.from_int(2)
    assert (a / b) * b == a
    assert F.div(a, b) * b == a
    assert F.parse("3/4") * b == a


def test_rational_scalars_are_ints_while_integral():
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    assert QQ.from_int(-7) == -7 and type(QQ.from_int(-7)) is int
    assert QQ.parse("4/2") == 2 and type(QQ.parse("4/2")) is int
    assert QQ.parse("-3") == -3 and type(QQ.parse("-3")) is int
    assert type(QQ.parse("1/2")) is Fraction
    assert QQ.div(3, 6) == Fraction(1, 2)
    assert QQ.div(6, 3) == 2 and type(QQ.div(6, 3)) is int
    assert type(QQ.div(Fraction(3, 2), Fraction(1, 2))) is int
    assert QQ.div(1, Fraction(-2, 3)) == Fraction(-3, 2)
    for a in (1, 0, -3, Fraction(1, 2)):
        with pytest.raises(ZeroDivisionError):
            QQ.div(a, 0)


@pytest.mark.parametrize("b", [-7, -2, -1, 1, 2, 3, 6])
def test_rational_int_division_agrees_with_fraction(b):
    """The int-by-int path of QQ.div gives Fraction(a, b), as an int
    exactly when b divides a: negative divisors, zero numerators and
    non-divisible pairs included."""
    for a in range(-13, 14):
        q = QQ.div(a, b)
        assert q == Fraction(a, b)
        assert type(q) is (int if a % b == 0 else Fraction)


# Integral entries as ints (the fast path) and, for comparison, the same
# matrix with every entry a Fraction (the slow path).
mixed_entries = st.one_of(st.integers(-4, 4), st.integers(-4, 4), fractions)
mixed_matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(0, 5).flatmap(
        lambda c: st.lists(st.lists(mixed_entries, min_size=c, max_size=c),
                           min_size=r, max_size=r).map(
            lambda ent: Matrix(r, c, [[QQ.parse(str(x)) for x in row]
                                      for row in ent], QQ))))


def all_fractions(M):
    return Matrix(M.rows, M.cols,
                  [[Fraction(x) for x in row] for row in M.entries], QQ)


def no_floats(entries):
    return not any(isinstance(x, float) for row in entries for x in row)


@settings(max_examples=150, deadline=None)
@given(mixed_matrices, st.lists(mixed_entries, min_size=5, max_size=5))
def test_int_scalars_agree_with_fraction_scalars(M, b):
    S = all_fractions(M)
    R, pivots = rref(M)
    R_slow, pivots_slow = rref(S)
    assert pivots == pivots_slow and R.entries == R_slow.entries
    K, K_slow = kernel_basis(M), kernel_basis(S)
    assert K.entries == K_slow.entries
    b = [QQ.parse(str(x)) for x in b[:M.rows]]
    x, x_slow = solve(M, b), solve(S, [Fraction(y) for y in b])
    assert x == x_slow
    rows, sp = sparse_rref(sparse_rows(M.entries))
    rows_slow, sp_slow = sparse_rref(sparse_rows(S.entries))
    assert sp == sp_slow == pivots and rows == rows_slow
    assert no_floats(R.entries) and no_floats(K.entries)
    assert no_floats([x or []]) and no_floats(r.values() for r in rows)


# A `/` between two ints gives a float, so division goes through the
# field's own ``div``; these are the only functions that may use `/`.
ALLOWED_DIVISIONS = {"ModInt.__truediv__", "PrimeField.parse",
                     "PrimeField.div", "Rationals.div"}


def test_no_true_division_outside_the_field_objects():
    found = []
    for path in sorted(pathlib.Path(sphq.__file__).parent.glob("*.py")):
        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = scope + (node.name,)
            if (isinstance(node, (ast.BinOp, ast.AugAssign))
                    and isinstance(node.op, ast.Div)
                    and ".".join(scope) not in ALLOWED_DIVISIONS):
                found.append("%s:%d in %s" % (path.name, node.lineno,
                                              ".".join(scope) or "<module>"))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)
        visit(ast.parse(path.read_text()), ())
    assert found == []


# List methods that change a row in place.
ROW_MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear",
                "sort", "reverse"}


def entries_stores(tree):
    """Sorted (line, function) of each store into a Matrix's entries in
    ``tree``: an assignment, augmented assignment or ``del`` whose target
    is ``X.entries`` or a subscript of it, or a subscript of a row taken
    from it, and a call of a list method that changes such a row.  A name
    holds a row inside a function when it is assigned ``X.entries[i]`` or
    is a loop target over an iterable that reads ``X.entries``."""
    def base(node):
        depth = 0
        while isinstance(node, ast.Subscript):
            node, depth = node.value, depth + 1
        return node, depth

    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(func))
        rows = set()
        for node in nodes:
            if isinstance(node, ast.Assign):
                src, depth = base(node.value)
                if (isinstance(src, ast.Attribute) and src.attr == "entries"
                        and depth == 1):
                    rows.update(t.id for t in node.targets
                                if isinstance(t, ast.Name))
            if isinstance(node, ast.For) and any(
                    isinstance(n, ast.Attribute) and n.attr == "entries"
                    for n in ast.walk(node.iter)):
                rows.update(n.id for n in ast.walk(node.target)
                            if isinstance(n, ast.Name))

        def is_store(target, subscripted):
            target, depth = base(target)
            if isinstance(target, ast.Attribute) and target.attr == "entries":
                return True
            return (isinstance(target, ast.Name) and target.id in rows
                    and depth + subscripted > 0)

        for node in nodes:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ROW_MUTATORS
                  and is_store(node.func.value, 1)):
                found.add((node.lineno, func.name))
                continue
            else:
                continue
            for t in targets:
                parts = t.elts if isinstance(t, ast.Tuple) else [t]
                if any(is_store(part, 0) for part in parts):
                    found.add((node.lineno, func.name))
    return sorted(found)


def test_entries_stores_finds_each_kind_of_store():
    """The scan below finds direct stores, stores through a row taken by
    subscript or by a loop, augmented stores, row methods and ``del``,
    and not a read or a store into another name."""
    tree = ast.parse(
        "def f(m, M, d):\n"
        "    m.entries[0][1] = 1\n"
        "    out = M.entries[2]\n"
        "    out[0] = 1\n"
        "    for r, row in enumerate(m.entries):\n"
        "        row[r] += 1\n"
        "        row.append(0)\n"
        "    del M.entries[0]\n"
        "    x = m.entries[0][0]\n"
        "    y = [x]\n"
        "    y[0] = m.entries[1][0]\n"
        "    for other in d:\n"
        "        other[0] = x\n"
        "def g(row):\n"
        "    row[0] = 1\n")
    assert entries_stores(tree) == [(2, "f"), (4, "f"), (6, "f"), (7, "f"),
                                    (8, "f")]


def test_only_linalg_stores_into_matrix_entries():
    """Every other module writes a matrix through ``from_entries``,
    ``from_blocks``, ``Matrix.zero`` or ``Matrix.identity``, or wraps rows
    it built itself, and never stores into a ``Matrix``'s entries."""
    found = []
    for path in sorted(pathlib.Path(sphq.__file__).parent.glob("*.py")):
        if path.name != "linalg.py":
            found += [(path.name,) + store
                      for store in entries_stores(ast.parse(path.read_text()))]
    assert found == []


def sparse_matrices(field):
    """Small matrices over ``field``, mostly zeros, as sparse rows give."""
    if field == QQ:
        nonzero = fractions
    else:
        nonzero = st.integers(-4, 4).map(field.from_int)
    entry = st.one_of(st.just(field.zero()), st.just(field.zero()), nonzero)
    return st.integers(0, 6).flatmap(
        lambda r: st.integers(0, 7).flatmap(
            lambda c: st.builds(
                lambda ent: Matrix(r, c, ent, field),
                st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))))


def sparse_rows(entries):
    return [{j: x for j, x in enumerate(row) if x} for row in entries]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)])
       .flatmap(sparse_matrices))
def test_sparse_rref_matches_rref(M):
    R, pivots = dense_rref(M)
    rows, sparse_pivots = sparse_rref(sparse_rows(M.entries), M.field)
    assert sparse_pivots == pivots
    assert rows == sparse_rows(R.entries[:len(pivots)])
    assert all(list(row) == sorted(row) for row in rows)


FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7)]


@st.composite
def rank_cases(draw):
    """A sparse matrix with up to three more rows, each c1 row_i + c2 row_k
    of the rows so far (c2 = 0 is a duplicate, c1 = c2 = 0 an all-zero
    row), put at a drawn place, so some rows reduce to zero."""
    field = draw(st.sampled_from(FIELDS))
    M = draw(sparse_matrices(field))
    rows = [row[:] for row in M.entries]
    scalars = st.integers(-2, 2).map(field.from_int)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        k = draw(st.integers(0, len(rows) - 1))
        c1, c2 = draw(scalars), draw(scalars)
        rows.insert(draw(st.integers(0, len(rows))),
                    [c1 * a + c2 * b for a, b in zip(rows[i], rows[k])])
    return Matrix(len(rows), M.cols, rows, field)


@settings(max_examples=200, deadline=None)
@given(rank_cases())
def test_sparse_rank_matches_rank(M):
    assert sparse_rank(sparse_rows(M.entries), M.field) == dense_rank(M)


@pytest.mark.parametrize("field", FIELDS, ids=["QQ", "GF2", "GF3", "GF7"])
@pytest.mark.parametrize("entries", [
    [],                                         # no rows
    [[0, 0, 0], [0, 0, 0]],                     # all-zero rows
    [[1, 2, 0], [1, 2, 0], [1, 2, 0]],          # duplicate rows
    [[1, 1, 0], [0, 1, 1], [1, 2, 1]],          # third = first + second
    [[0, 3, 0, 0, 0, 0, 1, 0, 2]],              # wide
    [[2], [0], [5], [1], [0], [3], [4]],        # tall
    [[Fraction(1, 5), Fraction(-2, 5), 0], [Fraction(3, 5), Fraction(-6, 5), 0],
     [0, Fraction(11, 5), 1]],                  # second = 3 * first
], ids=["empty", "zero-rows", "duplicates", "cancel", "wide", "tall",
        "fractions"])
def test_sparse_rank_edge_cases(field, entries):
    """The fixed shapes above over each field; the fractions have
    denominator 5, a unit in each GF(p), and go through the field's
    parser."""
    ent = [[field.parse(str(a)) for a in row] for row in entries]
    M = Matrix(len(ent), len(ent[0]) if ent else 0, ent, field)
    assert sparse_rank(sparse_rows(M.entries), field) == dense_rank(M)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(sparse_matrices))
def test_sparse_rref_keeps_its_rows_and_drops_zero_coefficients(M):
    """The forward pass consumes the rows it is given, so ``sparse_rref``
    runs it on copies: rows written with every coefficient, zeros
    included, come back unchanged, and their reduced form is ``rref``'s
    with no zero coefficient."""
    given_rows = [dict(enumerate(row)) for row in M.entries]
    before = [list(row.items()) for row in given_rows]
    R, pivots = dense_rref(M)
    rows, sparse_pivots = sparse_rref(given_rows, M.field)
    assert [list(row.items()) for row in given_rows] == before
    assert sparse_pivots == pivots
    assert rows == sparse_rows(R.entries[:len(pivots)])
    assert all(c for row in rows for c in row.values())


def typed(entries):
    """The entries with their scalar types."""
    return [[(type(a), a) for a in row] for row in entries]


def scalars_of(field, entries):
    """Each entry is a scalar of ``field``: a ``ModInt`` mod its p, or over
    the rationals an ``int`` or a ``Fraction``, and the int 0 when it is
    zero."""
    for row in entries:
        for a in row:
            if field == QQ:
                assert type(a) in (int, Fraction)
                assert a or type(a) is int
            else:
                assert type(a) is linalg.ModInt and a.p == field.p
    return True


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(sparse_matrices),
       st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       st.lists(st.integers(-2, 2), min_size=7, max_size=7))
def test_dense_api_matches_the_dense_reference(M, b, y):
    """rref, rank, kernel_basis and solve, which run ``_forward``, give the
    Gauss-Jordan reference's entries, pivots and shape (rref's zero rows
    last); ``Matrix.apply`` on the nonzero coefficients of a vector gives
    the nonzero results of ``dense_apply``; and ``from_entries`` on M's
    nonzero cells, in any order, writes M with the field's zero elsewhere,
    also with no rows or no columns.  Over GF(p) the scalar types match
    too.  Over the rationals an integral value may be an ``int`` on one
    side and a ``Fraction`` on the other, since which one arithmetic
    leaves depends on the order of the row operations; there every zero
    written is the int 0."""
    field = M.field
    R, pivots = rref(M)
    want_R, want_pivots = dense_rref(M)
    assert pivots == want_pivots
    assert (R.rows, R.cols, R.entries) == (M.rows, M.cols, want_R.entries)
    assert not any(any(row) for row in R.entries[len(pivots):])
    assert rank(M) == dense_rank(M) == len(pivots)
    K, want_K = kernel_basis(M), dense_kernel_basis(M)
    assert (K.rows, K.cols, K.entries) == (want_K.rows, want_K.cols,
                                           want_K.entries)
    b = [field.from_int(y) for y in b[:M.rows]]
    x, want_x = solve(M, b), dense_solve(M, b)
    assert x == want_x
    if field != QQ:
        assert typed(R.entries) == typed(want_R.entries)
        assert typed(K.entries) == typed(want_K.entries)
        assert x is None or typed([x]) == typed([want_x])
    assert scalars_of(field, R.entries) and scalars_of(field, K.entries)
    assert scalars_of(field, [x or []])
    y = [field.from_int(c) for c in y[:M.cols]]
    got, want = M.apply(sparse_rows([y])[0]), dense_apply(M, y)
    assert got == sparse_rows([want])[0]
    assert scalars_of(field, [got.values()])
    if field != QQ:
        assert typed([got.values()]) == typed([[a for a in want if a]])
    cells = [(r, c, a) for r, row in enumerate(M.entries)
             for c, a in enumerate(row) if a]
    filled = [[a if a else field.zero() for a in row] for row in M.entries]
    for order in (cells, cells[::-1]):
        W = from_entries(M.rows, M.cols, order, field)
        assert (W.rows, W.cols, W.field) == (M.rows, M.cols, field)
        assert typed(W.entries) == typed(filled)
    for shape in ((0, M.cols), (M.rows, 0)):
        W = from_entries(*shape, [], field)
        assert (W.rows, W.cols, W.entries) == shape + ([[]] * shape[0],)
        assert W.apply({}) == {}


def test_dense_api_runs_the_one_elimination(monkeypatch):
    """rref, rank, kernel_basis and solve each reach ``linalg._forward``,
    on the rows they build from M: none goes through ``sparse_rref``,
    which would copy those rows a second time."""
    calls = []
    forward = linalg._forward

    def counted(rows, field):
        calls.append(field)
        return forward(rows, field)

    def refuse(*args):
        raise AssertionError("rows copied twice")

    monkeypatch.setattr(linalg, "_forward", counted)
    monkeypatch.setattr(linalg, "sparse_rref", refuse)
    M = Matrix(2, 3, [[1, 2, 0], [0, 1, 1]], QQ)
    for name, run in [("rref", lambda: rref(M)), ("rank", lambda: rank(M)),
                      ("kernel_basis", lambda: kernel_basis(M)),
                      ("solve", lambda: solve(M, [1, 1]))]:
        del calls[:]
        run()
        assert calls, name


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError):
        QQ.parse("1/0")
    for s in ("1/0", "2/5", "1/-10"):
        with pytest.raises(ValueError):
            PrimeField(5).parse(s)
    assert PrimeField(5).parse("1/6") == PrimeField(5).one()


def test_prime_field_rejects_composite():
    try:
        PrimeField(6)
        assert False
    except ValueError:
        pass


def test_prime_field_range_ends_below_2_to_the_31():
    assert PrimeField(2 ** 31 - 1).p == 2 ** 31 - 1
    for p in (2 ** 31, 2 ** 61 - 1):
        with pytest.raises(ValueError, match="below 2\\^31"):
            PrimeField(p)


def test_hstack_vstack_shapes():
    A = Matrix.identity(2, QQ)
    B = Matrix.zero(2, 3, QQ)
    H = hstack([A, B])
    assert (H.rows, H.cols) == (2, 5)
    V = vstack([A, Matrix.zero(3, 2, QQ)])
    assert (V.rows, V.cols) == (5, 2)


def test_scalar_to_str_lowest_terms():
    assert scalar_to_str(Fraction(2, 4)) == "1/2"
    assert scalar_to_str(Fraction(-3)) == "-3"
    assert scalar_to_str(PrimeField(7).from_int(9)) == "2"


@given(st.lists(matrices, max_size=4))
def test_block_diag_places_blocks_at_running_offsets(blocks):
    D = block_diag(blocks)
    assert D.rows == sum(m.rows for m in blocks)
    assert D.cols == sum(m.cols for m in blocks)
    # the blocks partition the rows: each row band is zeros, the block, zeros
    r0 = c0 = 0
    for m in blocks:
        for i, row in enumerate(m.entries):
            band = D.entries[r0 + i]
            assert band[c0:c0 + m.cols] == row
            assert not any(band[:c0]) and not any(band[c0 + m.cols:])
        r0 += m.rows
        c0 += m.cols


def dense_block_diag(mats, field):
    """The zero matrix with each block slice-assigned at its running
    offset: the reference for ``block_diag``."""
    out = Matrix.zero(sum(m.rows for m in mats), sum(m.cols for m in mats), field)
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.entries):
            out.entries[r0 + i][c0:c0 + m.cols] = row
        r0 += m.rows
        c0 += m.cols
    return out


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([QQ, PrimeField(2), PrimeField(3)]).flatmap(
    lambda field: st.tuples(st.just(field),
                            st.lists(st.one_of(sparse_matrices(field),
                                               st.builds(Matrix.zero,
                                                         st.integers(0, 3),
                                                         st.just(0),
                                                         st.just(field)),
                                               st.builds(Matrix.zero,
                                                         st.just(0),
                                                         st.integers(0, 3),
                                                         st.just(field))),
                                     max_size=5))))
def test_block_diag_matches_the_dense_reference(case):
    """Entry for entry, with 0-row and 0-column blocks mixed in; every
    output row is a list of its own."""
    field, mats = case
    D = block_diag(mats, field)
    want = dense_block_diag(mats, field)
    assert (D.rows, D.cols, D.entries) == (want.rows, want.cols, want.entries)
    assert len({id(row) for row in D.entries}) == D.rows
    assert not any(row is b for m in mats for b in m.entries for row in D.entries)


@st.composite
def block_grids(draw):
    """(field, heights, widths, cells): row and column bands of 0 to 3 each,
    and per grid cell (i, j) either nothing (an absent block) or
    (block, coeff), coeff None for an unscaled block."""
    field = draw(st.sampled_from([QQ, PrimeField(3), PrimeField(7)]))
    if field == QQ:
        entry = st.one_of(st.just(0), fractions)
    else:
        entry = st.integers(-4, 4).map(field.from_int)
    heights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    widths = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    cells = {}
    for i, h in enumerate(heights):
        for j, w in enumerate(widths):
            kind = draw(st.sampled_from(["absent", "unscaled", "scaled"]))
            if kind == "absent":
                continue
            ent = draw(st.lists(st.lists(entry, min_size=w, max_size=w),
                                min_size=h, max_size=h))
            coeff = draw(entry) if kind == "scaled" else None
            cells[i, j] = (Matrix(h, w, ent, field), coeff)
    return field, heights, widths, cells


def dense_grid(field, heights, widths, cells):
    """One hstack per row band of the scaled blocks and of a
    ``Matrix.zero`` for each absent one, then a vstack of the bands: the
    reference for ``from_blocks``."""
    bands = []
    for i, h in enumerate(heights):
        row = []
        for j, w in enumerate(widths):
            if (i, j) not in cells:
                row.append(Matrix.zero(h, w, field))
                continue
            block, coeff = cells[i, j]
            row.append(block if coeff is None else block.scale(coeff))
        bands.append(hstack(row))
    return vstack(bands)


@settings(max_examples=150, deadline=None)
@given(block_grids())
def test_from_blocks_matches_the_dense_reference(grid):
    """Entry for entry over QQ, GF(3) and GF(7), with scaled, unscaled and
    absent blocks and zero-size bands; no output row is a block's row."""
    field, heights, widths, cells = grid
    r0 = [sum(heights[:i]) for i in range(len(heights))]
    c0 = [sum(widths[:j]) for j in range(len(widths))]
    blocks = [(r0[i], c0[j], block, coeff)
              for (i, j), (block, coeff) in cells.items()]
    M = from_blocks(sum(heights), sum(widths), blocks, field)
    want = dense_grid(field, heights, widths, cells)
    assert (M.rows, M.cols, M.entries) == (want.rows, want.cols, want.entries)
    assert M.field == field
    assert not any(row is b for block, _ in cells.values()
                   for b in block.entries for row in M.entries)
