"""Exact linear algebra checked against sympy and algebraic identities."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sphq.linalg import (Matrix, PrimeField, QQ, block_diag, hstack,
                         kernel_basis, kernel_from_rref, rank, rref,
                         scalar_to_str, solve, sparse_rref, vstack)

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
    b = M.apply(x)
    s = solve(M, b)
    assert s is not None
    assert M.apply(s) == b


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
    assert F.parse("3/4") * b == a


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
    R, pivots = rref(M)
    rows, sparse_pivots = sparse_rref(sparse_rows(M.entries), M.field)
    assert sparse_pivots == pivots
    assert rows == sparse_rows(R.entries[:len(pivots)])
    assert all(list(row) == sorted(row) for row in rows)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)])
       .flatmap(sparse_matrices))
def test_kernel_read_off_the_rref_of_a_with_identity(M):
    """The elimination of [M | I] gives M's kernel basis entry for entry."""
    R, pivots = rref(hstack([M, Matrix.identity(M.rows, M.field)]))
    K = kernel_from_rref(R, [p for p in pivots if p < M.cols], M.cols)
    want = kernel_basis(M)
    assert (K.rows, K.cols, K.entries) == (want.rows, want.cols, want.entries)


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
