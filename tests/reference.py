"""Dense helpers that ``sphq`` itself does not use, kept for the tests'
references."""

from sphq.algebra import Element
from sphq.derived import RESOLUTION_BOUND, LabeledComplex
from sphq.errors import EngineInvariantViolation, GlobalDimensionExceeded
from sphq.linalg import QQ, Matrix, from_blocks, hstack, kernel_basis, rref
from sphq.reps import (ModuleMorphism, direct_sum, from_generators,
                       standard_sum)


def vstack(mats):
    """The matrices stacked top to bottom, each row copied."""
    mats = list(mats)
    if not mats:
        return Matrix.zero(0, 0, QQ)
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    entries = []
    for m in mats:
        entries.extend(row[:] for row in m.entries)
    return Matrix(len(entries), cols, entries, mats[0].field)


def dense_cover_complex(C):
    """(P, q) of ``derived._cover_complex`` from dense matrices, in its
    output format: q[n] is the per-vertex matrices of q^n for each degree n
    of C.

    Per degree, A = P^{n+1} + C^n is built as a module with block-diagonal
    arrow maps; the kernel K of Phi^n_v = [E^{n+1}_v | 0 ; -d_C^n] is
    ``kernel_basis`` of the dense matrix (the identity at the top degree),
    the generators at v are the columns of K that are pivot columns of
    rref [R | K], R = [A_a K_{source a}] over the arrows a into v, and
    E^n = ``from_generators`` into A, path by path and arrow by arrow."""
    alg = C.alg
    field = alg.field
    minus_one = field.from_int(-1)
    verts = alg.quiver.vertices
    pieces, diffs, q = {}, {}, {}
    if C.is_zero():
        return LabeledComplex(alg, pieces, diffs, "proj", check=False), q
    lo, n = C.degrees()[0], C.degrees()[-1]
    prev = None  # (P^{n+1} as a module, its summand order, E^{n+1})
    while True:
        Cn = C.piece(n)
        if prev is None:  # the top degree: Phi^n has no rows, F^n = C^n
            A = Cn
            kins = {v: Matrix.identity(Cn.dims[v], field) for v in verts}
        else:
            Prev, above, E = prev
            A = Prev if Cn.is_zero() else direct_sum([Prev, Cn])
            dC = C.diffs.get(n)
            kins = {}
            for v in verts:
                phi = E[v]
                if Cn.dims[v]:
                    blocks = [(0, 0, phi, None)]
                    if dC is not None:
                        m = dC.mats[v]
                        blocks.append((phi.rows - m.rows, phi.cols, m, minus_one))
                    phi = from_blocks(phi.rows, phi.cols + Cn.dims[v], blocks, field)
                kins[v] = kernel_basis(phi)
        if n < lo and all(K.cols == 0 for K in kins.values()):
            break
        if n < lo - RESOLUTION_BOUND:
            raise GlobalDimensionExceeded(RESOLUTION_BOUND,
                                          "resolving a module")
        labels, gens = [], []
        for v in verts:
            K = kins[v]
            R = [A.maps[a.name] * kins[a.source] for a in alg.quiver.arrows_in[v]]
            r = sum(m.cols for m in R)
            _, piv = rref(hstack(R + [K]))
            if len(piv) != K.cols:
                raise EngineInvariantViolation(
                    "F^%d is not arrow-stable at vertex %s" % (n, v))
            for p in piv:
                if p >= r:
                    labels.append(v)
                    gens.append(K.col(p - r))
        pieces[n] = labels
        if prev is not None:
            # the first rows of generator j are its coordinates (i, p) in P^{n+1}
            d = [[alg.zero_element() for _ in labels] for _ in pieces[n + 1]]
            for j, x in enumerate(labels):
                for (i, p), c in zip(above[x], gens[j]):
                    if c:
                        d[i][j] = d[i][j] + Element({p: c}, field)
            diffs[n] = d
        Pn, order, _ = standard_sum(alg, "proj", labels)
        E = from_generators(A, order, gens)
        q[n] = ModuleMorphism(Pn, Cn, {
            v: Matrix(Cn.dims[v], E[v].cols,
                      E[v].entries[A.dims[v] - Cn.dims[v]:], field)
            for v in verts}, check=False)
        prev = (Pn, order, E)
        n -= 1
    return (LabeledComplex(alg, pieces, diffs, "proj"),
            {n: f.mats for n, f in q.items() if n in C.pieces})
