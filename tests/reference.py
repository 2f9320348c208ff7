"""Dense helpers that ``sphq`` itself does not use, kept for the tests'
references."""

import random

from sphq.algebra import Element
from sphq.derived import (ISO_TRIALS, RESOLUTION_BOUND, _ISO_SEED,
                          BoundedComplex, ChainMap, LabeledComplex,
                          _cohomology, as_rep_complex, chain_map_space)
from sphq.errors import (AlgebraMismatch, EngineInvariantViolation,
                         GlobalDimensionExceeded, NotChainMap, SchemaError)
from sphq.linalg import QQ, Matrix, from_blocks, from_entries, hstack, rank
from sphq.reps import ModuleMorphism, direct_sum, standard_sum


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


def check_morphism(f):
    """Raise unless the ModuleMorphism f has endpoints over one algebra and
    intertwines every arrow: target_a f_u = f_v source_a, dense products."""
    if f.source.alg is not f.target.alg and f.source.alg != f.target.alg:
        raise AlgebraMismatch("morphism endpoints over different algebras")
    for a in f.source.alg.quiver.arrows:
        lhs = f.target.maps[a.name] * f.mats[a.source]
        rhs = f.mats[a.target] * f.source.maps[a.name]
        if not (lhs - rhs).is_zero():
            raise SchemaError("morphism does not intertwine arrow %s" % a.name)
    return f


def check_complex(X):
    """Raise SchemaError unless each differential of the BoundedComplex X
    runs between its pieces and d o d = 0, dense products."""
    for n, d in X.diffs.items():
        if d.source.dims != X.pieces[n].dims or d.target.dims != X.pieces[n + 1].dims:
            raise SchemaError("differential at degree %d has wrong endpoints" % n)
    for n in X.diffs:
        if n + 1 in X.diffs:
            comp = X.diffs[n + 1].compose(X.diffs[n])
            if not comp.is_zero():
                raise SchemaError("d o d != 0 at degree %d" % n)
    return X


def _dense_cohomology(X):
    """``derived._cohomology`` of the BoundedComplex X, each differential
    ranked as its per-vertex matrices."""
    return _cohomology(
        {n: p.total_dim() for n, p in X.pieces.items()},
        lambda n: sum(rank(m) for m in X.diffs[n].mats.values())
        if n in X.diffs else 0)


def dense_is_acyclic(X):
    """True when every cohomology group of the BoundedComplex X vanishes;
    stops at the first degree with cohomology.  The dense oracle of
    ``derived.is_quasi_iso``."""
    return not any(h for _, h in _dense_cohomology(X))


def cohomology_dims(X):
    """{n: dim H^n} of the BoundedComplex X at each degree where it is
    nonzero, from the full walk that ``dense_is_acyclic`` stops early."""
    return {n: h for n, h in _dense_cohomology(X) if h}


def identity_morphism(M):
    return ModuleMorphism(M, M, {v: Matrix.identity(M.dims[v], M.alg.field)
                                 for v in M.dims})


def dense_col(M, j):
    """Column j of M as a plain vector (list)."""
    return [row[j] for row in M.entries]


def matrix_columns(M):
    """The columns of M as {row: coeff} dicts of its nonzero entries."""
    return [{i: a for i, a in enumerate(dense_col(M, j)) if a}
            for j in range(M.cols)]


def dense_apply(M, vec):
    """M times a plain vector (list), returning a list."""
    assert len(vec) == M.cols
    z = M.field.zero()
    out = []
    for i in range(M.rows):
        s = z
        ri = M.entries[i]
        for k in range(M.cols):
            if ri[k]:
                s = s + ri[k] * vec[k]
        out.append(s)
    return out


def dense_from_generators(M, order, images):
    """The per-vertex matrices of the map into M from the sum of
    projectives with coordinates ``order`` (its ``standard_basis``) that
    sends generator j to the list vector images[j]: column (j, p) is
    images[j] taken along p by ``dense_apply``, arrow by arrow, and the
    columns are transposed into each matrix."""
    mats = {}
    for v, keys in order.items():
        cols = []
        for j, p in keys:
            vec = images[j]
            for name in p.arrows:
                vec = dense_apply(M.maps[name], vec)
            cols.append(vec)
        mats[v] = Matrix(len(cols), M.dims[v], cols, M.alg.field).transpose()
    return mats


def dense_rref(M):
    """Reduced row echelon form by Gauss-Jordan elimination on a copy of M.
    Returns (R, pivot_columns).

    Deterministic: scans columns left to right, uses the first nonzero
    entry below the current row as pivot.
    """
    field = M.field
    one = field.one()
    ent = [row[:] for row in M.entries]
    R = Matrix(M.rows, M.cols, ent, field)
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


def dense_rank(M):
    return len(dense_rref(M)[1])


def dense_kernel_basis(M):
    """Matrix whose columns span the null space of M, read off
    ``dense_rref``: one column per free column f, in increasing f, with 1
    at f and minus column f of the reduced rows at their pivots."""
    R, pivots = dense_rref(M)
    z, o = M.field.zero(), M.field.one()
    pivset = set(pivots)
    cols = []
    for f in range(M.cols):
        if f in pivset:
            continue
        v = [z] * M.cols
        v[f] = o
        for r, pc in enumerate(pivots):
            v[pc] = -R.entries[r][f]
        cols.append(v)
    return Matrix(M.cols, len(cols),
                  [[v[i] for v in cols] for i in range(M.cols)], M.field)


def dense_solve(M, b):
    """Particular solution of M x = b with the free variables 0, read off
    ``dense_rref`` of [M | b], or None if inconsistent."""
    aug = Matrix(M.rows, M.cols + 1,
                 [row[:] + [b[i]] for i, row in enumerate(M.entries)], M.field)
    R, pivots = dense_rref(aug)
    if M.cols in pivots:
        return None
    x = [M.field.zero()] * M.cols
    for r, pc in enumerate(pivots):
        x[pc] = R.entries[r][M.cols]
    return x


def dense_cover_complex(C):
    """(P, q) of ``derived._cover_complex`` from dense matrices: q[n] is
    the per-vertex matrices of q^n for each degree n of C, whose columns
    are the sparse columns that ``derived._cover_complex`` lists.

    Per degree, A = P^{n+1} + C^n is built as a module with block-diagonal
    arrow maps; the kernel K of Phi^n_v = [E^{n+1}_v | 0 ; -d_C^n] is
    ``dense_kernel_basis`` of the dense matrix (the identity at the top degree),
    the generators at v are the columns of K that are pivot columns of
    ``dense_rref`` [R | K], R = [A_a K_{source a}] over the arrows a into v, and
    E^n = ``dense_from_generators`` into A, path by path and arrow by
    arrow."""
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
                kins[v] = dense_kernel_basis(phi)
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
            _, piv = dense_rref(hstack(R + [K]))
            if len(piv) != K.cols:
                raise EngineInvariantViolation(
                    "F^%d is not arrow-stable at vertex %s" % (n, v))
            for p in piv:
                if p >= r:
                    labels.append(v)
                    gens.append(dense_col(K, p - r))
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
        E = dense_from_generators(A, order, gens)
        q[n] = ModuleMorphism(Pn, Cn, {
            v: Matrix(Cn.dims[v], E[v].cols,
                      E[v].entries[A.dims[v] - Cn.dims[v]:], field)
            for v in verts})
        prev = (Pn, order, E)
        n -= 1
    return (LabeledComplex(alg, pieces, diffs, "proj"),
            {n: f.mats for n, f in q.items() if n in C.pieces})


def q_matrices(C, q):
    """The q of ``derived._cover_complex``, per-vertex lists of sparse
    {row: coeff} columns, read back into matrices: q^n at v has the
    C^n_v rows and one column per listed column."""
    field = C.alg.field
    return {n: {v: from_entries(C.pieces[n].dims[v], len(cols),
                                ((i, k, a) for k, col in enumerate(cols)
                                 for i, a in col.items()), field)
                for v, cols in qn.items()}
            for n, qn in q.items()}


def dense_chain_map(P, C, q, check=False):
    """q, read back by ``q_matrices``, as a ChainMap from P.to_rep() to C;
    ``check`` runs the dense chain-map check."""
    Prep = P.to_rep()
    comps = {n: ModuleMorphism(Prep.piece(n), C.pieces[n], mats)
             for n, mats in q_matrices(C, q).items()}
    return ChainMap(Prep, C, comps, check=check)


def _dense_cone_mats(f, n):
    """Per-vertex matrices of the cone differential C^n -> C^{n+1},
    C^n = X^{n+1} + Y^n, with blocks [[-d_X^{n+1}, 0], [f^{n+1}, d_Y^n]];
    None when all three blocks are absent.  A present block is a nonzero
    morphism, so the differential is then nonzero."""
    X, Y = f.source, f.target
    dx, fn, dy = X.diffs.get(n + 1), f.comps.get(n + 1), Y.diffs.get(n)
    if dx is None and fn is None and dy is None:
        return None
    alg = X.alg
    minus_one = alg.field.from_int(-1)
    xr, xc = X.piece(n + 2).dims, X.piece(n + 1).dims
    yr, yc = Y.piece(n + 1).dims, Y.piece(n).dims
    mats = {}
    for v in alg.quiver.vertices:
        blocks = ((0, 0, dx, minus_one), (xr[v], 0, fn, None),
                  (xr[v], xc[v], dy, None))
        mats[v] = from_blocks(
            xr[v] + yr[v], xc[v] + yc[v],
            [(r0, c0, g.mats[v], c) for r0, c0, g, c in blocks if g is not None],
            alg.field)
    return mats


def dense_cone(f):
    """Mapping cone of the ChainMap f: X -> Y from its dense blocks:
    C^n = X^{n+1} + Y^n, with the differential of ``_dense_cone_mats``.
    A block absent from ``X.diffs``, ``f.comps`` or ``Y.diffs`` is zero
    and is never built."""
    X, Y = f.source, f.target
    degs = sorted({n - 1 for n in X.pieces} | set(Y.pieces))
    pieces = {n: direct_sum([X.piece(n + 1), Y.piece(n)]) for n in degs}
    diffs = {}
    for n in degs:
        mats = _dense_cone_mats(f, n)
        if mats is not None:
            diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats)
    return BoundedComplex(X.alg, pieces, diffs)


def complex_direct_sum(complexes):
    """Degreewise direct sum; each differential is block diagonal, and the
    block of a summand without a differential in that degree is zero."""
    assert complexes
    alg = complexes[0].alg
    degs = sorted({n for c in complexes for n in c.pieces})
    pieces, diffs = {}, {}
    for n in degs:
        pieces[n] = direct_sum([c.piece(n) for c in complexes])
    for n in degs:
        if n + 1 not in pieces:
            continue
        mats = {}
        for v in alg.quiver.vertices:
            blocks, r0, c0 = [], 0, 0
            for c in complexes:
                d = c.diffs.get(n)
                if d is not None:
                    blocks.append((r0, c0, d.mats[v], None))
                r0 += c.piece(n + 1).dims[v]
                c0 += c.piece(n).dims[v]
            mats[v] = from_blocks(r0, c0, blocks, alg.field)
        diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats)
    return BoundedComplex(alg, pieces, diffs)


def dense_certify(P, C, q):
    """``perfectify``'s certificate from dense matrices: the
    ``dense_chain_map`` of q must pass the dense chain-map check
    (``ChainMap(check=True)``, products of per-vertex matrices), and the
    cone, built with its direct-sum modules and dense blocks, must be
    acyclic (dense ranks).  Raises EngineInvariantViolation otherwise."""
    try:
        f = dense_chain_map(P, C, q, check=True)
    except NotChainMap as e:
        raise EngineInvariantViolation(
            "perfectify map is not a chain map: %s" % e) from e
    if not dense_is_acyclic(dense_cone(f)):
        raise EngineInvariantViolation(
            "perfectify result is not quasi-isomorphic")


def dense_iso_up_to_shift(F, Y, s):
    """``derived.iso_up_to_shift`` on dense chain maps: the maps of
    ``chain_map_space(F, Y, -s)`` as ``dense_chain_map``s from F.to_rep()
    to Y[-s], then the same ``ISO_TRIALS`` seeded combinations, each
    summed from the scaled per-vertex matrices of the basis maps, and each
    map is a quasi-isomorphism when its ``dense_cone`` is acyclic."""
    Yrep = as_rep_complex(Y)
    if F.is_zero() and Yrep.is_zero():
        return True
    dim, maps = chain_map_space(F, Yrep, -s)
    Ys = Yrep.shift(-s)
    cands = [dense_chain_map(F, Ys, q) for q in maps]
    for f in cands:
        if dense_is_acyclic(dense_cone(f)):
            return True
    if dim > 1:
        field = F.alg.field
        rng = random.Random(_ISO_SEED)
        for _ in range(ISO_TRIALS):
            coeffs = [rng.randint(-5, 5) for _ in cands]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            comps = {}
            for c, f in zip(coeffs, cands):
                for n, g in f.comps.items():
                    g = g.scale(field.from_int(c))
                    comps[n] = comps[n] + g if n in comps else g
            if dense_is_acyclic(dense_cone(ChainMap(
                    cands[0].source, cands[0].target, comps, check=False))):
                return True
        return "not_witnessed"
    return False
