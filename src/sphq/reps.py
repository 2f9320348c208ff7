"""Finite-dimensional representations of a bound quiver algebra.

A representation assigns an exact vector space k^d to every vertex and a
(target-dim x source-dim) matrix to every arrow, with all relations of the
algebra evaluating to zero.  Hom spaces, kernels/cokernels and radicals
are all reduced to the linalg kernels.
"""

from collections import namedtuple

from .errors import AlgebraMismatch, SchemaError, UnknownVertex
from .linalg import Matrix, hstack, kernel_basis, rref, solve, scalar_to_str


class Representation:
    def __init__(self, alg, dims, maps, check=True):
        self.alg = alg
        self.dims = {v: int(dims.get(v, 0)) for v in alg.quiver.vertices}
        self.maps = {}
        for a in alg.quiver.arrows:
            m = maps.get(a.name)
            if m is None:
                m = Matrix.zero(self.dims[a.target], self.dims[a.source], alg.field)
            self.maps[a.name] = m
        if check:
            self._validate()

    def _validate(self):
        for a in self.alg.quiver.arrows:
            m = self.maps[a.name]
            if m.rows != self.dims[a.target] or m.cols != self.dims[a.source]:
                raise SchemaError("arrow %s matrix has wrong shape" % a.name)
        for rel in self.alg.relations:
            s, t = rel.endpoints()
            acc = Matrix.zero(self.dims[t], self.dims[s], self.alg.field)
            for p, c in rel.terms.items():
                acc = acc + self.path_action(p).scale(c)
            if not acc.is_zero():
                raise SchemaError("relation does not vanish on representation")

    def total_dim(self):
        return sum(self.dims.values())

    def support(self):
        return {v for v, d in self.dims.items() if d > 0}

    def is_zero(self):
        return self.total_dim() == 0

    def path_action(self, p):
        """Matrix of the path action M_source -> M_target."""
        m = Matrix.identity(self.dims[p.source], self.alg.field)
        for name in p.arrows:
            m = self.maps[name] * m
        return m

    def element_action(self, e, source=None, target=None):
        """Action of a parallel-path element; acts M_source -> M_target."""
        if e.terms:
            eps = e.endpoints()
            assert eps is not None, "element terms not parallel"
            source, target = eps
        acc = Matrix.zero(self.dims[target], self.dims[source], self.alg.field)
        for p, c in e.terms.items():
            acc = acc + self.path_action(p).scale(c)
        return acc


class ModuleMorphism:
    def __init__(self, source, target, mats, check=True):
        self.source = source
        self.target = target
        self.mats = {v: mats.get(v, Matrix.zero(target.dims[v], source.dims[v],
                                                source.alg.field))
                     for v in source.alg.quiver.vertices}
        if check:
            self._validate()

    def _validate(self):
        if self.source.alg is not self.target.alg and self.source.alg != self.target.alg:
            raise AlgebraMismatch("morphism endpoints over different algebras")
        for a in self.source.alg.quiver.arrows:
            lhs = self.target.maps[a.name] * self.mats[a.source]
            rhs = self.mats[a.target] * self.source.maps[a.name]
            if not (lhs - rhs).is_zero():
                raise SchemaError("morphism does not intertwine arrow %s" % a.name)

    def is_zero(self):
        return all(m.is_zero() for m in self.mats.values())

    def compose(self, other):
        """self after other (other first)."""
        assert other.target is self.source or other.target.dims == self.source.dims
        return ModuleMorphism(other.source, self.target,
                              {v: self.mats[v] * other.mats[v] for v in self.mats},
                              check=False)

    def __add__(self, o):
        return ModuleMorphism(self.source, self.target,
                              {v: self.mats[v] + o.mats[v] for v in self.mats},
                              check=False)

    def scale(self, c):
        return ModuleMorphism(self.source, self.target,
                              {v: self.mats[v].scale(c) for v in self.mats},
                              check=False)


def zero_morphism(M, N):
    return ModuleMorphism(M, N, {}, check=False)


def identity_morphism(M):
    return ModuleMorphism(M, M, {v: Matrix.identity(M.dims[v], M.alg.field)
                                 for v in M.dims}, check=False)


# -- Hom spaces ---------------------------------------------------------

def hom_basis(M, N):
    """Basis of Hom(M, N) as a list of ModuleMorphisms."""
    if M.alg is not N.alg and M.alg != N.alg:
        raise AlgebraMismatch("hom between modules over different algebras")
    alg = M.alg
    field = alg.field
    verts = alg.quiver.vertices
    # Unknowns: entries of f_v, row-major, vertex blocks in order.
    offs = {}
    total = 0
    for v in verts:
        offs[v] = total
        total += N.dims[v] * M.dims[v]
    rows = []
    for a in alg.quiver.arrows:
        u, v = a.source, a.target
        Na, Ma = N.maps[a.name], M.maps[a.name]
        # Equation N_a f_u - f_v M_a = 0, entries (i, j) i < N.dims[v], j < M.dims[u]
        for i in range(N.dims[v]):
            for j in range(M.dims[u]):
                row = [field.zero()] * total
                for k in range(N.dims[u]):
                    row[offs[u] + k * M.dims[u] + j] = row[offs[u] + k * M.dims[u] + j] + Na.entries[i][k]
                for k in range(M.dims[v]):
                    row[offs[v] + i * M.dims[v] + k] = row[offs[v] + i * M.dims[v] + k] - Ma.entries[k][j]
                rows.append(row)
    if rows:
        K = kernel_basis(Matrix(len(rows), total, rows, field))
    else:
        K = Matrix.identity(total, field)
    out = []
    for c in range(K.cols):
        mats = {}
        for v in verts:
            ent = [[K.entries[offs[v] + i * M.dims[v] + j][c]
                    for j in range(M.dims[v])] for i in range(N.dims[v])]
            mats[v] = Matrix(N.dims[v], M.dims[v], ent, field)
        out.append(ModuleMorphism(M, N, mats, check=False))
    return out


# -- kernels, cokernels, radicals ---------------------------------------

def _subrep_from_inclusions(M, incls):
    """Subrepresentation given per-vertex full-column-rank inclusion matrices."""
    alg = M.alg
    dims = {v: incls[v].cols for v in incls}
    maps = {}
    for a in alg.quiver.arrows:
        u, v = a.source, a.target
        img = M.maps[a.name] * incls[u]
        cols = []
        for j in range(img.cols):
            x = solve(incls[v], img.col(j))
            assert x is not None, "subspace not arrow-stable"
            cols.append(x)
        maps[a.name] = Matrix(incls[v].cols, img.cols,
                              [[cols[j][i] for j in range(img.cols)]
                               for i in range(incls[v].cols)], alg.field)
    sub = Representation(alg, dims, maps, check=False)
    incl = ModuleMorphism(sub, M, incls, check=False)
    return sub, incl


def _quotient_data(A):
    """For a matrix A (n x r), return (section, projection) for k^n / im A.

    section: n x c matrix of chosen standard basis vectors spanning a
    complement; projection: c x n with proj * section = identity and
    proj * A = 0.
    """
    field = A.field
    n = A.rows
    E = hstack([A, Matrix.identity(n, field)]) if n else Matrix.zero(0, A.cols, field)
    _, pivots = rref(E)
    chosen = [p - A.cols for p in pivots if p >= A.cols]
    c = len(chosen)
    sect = Matrix.zero(n, c, field)
    for j, i in enumerate(chosen):
        sect.entries[i][j] = field.one()
    # Invert B = [A-pivot-columns | section] to extract the projection rows.
    apiv = [p for p in pivots if p < A.cols]
    B = hstack([Matrix(n, len(apiv), [[A.entries[i][j] for j in apiv]
                                      for i in range(n)], field), sect]) \
        if n else Matrix.zero(0, 0, field)
    proj_rows = []
    Baug = hstack([B, Matrix.identity(n, field)]) if n else B
    R, piv2 = rref(Baug)
    # B is square invertible; R = [I | B^-1].
    Binv = Matrix(n, n, [[R.entries[i][n + j] for j in range(n)]
                         for i in range(n)], field)
    for i in range(len(apiv), n):
        proj_rows.append(Binv.entries[i])
    proj = Matrix(c, n, proj_rows, field)
    return sect, proj


def kernel_cokernel(f):
    """(ker, coker, inclusion, projection) of a module morphism."""
    M, N = f.source, f.target
    alg = M.alg
    kins = {v: kernel_basis(f.mats[v]) for v in M.dims}
    ker, incl = _subrep_from_inclusions(M, kins)
    sects, projs = {}, {}
    for v in N.dims:
        sects[v], projs[v] = _quotient_data(f.mats[v])
    cdims = {v: projs[v].rows for v in N.dims}
    cmaps = {}
    for a in alg.quiver.arrows:
        u, v = a.source, a.target
        cmaps[a.name] = projs[v] * (N.maps[a.name] * sects[u])
    coker = Representation(alg, cdims, cmaps, check=False)
    proj = ModuleMorphism(N, coker, projs, check=False)
    return ker, coker, incl, proj


TopRad = namedtuple("TopRad", "rad rad_inclusion top top_projection top_section")


def top_and_radical(M):
    """rad M = sum of arrow images; top = M / rad M (with chosen section)."""
    alg = M.alg
    field = alg.field
    rins = {}
    rad_mats = {}
    for v in M.dims:
        ins = [M.maps[a.name] for a in alg.quiver.arrows_in[v]]
        A = hstack(ins) if ins else Matrix.zero(M.dims[v], 0, field)
        R, pivots = rref(A)
        cols = Matrix(M.dims[v], len(pivots),
                      [[A.entries[i][p] for p in pivots] for i in range(M.dims[v])],
                      field)
        rins[v] = cols
        rad_mats[v] = A
    rad, rad_incl = _subrep_from_inclusions(M, rins)
    sects, projs = {}, {}
    for v in M.dims:
        sects[v], projs[v] = _quotient_data(rins[v])
    tdims = {v: projs[v].rows for v in M.dims}
    tmaps = {}
    for a in alg.quiver.arrows:
        u, v = a.source, a.target
        tmaps[a.name] = projs[v] * (M.maps[a.name] * sects[u])
        assert tmaps[a.name].is_zero()  # top is semisimple
    top = Representation(alg, tdims, tmaps, check=False)
    tproj = ModuleMorphism(M, top, projs, check=False)
    tsect = {v: sects[v] for v in M.dims}
    return TopRad(rad, rad_incl, top, tproj, tsect)


# -- standard modules ---------------------------------------------------

def simple_module(alg, x):
    if x not in alg.quiver.arrows_out:
        raise UnknownVertex(str(x))
    return Representation(alg, {x: 1}, {}, check=False)


class ProjectiveBasis:
    """Indexed basis of P(x) = A e_x: normal paths with source x."""

    def __init__(self, alg, x):
        self.alg = alg
        self.vertex = x
        self.by_vertex = {}
        for v in alg.quiver.vertices:
            self.by_vertex[v] = list(alg.slice_basis(v, x))
        self.index = {v: {p: i for i, p in enumerate(ps)}
                      for v, ps in self.by_vertex.items()}

    def dims(self):
        return {v: len(ps) for v, ps in self.by_vertex.items()}


def projective_module(alg, x):
    """P(x) with arrows acting by postcomposition."""
    pb = ProjectiveBasis(alg, x)
    dims = pb.dims()
    maps = {}
    field = alg.field
    for a in alg.quiver.arrows:
        u, v = a.source, a.target
        m = Matrix.zero(dims[v], dims[u], field)
        for j, p in enumerate(pb.by_vertex[u]):
            ext = alg.reduce_path(p.__class__(p.source, a.target, p.arrows + (a.name,)))
            for q, c in ext.terms.items():
                m.entries[pb.index[v][q]][j] = c
        maps[a.name] = m
    return Representation(alg, dims, maps, check=False)


def injective_module(alg, x):
    """I(x) = D(e_x A): dual basis indexed by normal paths with target x."""
    field = alg.field
    by_vertex = {v: list(alg.slice_basis(x, v)) for v in alg.quiver.vertices}
    index = {v: {p: i for i, p in enumerate(ps)} for v, ps in by_vertex.items()}
    dims = {v: len(ps) for v, ps in by_vertex.items()}
    maps = {}
    for a in alg.quiver.arrows:
        u, v = a.source, a.target
        # Right multiplication by a: paths (v -> x) -> paths (u -> x); the
        # injective's arrow map I_u -> I_v is its transpose.
        m = Matrix.zero(dims[u], dims[v], field)
        for j, q in enumerate(by_vertex[v]):
            ext = alg.reduce_path(q.__class__(u, q.target, (a.name,) + q.arrows))
            for r, c in ext.terms.items():
                m.entries[index[u][r]][j] = c
        maps[a.name] = m.transpose()
    return Representation(alg, dims, maps, check=False)


def standard_module(alg, kind, x):
    if x not in alg.quiver.arrows_out:
        raise UnknownVertex(str(x))
    if kind == "simple":
        return simple_module(alg, x)
    if kind == "projective":
        return projective_module(alg, x)
    if kind == "injective":
        return injective_module(alg, x)
    raise SchemaError("unknown standard module kind %r" % (kind,))


def direct_sum(reps):
    """Direct sum with block-diagonal arrow maps; returns (rep, offsets)."""
    assert reps
    alg = reps[0].alg
    field = alg.field
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    offsets = []
    acc = {v: 0 for v in alg.quiver.vertices}
    for r in reps:
        offsets.append(dict(acc))
        for v in alg.quiver.vertices:
            acc[v] += r.dims[v]
    maps = {}
    for a in alg.quiver.arrows:
        u, v = a.source, a.target
        m = Matrix.zero(dims[v], dims[u], field)
        for r, off in zip(reps, offsets):
            blk = r.maps[a.name]
            for i in range(blk.rows):
                for j in range(blk.cols):
                    m.entries[off[v] + i][off[u] + j] = blk.entries[i][j]
        maps[a.name] = m
    return Representation(alg, dims, maps, check=False), offsets


# -- JSON ---------------------------------------------------------------

def rep_from_json(alg, d):
    try:
        dims = {str(v): int(n) for v, n in d["dims"].items()}
        maps = {}
        for a, rows in d.get("maps", {}).items():
            arr = alg.quiver.arrow_by_name.get(str(a))
            if arr is None:
                raise SchemaError("unknown arrow %r in representation" % (a,))
            ent = [[alg.field.parse(str(x)) for x in row] for row in rows]
            maps[str(a)] = Matrix(dims.get(arr.target, 0), dims.get(arr.source, 0),
                                  ent, alg.field)
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("malformed representation file: %s" % e)
    return Representation(alg, dims, maps)


def rep_to_json(M):
    return {
        "dims": {v: d for v, d in M.dims.items() if d},
        "maps": {a.name: [[scalar_to_str(x) for x in row]
                          for row in M.maps[a.name].entries]
                 for a in M.alg.quiver.arrows
                 if M.maps[a.name].rows and M.maps[a.name].cols},
    }
