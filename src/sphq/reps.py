"""Finite-dimensional representations of a bound quiver algebra.

A representation assigns an exact vector space k^d to every vertex and a
(target-dim x source-dim) matrix to every arrow, with all relations of the
algebra evaluating to zero.  Hom spaces, kernels/cokernels and radicals
are all reduced to the linalg kernels, with one elimination per quotient
(``_quotient_data`` row-reduces [A | I] once; ``kernel_cokernel`` reads
the kernel off the same elimination) and one per arrow of a sub-module
(``_subrep_from_inclusions``).

Nothing in sphq calls ``kernel_cokernel`` or ``top_and_radical`` any more:
interval modules are quotients by radical spans (``spherelike``).  Both
stay as the reference the interval tests compare against, and as span
boundaries of ``perfbench/tracer.py``.

This module alone builds the standard modules P(x) and I(x), memoises
them and their sums per algebra and indexes the sums (``standard_basis``,
``standard_sum``); maps out of a sum of projectives are given by the
images of its generators (``from_generators``).
"""

from collections import namedtuple

from .algebra import Path, json_int, memoised
from .errors import AlgebraMismatch, SchemaError, UnknownVertex
from .linalg import (Matrix, block_diag, hstack, kernel_basis,
                     kernel_from_rref, rref, scalar_to_str)


class Representation:
    def __init__(self, alg, dims, maps, check=True):
        self.alg = alg
        self._memo = {}
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
            if not self.element_action(rel).is_zero():
                raise SchemaError("relation does not vanish on representation")

    def total_dim(self):
        return sum(self.dims.values())

    def is_zero(self):
        return self.total_dim() == 0

    def path_action(self, p):
        """Matrix of the path action M_source -> M_target: the product of
        the arrow maps along p, or the identity for a trivial path.  For a
        one-arrow path this is the arrow map itself, so callers must not
        mutate it."""
        if not p.arrows:
            return Matrix.identity(self.dims[p.source], self.alg.field)
        m = self.maps[p.arrows[0]]
        for name in p.arrows[1:]:
            m = self.maps[name] * m
        return m

    def path_apply(self, p, vec):
        """The path action on the vector ``vec`` of M_source, one arrow at
        a time."""
        for name in p.arrows:
            vec = self.maps[name].apply(vec)
        return vec

    def element_action(self, e):
        """Action M_source -> M_target of a nonzero element whose terms
        are parallel paths source -> target."""
        assert e.endpoints() is not None, \
            "element is zero or its terms not parallel"
        acc = None
        for p, c in e.terms.items():
            m = self.path_action(p).scale(c)
            acc = m if acc is None else acc + m
        return acc


class ModuleMorphism:
    def __init__(self, source, target, mats, check=True):
        self.source = source
        self.target = target
        self.mats = {v: mats[v] if v in mats else
                     Matrix.zero(target.dims[v], source.dims[v], source.alg.field)
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
    """Subrepresentation given per-vertex full-column-rank inclusion matrices.

    One elimination per arrow: in rref([incl_v | M_a incl_u]) the first
    k = incl_v.cols columns are the pivots, and rows < k of the remaining
    columns are the arrow map of the subrepresentation.
    """
    alg = M.alg
    dims = {v: incls[v].cols for v in incls}
    maps = {}
    for a in alg.quiver.arrows:
        inc = incls[a.target]
        k = inc.cols
        img = M.maps[a.name] * incls[a.source]
        R, pivots = rref(hstack([inc, img]))
        assert len(pivots) == k, "subspace not arrow-stable"
        maps[a.name] = Matrix(k, img.cols, [row[k:] for row in R.entries[:k]],
                              alg.field)
    sub = Representation(alg, dims, maps, check=False)
    incl = ModuleMorphism(sub, M, incls, check=False)
    return sub, incl


def _quotient_data(A):
    """For a matrix A (n x r), return (section, projection, pivots) for
    k^n / im A, from one elimination of [A | I].

    pivots: the pivot columns of A.  section: n x c matrix of the standard
    basis vectors e_i whose columns are pivots of [A | I], i.e. e_i not in
    the span of A and the earlier chosen e_j.  projection: c x n, the
    identity-part of the rows from rank A on; it is the unique matrix with
    proj * A = 0 and proj * section = identity.
    """
    return _quotient_elimination(A)[:3]


def _quotient_elimination(A):
    """``_quotient_data(A)`` plus the reduced form R of [A | I] it came
    from.  The left A.cols columns of R are rref(A): every row operation
    after them only touches rows that are zero there."""
    field = A.field
    n, r = A.rows, A.cols
    R, pivots = rref(hstack([A, Matrix.identity(n, field)]))
    apiv = [p for p in pivots if p < r]
    chosen = [p - r for p in pivots if p >= r]
    sect = Matrix.zero(n, len(chosen), field)
    for j, i in enumerate(chosen):
        sect.entries[i][j] = field.one()
    proj = Matrix(len(chosen), n, [row[r:] for row in R.entries[len(apiv):]],
                  field)
    return sect, proj, apiv, R


def _quotient_rep(M, sects, projs):
    """Quotient of M by a subrepresentation, given per-vertex (section,
    projection) data: arrow maps proj_v M_a sect_u, and the projection."""
    alg = M.alg
    maps = {a.name: projs[a.target] * (M.maps[a.name] * sects[a.source])
            for a in alg.quiver.arrows}
    Q = Representation(alg, {v: projs[v].rows for v in M.dims}, maps,
                       check=False)
    return Q, ModuleMorphism(M, Q, projs, check=False)


def kernel_cokernel(f):
    """(ker, coker, inclusion, projection) of a module morphism."""
    M, N = f.source, f.target
    kins, sects, projs = {}, {}, {}
    for v in N.dims:
        sects[v], projs[v], apiv, R = _quotient_elimination(f.mats[v])
        kins[v] = kernel_from_rref(R, apiv, f.mats[v].cols)
    ker, incl = _subrep_from_inclusions(M, kins)
    coker, proj = _quotient_rep(N, sects, projs)
    return ker, coker, incl, proj


TopRad = namedtuple("TopRad", "rad rad_inclusion top top_projection top_section")


def top_and_radical(M):
    """rad M = sum of arrow images; top = M / rad M (with chosen section).

    The radical basis at v is the pivot columns of the incoming arrow maps;
    the complement depends only on their span, so one elimination gives both.
    """
    alg = M.alg
    field = alg.field
    rins, sects, projs = {}, {}, {}
    for v in M.dims:
        ins = [M.maps[a.name] for a in alg.quiver.arrows_in[v]]
        A = hstack(ins) if ins else Matrix.zero(M.dims[v], 0, field)
        sects[v], projs[v], pivots = _quotient_data(A)
        rins[v] = Matrix(A.rows, len(pivots),
                         [[row[p] for p in pivots] for row in A.entries], field)
    rad, rad_incl = _subrep_from_inclusions(M, rins)
    top, tproj = _quotient_rep(M, sects, projs)
    assert all(m.is_zero() for m in top.maps.values())  # top is semisimple
    return TopRad(rad, rad_incl, top, tproj, sects)


# -- standard modules ---------------------------------------------------
#
# The labeled complexes of ``derived`` and the JSON format call P(x)
# "proj" and I(x) "inj"; ``standard_module`` takes the long names.

_KIND = {"projective": "proj", "injective": "inj"}


@memoised
def simple_module(alg, x):
    """S(x), built once per algebra."""
    if x not in alg.quiver.arrows_out:
        raise UnknownVertex("unknown vertex %r" % (x,))
    return Representation(alg, {x: 1}, {}, check=False)


def standard_basis(alg, kind, labels):
    """(order, index) for the sum of P(x_j) ("proj") or I(x_j) ("inj")
    over the labels x_j.

    order[v] lists the coordinates (j, p) at vertex v in the order
    ``direct_sum`` stacks them: summand j, then its basis paths p, the
    normal paths x_j -> v for P(x_j) and v -> x_j for I(x_j) (whose basis
    is dual to them).  index[v] maps (j, p) to its position.

    Built once per algebra, kind and label sequence and shared by every
    caller, so callers must not mutate the result.
    """
    return _standard_basis(alg, kind, tuple(labels))


@memoised
def _standard_basis(alg, kind, labels):
    def paths(x, v):
        return (alg.slice_basis(v, x) if kind == "proj"
                else alg.slice_basis(x, v))

    order = {v: [(j, p) for j, x in enumerate(labels) for p in paths(x, v)]
             for v in alg.quiver.vertices}
    index = {v: {key: i for i, key in enumerate(keys)}
             for v, keys in order.items()}
    return order, index


def generator_column(index, j, x):
    """Column of the generator e_x of summand j, labeled x, of a sum of
    projectives whose ``standard_basis`` index is ``index``."""
    return index[x][(j, Path(x, x, ()))]


@memoised
def _standard(alg, kind, x):
    """P(x) ("proj") or I(x) ("inj"), built once per algebra."""
    return _build_standard(alg, kind, x)


def _build_standard(alg, kind, x):
    """P(x) ("proj") or I(x) ("inj").

    P(x) = A e_x has basis the normal paths p: x -> v at v, and an arrow
    a: u -> v sends p to the normal form of p followed by a.  I(x) =
    D(e_x A) has the dual basis of the normal paths q: v -> x, and its
    arrow map is the transpose of q -> (a followed by q), from paths
    v -> x to paths u -> x.
    """
    order, index = standard_basis(alg, kind, [x])
    maps = {}
    for a in alg.quiver.arrows:
        u, v = a.source, a.target
        m = Matrix.zero(len(order[v]), len(order[u]), alg.field)
        if kind == "proj":
            for j, (_, p) in enumerate(order[u]):
                ext = alg.reduce_path(Path(x, v, p.arrows + (a.name,)))
                for r, c in ext.terms.items():
                    m.entries[index[v][0, r]][j] = c
        else:
            for i, (_, q) in enumerate(order[v]):
                ext = alg.reduce_path(Path(u, x, (a.name,) + q.arrows))
                for r, c in ext.terms.items():
                    m.entries[i][index[u][0, r]] = c
        maps[a.name] = m
    return Representation(alg, {v: len(keys) for v, keys in order.items()},
                          maps, check=False)


@memoised
def zero_rep(alg):
    """The zero module, shared per algebra."""
    return Representation(alg, {}, {}, check=False)


def projective_module(alg, x):
    """P(x) with arrows acting by postcomposition."""
    return _standard(alg, "proj", x)


def injective_module(alg, x):
    """I(x) = D(e_x A): dual basis indexed by normal paths with target x."""
    return _standard(alg, "inj", x)


def standard_module(alg, kind, x):
    if x not in alg.quiver.arrows_out:
        raise UnknownVertex("unknown vertex %r" % (x,))
    if kind == "simple":
        return simple_module(alg, x)
    if kind in _KIND:
        return _standard(alg, _KIND[kind], x)
    raise SchemaError("unknown standard module kind %r" % (kind,))


def direct_sum(reps):
    """Direct sum with block-diagonal arrow maps."""
    assert reps
    alg = reps[0].alg
    dims = {v: sum(r.dims[v] for r in reps) for v in alg.quiver.vertices}
    maps = {a.name: block_diag([r.maps[a.name] for r in reps], alg.field)
            for a in alg.quiver.arrows}
    return Representation(alg, dims, maps, check=False)


def standard_sum(alg, kind, labels):
    """(module, order, index): the sum of the standard modules of ``kind``
    over ``labels`` with its ``standard_basis``.

    Built once per algebra, kind and label sequence and shared by every
    caller (``LabeledComplex.to_rep``, the cover loop and ``perfectify``),
    so callers must not mutate the result.
    """
    return _standard_sum(alg, kind, tuple(labels))


@memoised
def _standard_sum(alg, kind, labels):
    M = (direct_sum([_standard(alg, kind, x) for x in labels]) if labels
         else zero_rep(alg))
    return (M,) + _standard_basis(alg, kind, labels)


def from_generators(M, order, images):
    """Per-vertex matrices of the map into M from the sum of projectives
    with coordinates ``order`` (its ``standard_basis``) that sends
    generator j to the vector images[j] of M: column (j, p) is
    ``M.path_apply(p, images[j])``."""
    field = M.alg.field
    mats = {}
    for v, keys in order.items():
        cols = [M.path_apply(p, images[j]) for j, p in keys]
        mats[v] = Matrix(len(cols), M.dims[v], cols, field).transpose()
    return mats


# -- JSON ---------------------------------------------------------------

def rep_from_json(alg, d):
    try:
        dims = {str(v): json_int(n, "dimension at vertex %s" % v)
                for v, n in d["dims"].items()}
        for v, n in dims.items():
            if v not in alg.quiver.arrows_out:
                raise UnknownVertex("dims key %r is not a vertex" % v)
            if n < 0:
                raise SchemaError("dimension at vertex %s is negative" % v)
        maps = {}
        for a, rows in d.get("maps", {}).items():
            arr = alg.quiver.arrow_by_name.get(str(a))
            if arr is None:
                raise SchemaError("unknown arrow %r in representation" % (a,))
            ent = [[alg.field.parse(str(x)) for x in row] for row in rows]
            r, c = dims.get(arr.target, 0), dims.get(arr.source, 0)
            if len(ent) != r or any(len(row) != c for row in ent):
                raise SchemaError("arrow %s matrix is not %d x %d" % (a, r, c))
            maps[str(a)] = Matrix(r, c, ent, alg.field)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
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
