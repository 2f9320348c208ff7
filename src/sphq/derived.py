"""Bounded complexes, resolutions, derived Hom, Nakayama functor.

Degree convention is cohomological: differentials raise degree, and
projective resolutions live in degrees <= 0.

Two complex flavours:

* ``BoundedComplex`` — graded Representations with ModuleMorphism
  differentials; supports cohomology, shifts, cones.
* ``LabeledComplex`` — formal sums of standard-module labels (projective
  or injective) with differentials whose entries are AlgebraElements.
  A "proj"-labeled complex is a perfect complex; the entry in position
  (i, j) of the differential out of degree n is an element of
  e_{x_j} A e_{y_i} and encodes the right-multiplication map
  P(x_j) -> P(y_i) (dually for injective labels).  Element-valued
  differentials exist precisely so the Nakayama functor can transport
  maps functorially: nakayama just swaps P-labels for I-labels.

Derived Hom is always computed with a perfect left argument.  A
bounded-above complex of projectives is K-projective, so homotopy classes
of chain maps compute derived Homs; ``chain_map_space`` returns H^s of
the total Hom complex together with representative chain maps.
"""

import random

from .algebra import Element, Path
from .errors import (GlobalDimensionExceeded, NotChainMap, NotElementValued,
                     EngineInvariantViolation, SchemaError)
from .linalg import (Matrix, block_diag, hstack, kernel_basis, rank, rref,
                     scalar_to_str, solve, vstack)
from .reps import (ModuleMorphism, Representation, direct_sum,
                   injective_module, kernel_cokernel, projective_module,
                   top_and_radical, zero_morphism)

# Largest resolution length tried before GlobalDimensionExceeded.
DEFAULT_BOUND = 40


def _std_cached(alg, kind, x):
    cache = alg._std_cache
    key = (kind, x)
    if key not in cache:
        cache[key] = projective_module(alg, x) if kind == "proj" else injective_module(alg, x)
    return cache[key]


def zero_rep(alg):
    return Representation(alg, {}, {}, check=False)


# ----------------------------------------------------------------------
# rep-level complexes


class BoundedComplex:
    def __init__(self, alg, pieces, diffs, check=True):
        self.alg = alg
        self.pieces = {n: p for n, p in pieces.items() if p.total_dim() > 0}
        self.diffs = {}
        for n, d in diffs.items():
            if n in self.pieces and (n + 1) in self.pieces and not d.is_zero():
                self.diffs[n] = d
        if check:
            self._validate()

    def _validate(self):
        for n, d in self.diffs.items():
            if d.source.dims != self.pieces[n].dims or d.target.dims != self.pieces[n + 1].dims:
                raise SchemaError("differential at degree %d has wrong endpoints" % n)
        for n in self.diffs:
            if n + 1 in self.diffs:
                comp = self.diffs[n + 1].compose(self.diffs[n])
                if not comp.is_zero():
                    raise SchemaError("d o d != 0 at degree %d" % n)

    def degrees(self):
        return sorted(self.pieces)

    def is_zero(self):
        return not self.pieces

    def piece(self, n):
        return self.pieces.get(n) or zero_rep(self.alg)

    def diff(self, n):
        d = self.diffs.get(n)
        if d is not None:
            return d
        return zero_morphism(self.piece(n), self.piece(n + 1))

    def shift(self, s):
        """X[s]^n = X^{n+s}, differential scaled by (-1)^s."""
        sign = self.alg.field.from_int((-1) ** (s % 2))
        pieces = {n - s: p for n, p in self.pieces.items()}
        diffs = {n - s: d.scale(sign) for n, d in self.diffs.items()}
        return BoundedComplex(self.alg, pieces, diffs, check=False)

    def cohomology_dims(self):
        ranks = {n: sum(rank(m) for m in d.mats.values())
                 for n, d in self.diffs.items()}
        out = {}
        for n in self.degrees():
            dim = self.pieces[n].total_dim() - ranks.get(n, 0) - ranks.get(n - 1, 0)
            if dim:
                out[n] = dim
        return out

    def is_acyclic(self):
        return not self.cohomology_dims()

    def brutal_truncate_above(self, k):
        """sigma_{>=k}: keep degrees >= k."""
        pieces = {n: p for n, p in self.pieces.items() if n >= k}
        diffs = {n: d for n, d in self.diffs.items() if n >= k}
        return BoundedComplex(self.alg, pieces, diffs, check=False)

    def total_dim(self):
        return sum(p.total_dim() for p in self.pieces.values())


def stalk_complex(M, degree=0):
    return BoundedComplex(M.alg, {degree: M}, {}, check=False)


def complex_direct_sum(complexes):
    assert complexes
    alg = complexes[0].alg
    degs = sorted({n for c in complexes for n in c.pieces})
    pieces, diffs = {}, {}
    for n in degs:
        summands = [c.piece(n) for c in complexes]
        pieces[n], _ = direct_sum(summands)
    for n in degs:
        if n + 1 not in pieces:
            continue
        mats = {}
        for v in alg.quiver.vertices:
            mats[v] = block_diag([c.diff(n).mats[v] for c in complexes], alg.field)
        diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats, check=False)
    return BoundedComplex(alg, pieces, diffs, check=False)


class ChainMap:
    """Degree-0 chain map between BoundedComplexes."""

    def __init__(self, source, target, comps, check=True):
        self.source = source
        self.target = target
        self.comps = {n: f for n, f in comps.items() if not f.is_zero()}
        if check:
            self._validate()

    def comp(self, n):
        f = self.comps.get(n)
        if f is not None:
            return f
        return zero_morphism(self.source.piece(n), self.target.piece(n))

    def _validate(self):
        degs = set(self.source.pieces) | set(self.target.pieces)
        for n in degs:
            lhs = self.target.diff(n).compose(self.comp(n))
            rhs = self.comp(n + 1).compose(self.source.diff(n))
            for v in self.source.alg.quiver.vertices:
                if not (lhs.mats[v] - rhs.mats[v]).is_zero():
                    raise NotChainMap("square fails at degree %d vertex %s" % (n, v))


def cone(f):
    """Mapping cone of a chain map: C^n = X^{n+1} + Y^n."""
    X, Y = f.source, f.target
    alg = X.alg
    field = alg.field
    degs = sorted({n - 1 for n in X.pieces} | set(Y.pieces))
    pieces = {}
    for n in degs:
        pieces[n], _ = direct_sum([X.piece(n + 1), Y.piece(n)])
    diffs = {}
    for n in degs:
        if n + 1 not in pieces:
            if not (X.piece(n + 2).is_zero() and Y.piece(n + 1).is_zero()):
                pieces[n + 1], _ = direct_sum([X.piece(n + 2), Y.piece(n + 1)])
            else:
                continue
        mats = {}
        for v in alg.quiver.vertices:
            dx = X.diff(n + 1).mats[v].scale(field.from_int(-1))
            fy = f.comp(n + 1).mats[v]
            dy = Y.diff(n).mats[v]
            top = hstack([dx, Matrix.zero(dx.rows, dy.cols, field)])
            bot = hstack([fy, dy])
            mats[v] = vstack([top, bot])
        diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats, check=False)
    return BoundedComplex(alg, pieces, diffs, check=False)


def is_derived_iso(f):
    return cone(f).is_acyclic()


# ----------------------------------------------------------------------
# labeled (element-valued) complexes


class LabeledComplex:
    """Complex of labeled standard modules with AlgebraElement differentials."""

    def __init__(self, alg, pieces, diffs, kind="proj", check=True):
        self.alg = alg
        self.kind = kind
        self.pieces = {n: list(lab) for n, lab in pieces.items() if lab}
        self.diffs = {n: d for n, d in diffs.items()
                      if n in self.pieces and (n + 1) in self.pieces}
        self._rep = None
        if check:
            self._validate()

    def labels(self, n):
        return self.pieces.get(n, [])

    def degrees(self):
        return sorted(self.pieces)

    def is_zero(self):
        return not self.pieces

    def entry(self, n, i, j):
        d = self.diffs.get(n)
        if d is None:
            return self.alg.zero_element()
        return d[i][j]

    def _validate(self):
        alg = self.alg
        for n, d in self.diffs.items():
            src, tgt = self.pieces[n], self.pieces[n + 1]
            if len(d) != len(tgt) or any(len(row) != len(src) for row in d):
                raise SchemaError("differential shape mismatch at degree %d" % n)
            for i, row in enumerate(d):
                for j, e in enumerate(row):
                    if e.terms:
                        eps = e.endpoints()
                        if eps is None or eps != (tgt[i], src[j]):
                            raise NotElementValued(
                                "entry (%d,%d) at degree %d is not in the right slice"
                                % (i, j, n))
        for n in self.diffs:
            if n + 1 not in self.diffs:
                continue
            d1, d2 = self.diffs[n], self.diffs[n + 1]
            for ell in range(len(self.pieces[n + 2])):
                for j in range(len(self.pieces[n])):
                    acc = self.alg.zero_element()
                    for i in range(len(self.pieces[n + 1])):
                        acc = acc + self.alg.multiply(d1[i][j], d2[ell][i])
                    if not acc.is_zero():
                        raise SchemaError("d o d != 0 at degree %d (labeled)" % n)

    def shift(self, s):
        sign = self.alg.field.from_int((-1) ** (s % 2))
        pieces = {n - s: lab for n, lab in self.pieces.items()}
        diffs = {n - s: [[e.scale(sign) for e in row] for row in d]
                 for n, d in self.diffs.items()}
        return LabeledComplex(self.alg, pieces, diffs, self.kind, check=False)

    def summand_basis(self, n):
        """Per-vertex indexed basis of the degree-n piece.

        Returns (dims, index) where index[v] maps (summand, path) -> row and
        order[v] lists (summand, path) in order.
        """
        alg = self.alg
        order = {v: [] for v in alg.quiver.vertices}
        for si, lab in enumerate(self.labels(n)):
            if self.kind == "proj":
                for v in alg.quiver.vertices:
                    for p in alg.slice_basis(v, lab):
                        order[v].append((si, p))
            else:
                for v in alg.quiver.vertices:
                    for p in alg.slice_basis(lab, v):
                        order[v].append((si, p))
        index = {v: {key: i for i, key in enumerate(order[v])} for v in order}
        return order, index

    def to_rep(self):
        if self._rep is not None:
            return self._rep
        alg = self.alg
        field = alg.field
        pieces = {}
        meta = {}
        for n in self.degrees():
            mods = [_std_cached(alg, self.kind, x) for x in self.labels(n)]
            pieces[n], _ = direct_sum(mods)
            meta[n] = self.summand_basis(n)
        diffs = {}
        for n, d in self.diffs.items():
            src_order, _ = meta[n]
            _, tgt_index = meta[n + 1]
            mats = {}
            for v in alg.quiver.vertices:
                m = Matrix.zero(pieces[n + 1].dims[v], pieces[n].dims[v], field)
                for col, (j, p) in enumerate(src_order[v]):
                    for i in range(len(self.labels(n + 1))):
                        e = d[i][j]
                        if e.is_zero():
                            continue
                        if self.kind == "proj":
                            # basis path p: x_j -> v maps to p * e in P(y_i)
                            img = alg.multiply(p, e)
                            for q, c in img.terms.items():
                                m.entries[tgt_index[v][(i, q)]][col] = \
                                    m.entries[tgt_index[v][(i, q)]][col] + c
                        else:
                            # dual of left multiplication: coefficient of the
                            # I(x_j)-basis path p in e * q for q: v -> y_i
                            for q in alg.slice_basis(self.labels(n + 1)[i], v):
                                img = alg.multiply(e, q)
                                c = img.terms.get(p)
                                if c is not None:
                                    m.entries[tgt_index[v][(i, q)]][col] = \
                                        m.entries[tgt_index[v][(i, q)]][col] + c
                mats[v] = m
            diffs[n] = ModuleMorphism(pieces[n], pieces[n + 1], mats, check=False)
        self._rep = BoundedComplex(alg, pieces, diffs, check=False)
        return self._rep

    def total_rank(self):
        return sum(len(lab) for lab in self.pieces.values())


def generator_column(index, j, x):
    """Column of the generator e_x of summand j at vertex x, where
    ``index`` is the ``summand_basis(n)[1]`` of the summand's degree."""
    return index[x][(j, Path(x, x, ()))]


def nakayama(F):
    """nu(F): relabel P(x) -> I(x); differential entries transport as duals
    of left multiplication."""
    if F.kind != "proj":
        raise NotElementValued("nakayama needs a projective-labeled complex")
    return LabeledComplex(F.alg, dict(F.pieces),
                          {n: [row[:] for row in d] for n, d in F.diffs.items()},
                          "inj", check=False)


def inverse_nakayama(G):
    if G.kind != "inj":
        raise NotElementValued("inverse_nakayama needs an injective-labeled complex")
    return LabeledComplex(G.alg, dict(G.pieces),
                          {n: [row[:] for row in d] for n, d in G.diffs.items()},
                          "proj", check=False)


def tau(F, bound=DEFAULT_BOUND):
    """tau = nu o [-1] followed by re-resolution to perfect form."""
    return perfectify(nakayama(F).to_rep().shift(-1), bound=bound)


# ----------------------------------------------------------------------
# minimal projective resolutions


def projective_cover(M):
    """(labels, generators, ProjSum data, cover map onto M)."""
    alg = M.alg
    tr = top_and_radical(M)
    labels = []
    gens = []
    for v in alg.quiver.vertices:
        sect = tr.top_section[v]
        for j in range(sect.cols):
            labels.append(v)
            gens.append(sect.col(j))
    cover = LabeledComplex(alg, {0: labels}, {}, "proj", check=False)
    rep = cover.to_rep().piece(0)
    order, _ = cover.summand_basis(0)
    mats = {}
    for v in alg.quiver.vertices:
        m = Matrix.zero(M.dims[v], rep.dims[v], alg.field)
        for col, (i, p) in enumerate(order[v]):
            vec = M.path_action(p).apply(gens[i])
            for r in range(M.dims[v]):
                m.entries[r][col] = vec[r]
        mats[v] = m
    pi = ModuleMorphism(rep, M, mats, check=False)
    return labels, gens, cover, pi


def minimal_projective_resolution(M, bound=DEFAULT_BOUND):
    """Iterated projective covers; perfect complex in degrees -len..0.

    Raises GlobalDimensionExceeded if the syzygies do not vanish within
    ``bound`` steps.
    """
    alg = M.alg
    if M.total_dim() == 0:
        return LabeledComplex(alg, {}, {}, "proj", check=False)
    pieces = {}
    diffs = {}
    cur = M
    prev = None  # (cover LabeledComplex, inclusion Syz -> cover rep)
    deg = 0
    while True:
        labels, gens, cover, pi = projective_cover(cur)
        pieces[-deg] = labels
        if prev is not None:
            prev_cover, incl = prev
            order, _ = prev_cover.summand_basis(0)
            d = [[alg.zero_element() for _ in labels]
                 for _ in prev_cover.labels(0)]
            for j, x in enumerate(labels):
                # image of the j-th generator inside the previous cover
                vec = incl.mats[x].apply(gens[j])
                for r, (i, p) in enumerate(order[x]):
                    c = vec[r]
                    if c:
                        d[i][j] = d[i][j] + alg.element({p: c})
            diffs[-deg] = d
        syz, _, incl, _ = kernel_cokernel(pi)
        if syz.total_dim() == 0:
            break
        if deg >= bound:
            raise GlobalDimensionExceeded(bound, "resolving a module")
        prev = (cover, incl)
        cur = syz
        deg += 1
    return LabeledComplex(alg, pieces, diffs, "proj")


def resolve(obj, bound=DEFAULT_BOUND):
    """Perfect presentation of a Representation or BoundedComplex."""
    if isinstance(obj, LabeledComplex):
        return obj
    if isinstance(obj, Representation):
        return minimal_projective_resolution(obj, bound)
    return perfectify(obj, bound)


# ----------------------------------------------------------------------
# Hom complexes


def as_rep_complex(G):
    if isinstance(G, Representation):
        return stalk_complex(G)
    if isinstance(G, LabeledComplex):
        return G.to_rep()
    return G


class HomComplexData:
    """Coordinates of the total complex Hom(F, G) for F perfect."""

    def __init__(self, F, G):
        if F.kind != "proj":
            raise NotElementValued("left Hom argument must be projective-labeled")
        self.F = F
        self.G = as_rep_complex(G)
        self.alg = F.alg

    def slots(self, n):
        """[(p, j, label, dim)] for C^n = sum_p sum_j G^{p+n}_{x_j}."""
        out = []
        for p in self.F.degrees():
            Gp = self.G.piece(p + n)
            if Gp.is_zero():
                continue
            for j, x in enumerate(self.F.labels(p)):
                out.append((p, j, x, Gp.dims[x]))
        return out

    def degree_range(self):
        if self.F.is_zero() or self.G.is_zero():
            return []
        fdeg = self.F.degrees()
        gdeg = self.G.degrees()
        return list(range(gdeg[0] - fdeg[-1], gdeg[-1] - fdeg[0] + 1))

    def delta(self, n):
        """Matrix of the differential C^n -> C^{n+1}."""
        alg = self.alg
        field = alg.field
        src = self.slots(n)
        tgt = self.slots(n + 1)
        src_off = {}
        t = 0
        for (p, j, x, d) in src:
            src_off[(p, j)] = t
            t += d
        tgt_off = {}
        u = 0
        for (p, j, x, d) in tgt:
            tgt_off[(p, j)] = u
            u += d
        M = Matrix.zero(u, t, field)
        sign = field.from_int((-1) ** (n % 2))
        for (p, j, x, d) in src:
            off = src_off[(p, j)]
            # d_G term: same (p, j) slot upstairs
            if (p, j) in tgt_off:
                dg = self.G.diff(p + n).mats[x]
                for r in range(dg.rows):
                    for c in range(dg.cols):
                        if dg.entries[r][c]:
                            M.entries[tgt_off[(p, j)] + r][off + c] = \
                                M.entries[tgt_off[(p, j)] + r][off + c] + dg.entries[r][c]
            # -(-1)^n phi o d_F term: slot (p-1, j') receives from (p, j)
            dprev = self.F.diffs.get(p - 1)
            if dprev is not None:
                Gtarget = self.G.piece(p + n)
                for j2, x2 in enumerate(self.F.labels(p - 1)):
                    if (p - 1, j2) not in tgt_off:
                        continue
                    e = dprev[j][j2]
                    if e.is_zero():
                        continue
                    act = Gtarget.element_action(e)  # G_{x} -> G_{x2}
                    for r in range(act.rows):
                        for c in range(act.cols):
                            v = act.entries[r][c]
                            if v:
                                M.entries[tgt_off[(p - 1, j2)] + r][off + c] = \
                                    M.entries[tgt_off[(p - 1, j2)] + r][off + c] - sign * v
        return M


def hom_profile(F, G):
    """HomProfile: degree i -> dim Hom_D(F, G[i]); F perfect."""
    data = HomComplexData(F, G)
    rng = data.degree_range()
    dims, ranks = {}, {}
    for n in rng:
        dn = data.delta(n)
        dims[n], ranks[n] = dn.cols, rank(dn)
    out = {}
    for n in rng:
        h = dims[n] - ranks[n] - ranks.get(n - 1, 0)
        if h:
            out[n] = h
    return out


def chain_map_space(F, G, s):
    """Representatives of H^s Hom(F, G): chain maps F_rep -> G[s].

    Returns (dim, [ChainMap]) with ChainMaps from F.to_rep() to
    as_rep_complex(G).shift(s) (so each representative is an honest
    degree-0 chain map).
    """
    data = HomComplexData(F, G)
    Grep = data.G
    alg = data.alg
    field = alg.field
    dn = data.delta(s)
    K = kernel_basis(dn)
    dprev = data.delta(s - 1)
    # image columns of dprev, then pick kernel columns independent mod image
    stacked = hstack([dprev, K]) if dprev.cols else K
    _, pivots = rref(stacked)
    imcols = dprev.cols
    reps_idx = [p - imcols for p in pivots if p >= imcols]
    hdim = len(reps_idx)

    Fs = F.to_rep()
    Gs = Grep.shift(s)
    slots = {n: data.slots(n) for n in [s]}
    chain_maps = []
    meta = {n: F.summand_basis(n) for n in F.degrees()}
    for ci in reps_idx:
        vec = K.col(ci)
        # unpack slot values
        off = 0
        vals = {}
        for (p, j, x, d) in slots[s]:
            vals[(p, j)] = vec[off:off + d]
            off += d
        comps = {}
        for p in F.degrees():
            order, _ = meta[p]
            Gp = Grep.piece(p + s)
            mats = {}
            for v in alg.quiver.vertices:
                m = Matrix.zero(Gp.dims[v], Fs.piece(p).dims[v], field)
                for col, (j, path) in enumerate(order[v]):
                    val = vals.get((p, j))
                    if val is None:
                        continue
                    img = Gp.path_action(path).apply(val)
                    for r in range(len(img)):
                        m.entries[r][col] = img[r]
                mats[v] = m
            comps[p] = ModuleMorphism(Fs.piece(p), Gs.piece(p), mats, check=False)
        chain_maps.append(ChainMap(Fs, Gs, comps, check=False))
    return hdim, chain_maps


ISO_TRIALS = 8
_ISO_SEED = 174


def iso_up_to_shift(F, Y, s):
    """Semi-decision of F[s] being isomorphic to Y in the derived category.

    F must be projective-labeled.  Returns True, False, or
    "not_witnessed" (candidate space of dim > 1 where no tested
    combination produced an acyclic cone).
    """
    Yrep = as_rep_complex(Y)
    Fs = F.to_rep().shift(s)
    if Fs.is_zero() and Yrep.is_zero():
        return True
    dim, cands = chain_map_space(F, Yrep, -s)
    if dim == 0:
        return False
    trials = []
    for cm in cands:
        # reindex: chain map F_rep -> Yrep[-s] becomes F_rep[s] -> Yrep
        comps = {p - s: ModuleMorphism(Fs.piece(p - s), Yrep.piece(p - s),
                                       cm.comp(p).mats, check=False)
                 for p in list(cm.comps)}
        trials.append(ChainMap(Fs, Yrep, comps, check=False))
    for t in trials:
        if cone(t).is_acyclic():
            return True
    if dim > 1:
        rng = random.Random(_ISO_SEED)
        for _ in range(ISO_TRIALS):
            coeffs = [rng.randint(-5, 5) for _ in trials]
            if all(c == 0 for c in coeffs):
                coeffs[0] = 1
            comb = None
            for c, t in zip(coeffs, trials):
                part = _scale_chain_map(t, F.alg.field.from_int(c))
                comb = part if comb is None else _add_chain_maps(comb, part)
            if cone(comb).is_acyclic():
                return True
        return "not_witnessed"
    return False


def _scale_chain_map(t, c):
    return ChainMap(t.source, t.target,
                    {n: f.scale(c) for n, f in t.comps.items()}, check=False)


def _add_chain_maps(a, b):
    degs = set(a.comps) | set(b.comps)
    return ChainMap(a.source, a.target,
                    {n: a.comp(n) + b.comp(n) for n in degs}, check=False)


# ----------------------------------------------------------------------
# perfectification of bounded complexes


def _lift_through(R, P, q, h):
    """Element-valued chain map g: R -> P with q g homotopic to h.

    R, P projective-labeled; q: P.to_rep() -> T and h: R.to_rep() -> T
    are dictionaries degree -> ModuleMorphism into a BoundedComplex T.
    Returns (g_diff_dict, s_dict) where s is the homotopy (degree ->
    generator-value vectors).  Raises if no solution exists.
    """
    alg = R.alg
    field = alg.field
    T = q["T"]
    qc = q["comps"]
    hc = h

    # unknown layout
    unknowns = []  # (kind, key) kind in {"g","s"}
    g_index = {}
    for n in R.degrees():
        for j, x in enumerate(R.labels(n)):
            for i, y in enumerate(P.labels(n)):
                for p in alg.slice_basis(x, y):
                    g_index[(n, i, j, p)] = len(unknowns)
                    unknowns.append(("g", (n, i, j, p)))
    s_index = {}
    for n in R.degrees():
        for j, x in enumerate(R.labels(n)):
            d = T.piece(n - 1).dims[x]
            for r in range(d):
                s_index[(n, j, r)] = len(unknowns)
                unknowns.append(("s", (n, j, r)))
    N = len(unknowns)
    rows = []
    rhs = []

    Pmeta = {n: P.summand_basis(n) for n in P.degrees()}
    Rindex = {n: R.summand_basis(n)[1] for n in hc}

    # homotopy equations: q g - h = d_T s + s d_R, evaluated on generators
    for n in R.degrees():
        for j, x in enumerate(R.labels(n)):
            dim = T.piece(n).dims[x]
            block = [[field.zero()] * N for _ in range(dim)]
            bvec = [field.zero()] * dim
            # q g term
            if n in P.pieces and dim:
                _, pidx = Pmeta[n]
                qm = qc.get(n)
                if qm is not None:
                    for i, y in enumerate(P.labels(n)):
                        for p in alg.slice_basis(x, y):
                            colv = qm.mats[x].col(pidx[x][(i, p)])
                            ui = g_index[(n, i, j, p)]
                            for r in range(dim):
                                block[r][ui] = block[r][ui] + colv[r]
            # -h term -> rhs
            hm = hc.get(n)
            if hm is not None and dim:
                col = hm.mats[x].col(generator_column(Rindex[n], j, x))
                for r in range(dim):
                    bvec[r] = bvec[r] + col[r]
            # -d_T s term
            if dim:
                dT = T.diff(n - 1).mats[x]
                for r in range(dim):
                    for c in range(dT.cols):
                        v = dT.entries[r][c]
                        if v:
                            ui = s_index[(n, j, c)]
                            block[r][ui] = block[r][ui] - v
            # -s d_R term: s^{n+1} applied to d_R(e_x)
            dR = R.diffs.get(n)
            if dR is not None and dim:
                Tn = T.piece(n)
                for i2, y2 in enumerate(R.labels(n + 1)):
                    e = dR[i2][j]
                    if e.is_zero():
                        continue
                    act = Tn.element_action(e, source=y2, target=x)
                    for c in range(act.cols):
                        ui = s_index.get((n + 1, i2, c))
                        if ui is None:
                            continue
                        for r in range(dim):
                            v = act.entries[r][c]
                            if v:
                                block[r][ui] = block[r][ui] - v
            rows.extend(block)
            rhs.extend(bvec)

    # closedness equations: d_P g = g d_R (element coefficients)
    for n in R.degrees():
        dPn = P.diffs.get(n)
        for j, x in enumerate(R.labels(n)):
            for ell, z in enumerate(P.labels(n + 1)):
                coeffs = {}  # basis path -> row template dict unknown->coef
                # d_P g
                if dPn is not None:
                    for i, y in enumerate(P.labels(n)):
                        e2 = dPn[ell][i]
                        if e2.is_zero():
                            continue
                        for p in alg.slice_basis(x, y):
                            prod = alg.multiply(p, e2)
                            ui = g_index[(n, i, j, p)]
                            for t, c in prod.terms.items():
                                coeffs.setdefault(t, {}).setdefault(ui, field.zero())
                                coeffs[t][ui] = coeffs[t][ui] + c
                # - g d_R
                dRn = R.diffs.get(n)
                if dRn is not None:
                    for i2, y2 in enumerate(R.labels(n + 1)):
                        e1 = dRn[i2][j]
                        if e1.is_zero():
                            continue
                        for p in alg.slice_basis(y2, z):
                            prod = alg.multiply(e1, p)
                            ui = g_index.get((n + 1, ell, i2, p))
                            if ui is None:
                                continue
                            for t, c in prod.terms.items():
                                coeffs.setdefault(t, {}).setdefault(ui, field.zero())
                                coeffs[t][ui] = coeffs[t][ui] - c
                for t, du in coeffs.items():
                    row = [field.zero()] * N
                    for ui, c in du.items():
                        row[ui] = c
                    rows.append(row)
                    rhs.append(field.zero())

    sol = solve(Matrix(len(rows), N, rows, field), rhs) if rows else [field.zero()] * N
    if sol is None:
        raise EngineInvariantViolation("chain-map lifting system inconsistent")

    g = {}
    for n in R.degrees():
        if n not in P.pieces:
            continue
        d = [[alg.zero_element() for _ in R.labels(n)] for _ in P.labels(n)]
        for j, x in enumerate(R.labels(n)):
            for i, y in enumerate(P.labels(n)):
                terms = {}
                for p in alg.slice_basis(x, y):
                    c = sol[g_index[(n, i, j, p)]]
                    if c:
                        terms[p] = c
                if terms:
                    d[i][j] = alg.element(terms)
        g[n] = d
    svals = {}
    for n in R.degrees():
        for j, x in enumerate(R.labels(n)):
            dim = T.piece(n - 1).dims[x]
            svals[(n, j)] = [sol[s_index[(n, j, r)]] for r in range(dim)]
    return g, svals


def _labeled_cone(g, R, P):
    """Cone of an element-valued chain map g: R -> P (both proj-labeled)."""
    alg = R.alg
    field = alg.field
    degs = sorted({n - 1 for n in R.pieces} | set(P.pieces))
    pieces = {}
    for n in degs:
        pieces[n] = list(R.labels(n + 1)) + list(P.labels(n))
    diffs = {}
    minus = field.from_int(-1)
    for n in degs:
        if n + 1 not in pieces:
            continue
        nr, np_ = len(R.labels(n + 1)), len(P.labels(n))
        mr, mp = len(R.labels(n + 2)), len(P.labels(n + 1))
        d = [[alg.zero_element() for _ in range(nr + np_)] for _ in range(mr + mp)]
        dR = R.diffs.get(n + 1)
        if dR is not None:
            for i in range(mr):
                for j in range(nr):
                    d[i][j] = dR[i][j].scale(minus)
        gn = g.get(n + 1)
        if gn is not None:
            for i in range(mp):
                for j in range(nr):
                    d[mr + i][j] = gn[i][j]
        dP = P.diffs.get(n)
        if dP is not None:
            for i in range(mp):
                for j in range(np_):
                    d[mr + i][nr + j] = dP[i][j]
        diffs[n] = d
    return LabeledComplex(alg, pieces, diffs, "proj")


def _cone_quasi_iso(newP, R, P, qcomps, svals, aug, Ck, T, Tnext, k):
    """Chain map cone(g) -> sigma_{>=k} C: q on the P part, the lifting
    homotopy s on the R part above degree k, the augmentation in degree k.

    The cone's differential is [[-d_R, 0], [g, d_P]].  On the R part in
    degree n > k the chain-map identity reads q g = d_T s + s d_R; in
    degree k, where T^k = 0, it reads d^k aug = q g - s d_R.  Both are the
    equations q g - h = d_T s + s d_R solved by ``_lift_through`` (h =
    d^k aug in degree k+1), so s and aug enter with sign +1.
    """
    alg = newP.alg
    field = alg.field
    newrep = newP.to_rep()
    rindex = R.summand_basis(k + 1)[1]
    pidx = {n: P.summand_basis(n)[1] for n in P.degrees()}
    norder = {n: newP.summand_basis(n)[0] for n in newP.degrees()}
    comps = {}
    for n in newrep.degrees():
        tgt = Tnext.piece(n)
        nr = len(R.labels(n + 1))
        m = {}
        for v in alg.quiver.vertices:
            mat = Matrix.zero(tgt.dims[v], newrep.piece(n).dims[v], field)
            for col, (si, path) in enumerate(norder[n][v]):
                if si < nr:
                    x = R.labels(n + 1)[si]
                    if n == k:
                        genvec = aug.mats[x].col(generator_column(rindex, si, x))
                        out = Ck.path_action(path).apply(genvec)
                    else:
                        sv = svals.get((n + 1, si), [])
                        if sv:
                            out = T.piece(n).path_action(path).apply(sv)
                        else:
                            out = [field.zero()] * tgt.dims[v]
                    for r in range(len(out)):
                        mat.entries[r][col] = out[r]
                else:
                    qm = qcomps.get(n)
                    if qm is not None:
                        cval = qm.mats[v].col(pidx[n][v][(si - nr, path)])
                        for r in range(len(cval)):
                            mat.entries[r][col] = cval[r]
            m[v] = mat
        comps[n] = ModuleMorphism(newrep.piece(n), tgt, m, check=False)
    try:
        return ChainMap(newrep, Tnext, comps, check=True)
    except NotChainMap as e:
        raise EngineInvariantViolation("cone map is not a chain map: %s" % e) from e


def perfectify(C, bound=DEFAULT_BOUND):
    """Projective-labeled complex quasi-isomorphic to a BoundedComplex.

    Descending induction on degrees: the brutal truncation at the top
    degree is resolved, and each further degree is attached by lifting
    the connecting map through the quasi-isomorphism built so far and
    taking the labeled mapping cone.  The result is certified: the cone
    of the final quasi-isomorphism must be acyclic.
    """
    if isinstance(C, LabeledComplex):
        return C
    if isinstance(C, Representation):
        return minimal_projective_resolution(C, bound)
    alg = C.alg
    field = alg.field
    if C.is_zero():
        return LabeledComplex(alg, {}, {}, "proj", check=False)
    degs = C.degrees()
    kmax = degs[-1]
    top = C.piece(kmax)
    res = minimal_projective_resolution(top, bound)
    P = res.shift(-kmax)
    # quasi-iso q: P -> sigma_{>=kmax} C (augmentation in degree kmax)
    labels0, gens0, cover0, pi0 = projective_cover(top)
    qcomps = {kmax: ModuleMorphism(P.to_rep().piece(kmax), top, pi0.mats, check=False)}
    T = C.brutal_truncate_above(kmax)
    for k in range(kmax - 1, min(degs) - 1, -1):
        Ck = C.piece(k)
        Tnext = C.brutal_truncate_above(k)
        if Ck.total_dim() == 0:
            T = Tnext
            continue
        resk = minimal_projective_resolution(Ck, bound)
        _, _, _, aug = projective_cover(Ck)
        R = resk.shift(-k - 1)
        # h: R -> T is d^k o aug concentrated in degree k+1
        Rrep = R.to_rep()
        augm = ModuleMorphism(Rrep.piece(k + 1), Ck, aug.mats, check=False)
        dk = C.diff(k)
        h = {k + 1: ModuleMorphism(Rrep.piece(k + 1), T.piece(k + 1),
                                   {v: dk.mats[v] * augm.mats[v] for v in Ck.dims},
                                   check=False)}
        g, svals = _lift_through(R, P, {"T": T, "comps": qcomps}, h)
        newP = _labeled_cone(g, R, P)
        newq = _cone_quasi_iso(newP, R, P, qcomps, svals, aug, Ck, T, Tnext, k)
        P = newP
        qcomps = newq.comps
        T = Tnext
    final = ChainMap(P.to_rep(), T, qcomps, check=False)
    if not cone(final).is_acyclic():
        raise EngineInvariantViolation("perfectify result is not quasi-isomorphic")
    return P


# ----------------------------------------------------------------------
# duality, injective models and inverse translate


def dual_rep(M, op):
    """D(M): the dual of M as a module over the opposite algebra."""
    maps = {a.name: M.maps[a.name].transpose() for a in M.alg.quiver.arrows}
    return Representation(op, dict(M.dims), maps, check=False)


def dual_rep_complex(X, op):
    """D(X): dual complex over the opposite algebra, degrees negated."""
    pieces = {-n: dual_rep(X.piece(n), op) for n in X.degrees()}
    diffs = {}
    for n in list(X.diffs):
        d = X.diff(n)
        src, tgt = pieces[-n - 1], pieces[-n]
        mats = {v: d.mats[v].transpose() for v in src.dims}
        diffs[-n - 1] = ModuleMorphism(src, tgt, mats, check=False)
    return BoundedComplex(op, pieces, diffs, check=False)


def _reverse_element(alg, e):
    """Transport an element of the opposite algebra back (reverse each path)."""
    out = alg.zero_element()
    q = alg.quiver
    for p, c in e.terms.items():
        rp = q.path(list(reversed(p.arrows))) if p.arrows else \
            q.trivial_path(p.source)
        out = out + alg.reduce_path(rp).scale(c)
    return out


def dual_of_op_perfect(P, alg):
    """D(P) for a projective-labeled complex P over alg's opposite: an
    injective-labeled complex over alg with negated degrees."""
    pieces = {-n: list(lab) for n, lab in P.pieces.items()}
    diffs = {}
    for n, d in P.diffs.items():
        src, tgt = P.pieces[n], P.pieces[n + 1]
        m = -n - 1
        dd = [[None] * len(tgt) for _ in src]
        for i in range(len(tgt)):
            for j in range(len(src)):
                dd[j][i] = _reverse_element(alg, d[i][j])
        diffs[m] = dd
    return LabeledComplex(alg, pieces, diffs, "inj")


def injective_model(X, bound=DEFAULT_BOUND):
    """Injective-labeled complex quasi-isomorphic to X."""
    if isinstance(X, LabeledComplex):
        X = X.to_rep()
    if isinstance(X, Representation):
        X = stalk_complex(X)
    op = X.alg.opposite()
    P = perfectify(dual_rep_complex(X, op), bound)
    return dual_of_op_perfect(P, X.alg)


def tau_inverse(F, bound=DEFAULT_BOUND):
    """tau^{-1} = nu^{-1} o [1] on a perfect complex."""
    if not isinstance(F, LabeledComplex):
        raise NotElementValued("tau_inverse needs a projective-labeled complex")
    return inverse_nakayama(injective_model(F, bound)).shift(1)


# ----------------------------------------------------------------------
# JSON serialization of labeled complexes


def complex_to_json(C):
    if not isinstance(C, LabeledComplex):
        raise NotElementValued("only labeled complexes serialize to JSON")
    out = {"kind": C.kind, "pieces": {}, "diffs": {}}
    for n in C.degrees():
        out["pieces"][str(n)] = list(C.labels(n))
    for n, d in sorted(C.diffs.items()):
        out["diffs"][str(n)] = [
            [[{"coeff": scalar_to_str(c), "path": list(p.arrows),
               "at": p.source}
              for p, c in sorted(e.terms.items(),
                                 key=lambda t: C.alg.quiver.path_sort_key(t[0]))]
             for e in row]
            for row in d]
    return out


def complex_from_json(alg, d):
    try:
        kind = d.get("kind", "proj")
        pieces = {int(n): [str(x) for x in lab]
                  for n, lab in d["pieces"].items()}
        diffs = {}
        for n, rows in d.get("diffs", {}).items():
            mat = []
            for row in rows:
                erow = []
                for terms in row:
                    t = {}
                    for term in terms:
                        at = term.get("at")
                        p = alg.quiver.path(
                            [str(x) for x in term["path"]],
                            source=str(at) if at is not None else None)
                        t[p] = t.get(p, alg.field.zero()) + \
                            alg.field.parse(str(term.get("coeff", "1")))
                    erow.append(Element(t, alg.field))
                mat.append(erow)
            diffs[int(n)] = mat
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("malformed complex file: %s" % e)
    return LabeledComplex(alg, pieces, diffs, kind)
