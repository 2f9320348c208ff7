"""Command-line surface: algebra files in, deterministic JSON reports out."""

import argparse
import json
import os
import sys

from .algebra import algebra_from_json, algebra_to_json, json_int
from .constructions import (Embedding, canonical, cb, ci, circular, dda,
                            induce, insert_An, kronecker, tack, tensor_algebra)
from .corpus import FIXTURE_DIR, run_corpus
from .derived import (complex_from_json, complex_to_json, hom_profile,
                      perfectify, resolve)
from .errors import (CapInsufficient, NotAcyclic, NotAdmissible, NotASink,
                     SchemaError, SphqError, FamilyParameterError,
                     UnknownArrow, UnknownVertex, UnsupportedCandidateSet,
                     UnsupportedFamily, WitnessFailed)
from .ktheory import euler_matrix, k_class, perp_lattice, vertex_order
from .poset import build_poset, hasse_dot, verify_edges
from .reps import rep_from_json, standard_module
from .spherelike import (asphericality, certify_finite_gldim,
                         classify_spherelike, in_spherical_subcat,
                         interval_module, scan)

INPUT_ERRORS = (SchemaError, CapInsufficient, NotAdmissible, UnknownVertex,
                UnknownArrow, FamilyParameterError, UnsupportedFamily,
                UnsupportedCandidateSet, NotASink, NotAcyclic,
                OSError, json.JSONDecodeError, ValueError, KeyError)


def _read_json(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SchemaError("%s does not hold a JSON object" % (path,))
    return data


def load_algebra(spec):
    """An algebra file path, or the name of a shipped fixture."""
    if os.path.exists(spec):
        name = os.path.splitext(os.path.basename(spec))[0]
        return algebra_from_json(_read_json(spec), name=name)
    fx = os.path.join(FIXTURE_DIR, spec + ".json")
    if os.path.exists(fx):
        return algebra_from_json(_read_json(fx), name=spec)
    raise SchemaError("no algebra file or fixture named %r" % (spec,))


def parse_object(alg, desc):
    """Object mini-language: S:v | P:v | I:v | interval:v,len | file:path |
    induced:emb.json:desc."""
    if desc.startswith("S:"):
        return standard_module(alg, "simple", desc[2:])
    if desc.startswith("P:"):
        return standard_module(alg, "projective", desc[2:])
    if desc.startswith("I:"):
        return standard_module(alg, "injective", desc[2:])
    if desc.startswith("interval:"):
        v, _, ell = desc[len("interval:"):].rpartition(",")
        M = None
        if v in alg.quiver.arrows_out and ell.isdecimal() \
                and "interval:%s,%d" % (v, int(ell)) == desc:
            M = interval_module(alg, v, int(ell))
        if M is None:
            raise SchemaError("no interval module %r" % (desc,))
        return M
    if desc.startswith("file:"):
        data = _read_json(desc[5:])
        if "pieces" in data:
            return complex_from_json(alg, data)
        return rep_from_json(alg, data)
    if desc.startswith("induced:"):
        rest = desc[len("induced:"):]
        emb_path, _, inner = rest.partition(":")
        if not inner:
            raise SchemaError("induced descriptor needs induced:emb.json:desc")
        emb, small = load_embedding(emb_path, alg)
        obj = parse_object(small, inner)
        return induce(emb, resolve(obj))
    raise SchemaError("unknown object descriptor %r" % (desc,))


def load_embedding(path, big):
    data = _read_json(path)
    small_spec = data.get("small")
    if isinstance(small_spec, str):
        small = load_algebra(small_spec)
    elif isinstance(small_spec, dict):
        small = algebra_from_json(small_spec)
    else:
        raise SchemaError("embedding file needs a 'small' algebra")
    vertex_map, arrow_paths = data["vertex_map"], data["arrow_paths"]
    if not (isinstance(vertex_map, dict) and isinstance(arrow_paths, dict) and
            all(isinstance(p, list) for p in arrow_paths.values())):
        raise SchemaError("embedding 'vertex_map' must be an object, and "
                          "'arrow_paths' must map arrows to arrow lists")
    emb = Embedding(small, big,
                    {str(k): str(v) for k, v in vertex_map.items()},
                    {str(k): [str(x) for x in v] for k, v in arrow_paths.items()})
    return emb, small


def embedding_to_json(emb):
    d = emb.to_json()
    d["small"] = algebra_to_json(emb.small)
    return d


def _emit(args, data, text_lines=None):
    if getattr(args, "text", False) and text_lines is not None:
        print("\n".join(text_lines))
    else:
        print(json.dumps(data, sort_keys=True, indent=2))


def _write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# subcommands


def cmd_build(args):
    alg = load_algebra(args.algebra)
    try:
        gldim = certify_finite_gldim(alg)
        certified = True
    except SphqError:
        gldim, certified = None, False
    data = {
        "name": alg.name,
        "dim": alg.total_dim,
        "vertices": list(alg.quiver.vertices),
        "arrows": [a.name for a in alg.quiver.arrows],
        "basis": [p.label() for p in alg.basis],
        "gldim": gldim,
        "gldim_certified": certified,
    }
    _emit(args, data, [
        "algebra %s: dim %d, %d vertices, %d arrows, gldim %s" % (
            alg.name, alg.total_dim, len(alg.quiver.vertices),
            len(alg.quiver.arrows), gldim if certified else "not certified"),
        "basis: " + " ".join(data["basis"]),
    ])
    return 0


def cmd_hom(args):
    alg = load_algebra(args.algebra)
    F = resolve(parse_object(alg, args.source))
    G = parse_object(alg, args.target)
    prof = hom_profile(F, G)
    data = {"from": args.source, "to": args.target,
            "profile": {str(i): d for i, d in sorted(prof.items())}}
    _emit(args, data, ["Hom^i(%s, %s):" % (args.source, args.target)] +
          ["  i=%d: %d" % (i, d) for i, d in sorted(prof.items())])
    return 0


def cmd_spherelike(args):
    alg = load_algebra(args.algebra)
    rep = classify_spherelike(parse_object(alg, args.object), args.object)
    data = rep.to_json()
    _emit(args, data, ["%s: %s%s" % (args.object, rep.verdict,
                                     "" if rep.d is None else " (d=%d)" % rep.d)])
    return 0


def cmd_asphericality(args):
    alg = load_algebra(args.algebra)
    rep = classify_spherelike(parse_object(alg, args.object), args.object)
    Qp = perfectify(asphericality(rep.complex, rep))
    acyclic = rep.is_spherical()
    data = {"object": args.object, "verdict": rep.verdict, "d": rep.d,
            "acyclic": acyclic,
            "pieces": {str(n): Qp.labels(n) for n in Qp.degrees()}}
    if args.out:
        _write_json(args.out, complex_to_json(Qp))
        data["written"] = args.out
    _emit(args, data, ["Q_{%s}: %s" % (
        args.object, "acyclic (spherical)" if acyclic else
        "pieces " + str(data["pieces"]))])
    return 0


def cmd_member(args):
    alg = load_algebra(args.algebra)
    A = parse_object(alg, args.object)
    Q = complex_from_json(alg, _read_json(args.q))
    member = in_spherical_subcat(A, Q)
    data = {"object": args.object, "q": args.q, "member": member}
    _emit(args, data, ["%s in perp(Q): %s" % (args.object, member)])
    return 0


def cmd_scan(args):
    alg = load_algebra(args.algebra)
    which = args.set
    if which == "simples":
        reports = scan(alg, "all_simples")
    elif which == "intervals":
        reports = scan(alg, "all_interval_modules")
    elif which.startswith("dimbound:"):
        reports = scan(alg, "all_indecomposables_up_to_dimvector",
                       dim_bound=int(which.split(":", 1)[1]))
    else:
        raise SchemaError("unknown candidate set %r" % (which,))
    data = {"algebra": alg.name, "set": which,
            "reports": [r.to_json() for r in reports]}
    _emit(args, data, ["%s: %s%s" % (r.desc, r.verdict,
                                     "" if r.d is None else " (d=%d)" % r.d)
                       for r in reports])
    return 0


def cmd_insert(args):
    alg = load_algebra(args.algebra)
    big, emb = insert_An(alg, args.vertex, args.n)
    data = algebra_to_json(big)
    if args.emb_out:
        _write_json(args.emb_out, embedding_to_json(emb))
    if args.out:
        _write_json(args.out, data)
    _emit(args, data, ["inserted A_%d at %s: dim %d" % (
        args.n, args.vertex, big.total_dim)])
    return 0


def cmd_tack(args):
    alg = load_algebra(args.algebra)
    tdata = _read_json(args.tree)
    tree_alg = algebra_from_json(tdata)
    if tree_alg.relations:
        raise SchemaError("tacking tree must be relation-free")
    mult = json.loads(args.mult)
    if not isinstance(mult, dict):
        raise SchemaError("--mult must be a JSON object of vertex: count")
    for count in mult.values():
        json_int(count, "--mult count")
    big, emb = tack(alg, tree_alg.quiver, args.sink, mult)
    data = algebra_to_json(big)
    if args.emb_out:
        _write_json(args.emb_out, embedding_to_json(emb))
    if args.out:
        _write_json(args.out, data)
    _emit(args, data, ["tacked %s at sink %s: dim %d" % (
        args.tree, args.sink, big.total_dim)])
    return 0


def _family_bits(spec):
    """kind:params[:more] split on ':'; every family but kronecker needs
    its params."""
    bits = spec.split(":")
    if len(bits) < 2 and bits[0] != "kronecker":
        raise SchemaError("family spec %r needs parameters, as in %s:..."
                          % (spec, bits[0]))
    return bits


# What each family spec takes after "kind:", named in error messages.
_FAMILY_PARAMS = {"dda": "r,n,m", "canonical": "p_1,...,p_t", "cb": "n",
                  "ci": "d", "kronecker": "k", "circular": "n,r_1,...,r_t",
                  "tensor": "file1,file2"}


def _family_params(bits, count=None, convert=int):
    """The comma-separated parameters of bits[1] through ``convert``,
    ``count`` of them when given; a FamilyParameterError naming the
    parameters the family takes otherwise."""
    try:
        vals = [convert(x) for x in bits[1].split(",")]
    except ValueError:
        vals = None
    if vals is None or (count is not None and len(vals) != count):
        raise FamilyParameterError("%s needs %s, got %r"
                                   % (bits[0], _FAMILY_PARAMS[bits[0]], bits[1]))
    return vals


def _poset_family(bits):
    """("dda", r, n, m) or ("canonical", ps, lambdas) from the split bits
    of a family spec."""
    if bits[0] == "dda":
        return ("dda",) + tuple(_family_params(bits, 3))
    if bits[0] == "canonical":
        ps = tuple(_family_params(bits))
        lambdas = tuple(bits[2].split(",")) if len(bits) > 2 else ()
        return ("canonical", ps, lambdas)
    raise UnsupportedFamily(bits[0])


def _parse_family(spec):
    bits = _family_bits(spec)
    kind = bits[0]
    if kind == "dda":
        return dda(*_poset_family(bits)[1:])
    if kind == "canonical":
        return canonical(*_poset_family(bits)[1:]), None
    if kind == "cb":
        return cb(_family_params(bits, 1)[0]), None
    if kind == "ci":
        return ci(_family_params(bits, 1)[0]), None
    if kind == "kronecker":
        return kronecker(_family_params(bits, 1)[0] if len(bits) > 1 else 2), None
    if kind == "circular":
        params = _family_params(bits)
        alg, emb = circular(params[0], params[1:], with_embedding=True)
        return alg, emb
    if kind == "tensor":
        p1, p2 = _family_params(bits, 2, str)
        a1, a2 = load_algebra(p1), load_algebra(p2)
        if a1.relations or a2.relations:
            raise SchemaError("tensor factors must be relation-free")
        return tensor_algebra(a1.quiver, a2.quiver), None
    raise UnsupportedFamily(kind)


def cmd_family(args):
    alg, emb = _parse_family(args.spec)
    data = algebra_to_json(alg)
    if args.out:
        _write_json(args.out, data)
    if args.emb_out:
        if emb is None:
            raise SchemaError("family %r ships no embedding" % (args.spec,))
        _write_json(args.emb_out, embedding_to_json(emb))
    _emit(args, data, ["family %s: dim %d, %d vertices" % (
        args.spec, alg.total_dim, len(alg.quiver.vertices))])
    return 0


def cmd_induce(args):
    alg = load_algebra(args.algebra)
    emb, small = load_embedding(args.emb, alg)
    obj = parse_object(small, args.object)
    G = induce(emb, resolve(obj))
    data = complex_to_json(G)
    if args.out:
        _write_json(args.out, data)
    _emit(args, data, ["induced %s: pieces %s" % (
        args.object, {n: G.labels(n) for n in G.degrees()})])
    return 0


def cmd_euler(args):
    alg = load_algebra(args.algebra)
    E = euler_matrix(alg)
    data = {"vertices": vertex_order(alg), "matrix": E}
    _emit(args, data, [" ".join("%4d" % x for x in row) for row in E])
    return 0


def cmd_perp(args):
    alg = load_algebra(args.algebra)
    E = euler_matrix(alg)
    cls = k_class(resolve(parse_object(alg, args.cls)))
    basis, gram, anti = perp_lattice(E, [cls])
    data = {"class": cls, "basis": basis, "gram": gram, "antisymmetric": anti}
    _emit(args, data, ["class %s" % (cls,),
                       "basis %s" % (basis,),
                       "gram %s (antisymmetric=%s)" % (gram, anti)])
    return 0


def _parse_poset_spec(spec):
    if spec.startswith("family:"):
        return _poset_family(_family_bits(spec[len("family:"):]))
    if spec.startswith("synth:"):
        data = _read_json(spec[len("synth:"):])
        elements, less = data["elements"], data["less"]
        if not (isinstance(elements, list) and isinstance(less, list) and
                all(isinstance(p, list) and len(p) == 2 for p in less)):
            raise SchemaError("synth file needs an 'elements' list and a "
                              "'less' list of pairs")
        elements = [str(x) for x in elements]
        less = [(str(a), str(b)) for a, b in less]
        return ("synthesized", elements, less)
    raise SchemaError("poset spec must be family:... or synth:file.json")


def cmd_poset(args):
    poset = build_poset(_parse_poset_spec(args.spec))
    data = poset.to_json()
    if args.verify:
        data["verified"] = verify_edges(poset)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(hasse_dot(poset))
    _emit(args, data, [
        "poset %s: %s" % (args.spec, data["stats"]),
        "nodes: " + " ".join(sorted(poset.order)),
        "covers: " + " ".join("%s<%s" % c for c in poset.covers()),
    ])
    return 0


def cmd_corpus(args):
    if args.action != "run":
        raise SchemaError("unknown corpus action %r" % (args.action,))
    report = run_corpus()
    _emit(args, report, [
        "criterion %2d %-24s %s" % (r["criterion"], r["name"],
                                    "PASS" if r["pass"] else "FAIL")
        for r in report["results"]
    ] + ["overall: %s" % ("PASS" if report["pass"] else "FAIL")])
    return 0 if report["pass"] else 4


# ----------------------------------------------------------------------


def make_parser():
    p = argparse.ArgumentParser(prog="sphq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--text", action="store_true",
                        help="human-readable output instead of JSON")
        return sp

    sp = add("build", cmd_build, help="certify an algebra file; print basis and dimensions")
    sp.add_argument("algebra")

    sp = add("hom", cmd_hom, help="derived Hom profile between two objects")
    sp.add_argument("algebra")
    sp.add_argument("--from", dest="source", required=True)
    sp.add_argument("--to", dest="target", required=True)

    sp = add("spherelike", cmd_spherelike, help="classify one object")
    sp.add_argument("algebra")
    sp.add_argument("--object", required=True)

    sp = add("asphericality", cmd_asphericality,
             help="compute the asphericality complex Q of a spherelike object")
    sp.add_argument("algebra")
    sp.add_argument("--object", required=True)
    sp.add_argument("--out", help="write Q as a complex JSON file")

    sp = add("member", cmd_member,
             help="test membership of an object in perp(Q)")
    sp.add_argument("algebra")
    sp.add_argument("--object", required=True)
    sp.add_argument("--q", required=True, help="complex JSON file for Q")

    sp = add("scan", cmd_scan, help="classify a whole candidate set")
    sp.add_argument("algebra")
    sp.add_argument("--set", required=True,
                    help="simples | intervals | dimbound:N")

    sp = add("insert", cmd_insert, help="insert a chain of vertices at a vertex")
    sp.add_argument("algebra")
    sp.add_argument("--vertex", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out")
    sp.add_argument("--emb-out")

    sp = add("tack", cmd_tack, help="tack an acyclic tree at a sink")
    sp.add_argument("algebra")
    sp.add_argument("--tree", required=True, help="relation-free algebra JSON")
    sp.add_argument("--sink", required=True)
    sp.add_argument("--mult", required=True,
                    help='JSON object, e.g. \'{"2": 1}\'')
    sp.add_argument("--out")
    sp.add_argument("--emb-out")

    sp = add("family", cmd_family,
             help="build a named algebra family, e.g. circular:7,5 or dda:1,2,0")
    sp.add_argument("spec")
    sp.add_argument("--out")
    sp.add_argument("--emb-out")

    sp = add("induce", cmd_induce, help="induce an object along an embedding")
    sp.add_argument("algebra")
    sp.add_argument("--emb", required=True)
    sp.add_argument("--object", required=True)
    sp.add_argument("--out")

    sp = add("euler", cmd_euler, help="Euler matrix on simple classes")
    sp.add_argument("algebra")

    sp = add("perp", cmd_perp, help="orthogonal sublattice of a class")
    sp.add_argument("algebra")
    sp.add_argument("--class", dest="cls", required=True)

    sp = add("poset", cmd_poset,
             help="build a spherelike poset: family:dda:1,2,0 or synth:p.json")
    sp.add_argument("spec")
    sp.add_argument("--verify", action="store_true")
    sp.add_argument("--dot", help="write the Hasse diagram as DOT")

    sp = add("corpus", cmd_corpus, help="run the full acceptance suite")
    sp.add_argument("action", choices=["run"])
    return p


def _error_payload(code, exc):
    return {"error": {"code": code, "message": str(exc)}}


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WitnessFailed as e:
        print(json.dumps(_error_payload("verification", e), sort_keys=True),
              file=sys.stderr)
        return 4
    except INPUT_ERRORS as e:
        print(json.dumps(_error_payload("input", e), sort_keys=True),
              file=sys.stderr)
        return 2
    except SphqError as e:
        print(json.dumps(_error_payload("computation", e), sort_keys=True),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
