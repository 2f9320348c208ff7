"""Command-line surface: exit codes, JSON shape, determinism."""

import contextlib
import json
import os
import signal
import subprocess
import sys

import pytest

import sphq
from sphq import spherelike
from sphq.algebra import algebra_from_json
from sphq.cli import load_algebra, main, parse_object
from sphq.corpus import FIXTURE_DIR
from sphq.derived import complex_from_json, is_minimal
from sphq.reps import projective_module, rep_to_json, simple_module
from sphq.spherelike import interval_modules


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test, rather than hang, when the body runs too long."""
    def expire(signum, frame):
        pytest.fail("still running after %d s" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_fixture(capsys):
    code, out, _ = run(capsys, "build", "cb2")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 5
    assert data["gldim"] == 2


def test_build_file(tmp_path, capsys):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({
        "quiver": {"vertices": ["1", "2"],
                   "arrows": [{"id": "a", "from": "1", "to": "2"}]},
        "relations": [],
    }))
    code, out, _ = run(capsys, "build", str(path))
    assert code == 0
    assert json.loads(out)["dim"] == 3


def test_cap_insufficient_is_input_error(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({
        "quiver": {"vertices": ["1", "2"],
                   "arrows": [{"id": "a", "from": "1", "to": "2"},
                              {"id": "b", "from": "2", "to": "1"}]},
        "relations": [],
        "length_cap": 1,
    }))
    code, out, err = run(capsys, "build", str(path))
    assert code == 2
    assert json.loads(err)["error"]["code"] == "input"


@pytest.mark.parametrize("field,coeff", [
    ({"kind": "rational"}, "1/0"),
    ({"kind": "prime", "p": 3}, "1/3"),
])
def test_zero_denominator_is_input_error(tmp_path, capsys, field, coeff):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "field": field,
        "quiver": {"vertices": ["1", "2", "3"],
                   "arrows": [{"id": "a", "from": "1", "to": "2"},
                              {"id": "b", "from": "2", "to": "3"}]},
        "relations": [[{"coeff": coeff, "path": ["a", "b"]}]],
    }))
    code, out, err = run(capsys, "build", str(path))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "input"


def test_unknown_vertex_is_input_error(capsys):
    code, _, err = run(capsys, "spherelike", "cb2", "--object", "S:9")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "input"


@pytest.mark.parametrize("spec, vertex", [("S:", ""), ("S:9", "9")])
def test_unknown_vertex_error_names_the_vertex(capsys, spec, vertex):
    code, out, err = run(capsys, "hom", "cb3", "--from", spec, "--to", "S:1")
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "input"
    assert repr(vertex) in error["message"]


def test_d_zero_is_computation_error(capsys):
    code, _, err = run(capsys, "asphericality", "cb2",
                       "--object", "interval:2,3")
    assert code == 3
    assert json.loads(err)["error"]["code"] == "computation"


def test_resolution_past_the_bound(tmp_path, capsys):
    """ci(2) has infinite global dimension: resolving a simple stops after
    40 steps with a computation error, and build leaves gldim uncertified."""
    path = tmp_path / "ci2.json"
    assert run(capsys, "family", "ci:2", "--out", str(path))[0] == 0
    for argv in (("spherelike", str(path), "--object", "S:1"),
                 ("hom", str(path), "--from", "S:1", "--to", "S:2")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == {
            "code": "computation",
            "message": "resolution exceeded bound 40 (resolving a module)"}
    code, out, _ = run(capsys, "build", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["gldim"] is None and data["gldim_certified"] is False


def test_spherelike_report(capsys):
    code, out, _ = run(capsys, "spherelike", "cb3", "--object", "S:1")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "d_spherical"
    assert data["d"] == 3


def test_asphericality_of_spherical_object_is_zero(capsys):
    """Q of a spherical object is acyclic, so its minimal model is 0."""
    code, out, _ = run(capsys, "asphericality", "cb3", "--object", "S:1")
    assert code == 0
    data = json.loads(out)
    assert data["acyclic"] is True
    assert data["pieces"] == {}


def test_hom_profile(capsys):
    code, out, _ = run(capsys, "hom", "cb3", "--from", "S:1", "--to", "S:1")
    assert code == 0
    assert json.loads(out)["profile"] == {"0": 1, "3": 1}


def test_euler_ncc(capsys):
    code, out, _ = run(capsys, "euler", "ncc")
    assert code == 0
    assert json.loads(out)["matrix"] == [[1, -2, 2], [0, 1, -2], [0, 0, 1]]


def test_scan_deterministic(capsys):
    code1, out1, _ = run(capsys, "scan", "cb3", "--set", "intervals")
    code2, out2, _ = run(capsys, "scan", "cb3", "--set", "intervals")
    assert code1 == code2 == 0
    assert out1 == out2


def test_family_and_member_pipeline(tmp_path, capsys):
    alg_path = tmp_path / "c75.json"
    emb_path = tmp_path / "emb.json"
    code, _, _ = run(capsys, "family", "circular:7,5",
                     "--out", str(alg_path), "--emb-out", str(emb_path))
    assert code == 0

    q_path = tmp_path / "q.json"
    desc = "induced:%s:S:1" % emb_path
    code, out, _ = run(capsys, "asphericality", str(alg_path),
                       "--object", desc, "--out", str(q_path))
    assert code == 0
    assert json.loads(out)["acyclic"] is False
    alg = algebra_from_json(json.loads(alg_path.read_text()))
    assert is_minimal(complex_from_json(alg, json.loads(q_path.read_text())))

    code, out, _ = run(capsys, "member", str(alg_path),
                       "--object", "S:1", "--q", str(q_path))
    assert code == 0 and json.loads(out)["member"] is True
    code, out, _ = run(capsys, "member", str(alg_path),
                       "--object", "S:4", "--q", str(q_path))
    assert code == 0 and json.loads(out)["member"] is False


def test_poset_dot_output(tmp_path, capsys):
    dot = tmp_path / "h.dot"
    code, out, _ = run(capsys, "poset", "family:dda:2,3,0",
                       "--verify", "--dot", str(dot))
    assert code == 0
    data = json.loads(out)
    assert data["stats"] == {"cardinality": 3, "height": 2, "width": 2}
    assert data["verified"]["passed"] == data["verified"]["checked"]
    assert dot.read_text().startswith("digraph hasse {")


def test_poset_synth_file(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"elements": ["1", "2"], "less": [["1", "2"]]}))
    code, out, _ = run(capsys, "poset", "synth:%s" % p, "--verify")
    assert code == 0
    assert json.loads(out)["stats"]["cardinality"] == 2


def test_insert_command(capsys):
    code, out, _ = run(capsys, "insert", "cb2", "--vertex", "1", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["quiver"]["vertices"]) == 3


@pytest.mark.parametrize("argv", [
    ("insert", "cb2", "--vertex", "1", "--n", "-1"),
    ("tack", "cb2", "--tree", "TREE", "--sink", "t", "--mult", "[1]"),
    ("tack", "cb2", "--tree", "TREE", "--sink", "t", "--mult", '{"2": "x"}'),
    ("tack", "cb2", "--tree", "TREE", "--sink", "t", "--mult", '{"9": 1}'),
    ("tack", "cb2", "--tree", "TREE", "--sink", "t", "--mult", '{"2": -1}'),
    ("tack", "cb2", "--tree", "TREE", "--sink", "t", "--mult", '{"2": true}'),
], ids=["insert-negative-n", "tack-mult-list", "tack-mult-string",
        "tack-unknown-vertex", "tack-negative-mult", "tack-mult-bool"])
def test_bad_construction_parameters_are_input_errors(tmp_path, capsys, argv):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"quiver": {"vertices": ["t"], "arrows": []},
                                "relations": []}))
    code, out, err = run(capsys, *(a.replace("TREE", str(tree)) for a in argv))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "input"


def test_tack_command(tmp_path, capsys):
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({"quiver": {"vertices": ["t"], "arrows": []},
                                "relations": []}))
    code, out, _ = run(capsys, "tack", "cb2", "--tree", str(tree),
                       "--sink", "t", "--mult", '{"2": 2}')
    assert code == 0
    arrows = json.loads(out)["quiver"]["arrows"]
    assert len([a for a in arrows if a["from"] == "t"]) == 2


BAD_FAMILY_PARAMETERS = [
    (("poset", "family:dda:1,2"), "dda needs r,n,m, got '1,2'"),
    (("poset", "family:dda:1,x,0"), "dda needs r,n,m, got '1,x,0'"),
    (("poset", "family:dda:2,3"), "dda needs r,n,m, got '2,3'"),
    (("poset", "family:canonical:2,x"),
     "canonical needs p_1,...,p_t, got '2,x'"),
    (("poset", "family:cb:2"), "cb"),
    (("family", "dda:1,2"), "dda needs r,n,m, got '1,2'"),
    (("family", "dda:2,3"), "dda needs r,n,m, got '2,3'"),
    (("family", "dda:1,2,0,4"), "dda needs r,n,m, got '1,2,0,4'"),
    (("family", "canonical:2,x"), "canonical needs p_1,...,p_t, got '2,x'"),
    (("family", "circular:"), "circular needs n,r_1,...,r_t, got ''"),
    (("family", "circular:7,x"), "circular needs n,r_1,...,r_t, got '7,x'"),
    (("family", "cb:x"), "cb needs n, got 'x'"),
    (("family", "ci:3,4"), "ci needs d, got '3,4'"),
    (("family", "kronecker:"), "kronecker needs k, got ''"),
    (("family", "tensor:cb3"), "tensor needs file1,file2, got 'cb3'"),
]


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=" ".join(argv))
    for argv, message in BAD_FAMILY_PARAMETERS])
def test_bad_family_parameters_are_input_errors(capsys, argv, message):
    """Malformed parameters are input errors whose message names the
    parameters the family takes."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error == {"code": "input", "message": message}


def test_bad_family_is_input_error(capsys):
    code, _, err = run(capsys, "family", "nope:1")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "input"


@pytest.mark.parametrize("argv", [
    ("poset", "family:dda"), ("poset", "family:canonical"),
    ("family", "cb"), ("family", "ci"), ("family", "circular"),
    ("family", "dda"), ("family", "tensor"),
], ids=lambda argv: " ".join(argv))
def test_family_spec_without_params_is_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "input"


@pytest.mark.parametrize("maps", [
    {"a1": [[1, 0]]},    # one row of length 2 for a 1 x 1 map
    {"a1": [[1], [2]]},  # two rows for a 1 x 1 map
])
def test_rep_file_with_misshapen_matrix_is_input_error(tmp_path, capsys, maps):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"dims": {"1": 1, "2": 1}, "maps": maps}))
    code, out, err = run(capsys, "hom", "cb3", "--from", "file:%s" % path,
                         "--to", "S:1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "input"


def test_rep_file_breaking_a_relation_is_input_error(tmp_path, capsys):
    """Over cb3, a1 = a2 = [[1]] leaves the path a1 a2 acting as 1, not 0,
    so the relation check of Representation rejects the file."""
    path = tmp_path / "rep.json"
    path.write_text(json.dumps({"dims": {"1": 1, "2": 1, "3": 1},
                                "maps": {"a1": [[1]], "a2": [[1]]}}))
    code, out, err = run(capsys, "hom", "cb3", "--from", "file:%s" % path,
                         "--to", "S:1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "input"


HOM_FROM = ("hom", "cb3", "--to", "S:1", "--from")
with open(os.path.join(FIXTURE_DIR, "cb2.json")) as fh:
    CB2 = json.load(fh)
CB2_OBJECT = ("spherelike", "cb2", "--object", "file:{}")


@pytest.mark.parametrize("argv, content", [
    (("build", "{}"), 5),
    (("build", "{}"), [1]),
    (HOM_FROM + ("file:{}",), 5),
    (HOM_FROM + ("induced:{}:S:1",), [1]),
    (HOM_FROM + ("induced:{}:S:1",),
     {"small": "cb2", "vertex_map": [1], "arrow_paths": {}}),
    (HOM_FROM + ("induced:{}:S:1",),
     {"small": "cb2", "vertex_map": {"1": "1", "2": "2"}, "arrow_paths": 5}),
    (HOM_FROM + ("induced:{}:S:1",),
     {"small": "cb2", "vertex_map": {"1": "1", "2": "2"},
      "arrow_paths": {"a1": 5}}),
    (HOM_FROM + ("file:{}",), {"pieces": [["1"]]}),
    (HOM_FROM + ("file:{}",), {"pieces": {"0": ["1"]}, "diffs": 5}),
    (HOM_FROM + ("file:{}",), {"pieces": {"0": "12"}}),
    (HOM_FROM + ("file:{}",),
     {"pieces": {"0": ["1"], "1": ["2"]}, "diffs": {"0": [["x"]]}}),
    (HOM_FROM + ("file:{}",), {"kind": "projective", "pieces": {"0": ["1"]}}),
    (HOM_FROM + ("file:{}",),
     {"pieces": {"0": ["2"]}, "diffs": {"0": [[[{"path": ["a2"]}]]]}}),
    (HOM_FROM + ("file:{}",),
     {"pieces": {"0": ["2"], "1": ["1"]},
      "diffs": {"0": [[[{"path": ["a2"]}]]]}}),
    (("spherelike", "cb2", "--object", "file:{}"), {"pieces": {"0": ["9"]}}),
    (HOM_FROM + ("file:{}",), {"kind": "inj", "pieces": {"0": ["1"],
                                                        "1": ["9"]}}),
    (HOM_FROM + ("file:{}",), {"dims": {"1": 1, "9": 1}}),
    (HOM_FROM + ("file:{}",), {"dims": {"1": -1}}),
    (("poset", "synth:{}"), {"elements": ["1", "2"], "less": 5}),
    (("poset", "synth:{}"), {"elements": ["1", "2"], "less": [["1"]]}),
    (("poset", "synth:{}"), {"elements": 5, "less": []}),
    (("poset", "synth:{}"), {"elements": ["1", "2"], "less": [["1", "3"]]}),
    (CB2_OBJECT, {"dims": {"1": 1.5}}),
    (CB2_OBJECT, {"dims": {"1": "1"}}),
    (CB2_OBJECT, {"dims": {"1": True}}),
    (CB2_OBJECT, {"dims": [1]}),
    (CB2_OBJECT, {"dims": {"1": 1}, "maps": []}),
    (("build", "{}"), dict(CB2, length_cap=8.5)),
    (("build", "{}"), dict(CB2, length_cap="8")),
    (("build", "{}"), dict(CB2, field={"kind": "prime", "p": 7.9})),
    (("build", "{}"), dict(CB2, field={"kind": "prime", "p": "7"})),
    (("build", "{}"), dict(CB2, field=5)),
    (("build", "{}"), dict(CB2, field={"kind": "prime", "p": 2 ** 61 - 1})),
], ids=["algebra-number", "algebra-list", "file-number", "embedding-list",
        "vertex-map-list", "arrow-paths-number", "arrow-path-number",
        "pieces-list", "diffs-number", "labels-string", "term-string",
        "unknown-kind", "diff-without-target", "entry-outside-slice",
        "proj-label-not-a-vertex", "inj-label-not-a-vertex",
        "dims-key-not-a-vertex", "negative-dim",
        "synth-less-number", "synth-less-short-pair", "synth-elements-number",
        "synth-less-non-element",
        "dim-float", "dim-string", "dim-bool", "dims-list", "maps-list",
        "length-cap-float", "length-cap-string", "field-p-float",
        "field-p-string", "field-number", "field-p-too-large"])
def test_misshapen_json_file_is_input_error(tmp_path, capsys, argv, content):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(content))
    with time_limit(10):
        code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "input"


@pytest.mark.parametrize("argv", [
    ("build", "DIR"),
    ("spherelike", "cb3", "--object", "file:DIR"),
    ("asphericality", "cb3", "--object", "S:1", "--out", "DIR"),
], ids=["algebra-path", "object-file", "out-path"])
def test_directory_path_is_input_error(tmp_path, capsys, argv):
    """A directory where a file is read or written; the tests run as
    root, so an unreadable or unwritable file cannot stand in for it."""
    code, out, err = run(capsys, *(a.replace("DIR", str(tmp_path))
                                   for a in argv))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "input"


def test_negative_dimbound_is_input_error(tmp_path, capsys):
    path = tmp_path / "cb2_gf3.json"
    path.write_text(json.dumps(dict(CB2, field={"kind": "prime", "p": 3})))
    code, out, err = run(capsys, "scan", str(path), "--set", "dimbound:-1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "input"
    code, out, _ = run(capsys, "scan", str(path), "--set", "dimbound:0")
    assert code == 0
    assert json.loads(out)["reports"] == []


def test_complex_file_with_nonzero_d_squared_is_input_error(tmp_path, capsys):
    # P(2) -> P(1) -> P(3) on cb3 with entries a1, a3: a3 * a1 != 0
    path = tmp_path / "cx.json"
    path.write_text(json.dumps({
        "pieces": {"0": ["2"], "1": ["1"], "2": ["3"]},
        "diffs": {"0": [[[{"path": ["a1"]}]]], "1": [[[{"path": ["a3"]}]]]},
    }))
    code, out, err = run(capsys, "hom", "cb3", "--from", "file:%s" % path,
                         "--to", "S:1")
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "input"


@pytest.mark.parametrize("argv, echoed", [
    (("hom", "cb3", "--to", "S:1", "--from"), "from"),
    (("spherelike", "cb3", "--object"), "object"),
], ids=["hom", "spherelike"])
def test_injective_labeled_file_acts_as_its_module(tmp_path, capsys, argv,
                                                   echoed):
    """A one-piece injective-labeled complex I(1) works as an object and a
    Hom source, where it is resolved like the module I:1."""
    path = tmp_path / "inj.json"
    path.write_text(json.dumps({"kind": "inj", "pieces": {"0": ["1"]}}))
    results = []
    for desc in ("file:%s" % path, "I:1"):
        code, out, _ = run(capsys, *argv, desc)
        assert code == 0
        data = json.loads(out)
        assert data.pop(echoed) == desc
        results.append(data)
    assert results[0] == results[1]


def test_cli_imports_only_the_standard_library():
    """A fresh interpreter without site packages: every top-level module
    that importing sphq.cli loads is sphq or in the standard library."""
    script = ("import json, sys\n"
              "before = set(sys.modules)\n"
              "import sphq.cli\n"
              "print(json.dumps(sorted({m.split('.')[0] for m in "
              "set(sys.modules) - before})))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphq.__file__)))
    out = subprocess.run([sys.executable, "-I", "-S", "-c",
                          "import sys; sys.path.insert(0, %r)\n%s"
                          % (src, script)],
                         capture_output=True, text=True, check=True).stdout
    loaded = json.loads(out)
    assert "sphq" in loaded
    assert [m for m in loaded
            if m != "sphq" and m not in sys.stdlib_module_names] == []


def test_interval_object_builds_only_its_vertex(monkeypatch):
    """interval:v,len builds vertex v's radical spans and at most the one
    quotient asked for, and gives the module interval_modules lists; the
    length-1 interval is the shared S(v) and the longest the shared P(v),
    neither built as a quotient."""
    alg = load_algebra("cb3")
    listed = dict(interval_modules(alg))
    built, quotients = [], []
    real_spans, real_interval = spherelike._radical_spans, spherelike._interval

    def spans(alg, v):
        built.append(v)
        return real_spans(alg, v)

    def interval(P, span):
        quotients.append(P)
        return real_interval(P, span)

    monkeypatch.setattr(spherelike, "_radical_spans", spans)
    monkeypatch.setattr(spherelike, "_interval", interval)
    for desc, M in listed.items():
        built.clear()
        quotients.clear()
        got = parse_object(alg, desc)
        assert rep_to_json(got) == rep_to_json(M)
        v, ell = desc[len("interval:"):].split(",")
        assert built == [v]
        if got is projective_module(alg, v):
            assert quotients == []
        elif ell == "1":
            assert got is M is simple_module(alg, v)
            assert quotients == []
        else:
            assert len(quotients) == 1


@pytest.mark.parametrize("desc", ["interval:9,1", "interval:3,4", "interval:3,0",
                                  "interval:3,03", "interval:3,", "interval:",
                                  "interval:3,-1", "interval:3,1,1"])
def test_unknown_interval_is_input_error(capsys, desc):
    code, out, err = run(capsys, "spherelike", "cb3", "--object", desc)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {
        "code": "input", "message": "no interval module %r" % (desc,)}
