"""End-to-end tests for the command line interface.

Core claims:
    - documented examples print the documented outputs
    - exit codes: 0 ok, 2 usage, 3 budget, 4 verification failure, 5 parse
    - machine output is byte-identical across runs
    - verify writes certificates that check-cert replays
    - check-cert tests a certificate's claim, not only its arithmetic, and
      names the offending field or relator of a bad document
    - an unreadable input file or a negative budget is a one-line error, and
      a zero budget bounds its side
    - a certificate with any one relator id or field changed fails
      check-cert with a documented exit code and a one-line message
    - a budget flag for one side leaves the chord degree at its default
    - verify --certs rejects an unusable directory before it verifies
    - check-cert proves bhl certificates only and needs the space field
    - a target key or diagram document that encodes no valid diagram is a
      one-line error, exit 4 for check-cert and 5 for reduce and chi
    - JSON nested past the decoder's depth and diagrams too large to key
      exit 5 with one line, not a traceback
    - chi checks the ahl budget at the input's degree; reduce and chi take
      -k >= 1 and lk takes --fuzz >= 0, or exit 2 before reading the input
    - hopf-check counts the pairs it checks, pinned at two settings
    - hopf-check checks its budget before any work: the chord side at
      --chord-degree + 1, the forest side at --forest-k, --forest-degree
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import linkhom
from linkhom import cli
from linkhom.bases import enum_forests
from linkhom.interchange import serialize
from linkhom.lincomb import terms_doc
from test_diagrams import caterpillar

FIXTURES = Path(__file__).parent / "fixtures"

# children import the same linkhom as this process, installed or not
SRC = str(Path(linkhom.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

TRIPOD_DOC = {
    "k": 3,
    "vertices": [
        {"id": 0, "kind": "uni", "color": 1},
        {"id": 1, "kind": "uni", "color": 2},
        {"id": 2, "kind": "uni", "color": 3},
        {"id": 3, "kind": "tri", "rotation": [0, 1, 2]},
    ],
    "edges": [
        {"id": 0, "ends": [3, 0]},
        {"id": 1, "ends": [3, 1]},
        {"id": 2, "ends": [3, 2]},
    ],
}

TWO_SEGMENTS_DOC = {
    "k": 2,
    "vertices": [
        {"id": 0, "kind": "uni", "color": 1},
        {"id": 1, "kind": "uni", "color": 2},
        {"id": 2, "kind": "uni", "color": 1},
        {"id": 3, "kind": "uni", "color": 2},
    ],
    "edges": [
        {"id": 0, "ends": [0, 1]},
        {"id": 1, "ends": [2, 3]},
    ],
}


def _proc(*argv, expect=0):
    out = subprocess.run(
        [sys.executable, "-m", "linkhom.cli", *argv],
        capture_output=True, text=True, env=ENV,
    )
    assert out.returncode == expect, (argv, out.returncode, out.stderr)
    return out


def _run(*argv, expect=0):
    return _proc(*argv, expect=expect).stdout


# -- Documented examples --------------------------------------------------------

def test_dim_example():
    assert _run("dim", "--space", "bhl", "-k", "3", "-d", "2") == "6\n"


def test_reduce_tripod_example(tmp_path):
    path = tmp_path / "tripod.json"
    path.write_text(json.dumps(TRIPOD_DOC))
    assert _run("reduce", "--input", str(path), "-k", "3") == "0\n"


def test_reduce_two_segments(tmp_path):
    path = tmp_path / "segs.json"
    path.write_text(json.dumps(TWO_SEGMENTS_DOC))
    assert _run("reduce", "--input", str(path), "-k", "2") == "1*x12^2\n"


def test_lk_fixture_rows():
    out = _run("lk", "--input", str(FIXTURES / "hopf.gauss"))
    assert out == "0 1\n1 0\n"


def test_lk_pd_input():
    out = _run("lk", "--input", str(FIXTURES / "hopf.pd"), "--pd", "--json")
    assert json.loads(out) == {"lk": [[0, 1], [1, 0]]}


def test_lk_fuzz_stable():
    out = _run("lk", "--input", str(FIXTURES / "whitehead.gauss"),
               "--fuzz", "200", "--seed", "7", "--json")
    doc = json.loads(out)
    assert doc["lk"] == [[0, 0], [0, 0]]
    assert doc["fuzz"]["stable"] is True


# -- Exit codes --------------------------------------------------------------------

def test_usage_error_is_2():
    _run("dim", "--space", "nosuch", "-k", "3", "-d", "2", expect=2)
    _run("nosuch-command", expect=2)
    for argv in (
        ["dim", "--space", "bhl", "-k", "0", "-d", "2"],
        ["dim", "--space", "bhl", "-d", "2"],
        ["dim", "--space", "bhl", "-k", "3", "-d", "-1"],
        ["dim", "--space", "chord", "-d", "-1"],
        ["enumerate", "--space", "forest", "-k", "0", "-d", "2"],
        ["enumerate", "--space", "bounded", "-k", "3", "-d", "-1"],
        ["enumerate", "--space", "chord", "-d", "-1"],
        ["verify", "-k", "0", "--max-degree", "2"],
        ["verify", "-k", "3", "--max-degree", "-1"],
        # checked before the input, which does not exist
        ["reduce", "--input", "missing.json", "-k", "0"],
        ["chi", "--input", "missing.json", "-k", "-2"],
        ["lk", "--input", "missing.gauss", "--fuzz", "-5", "--json"],
    ):
        err = _proc(*argv, expect=2).stderr
        assert err.startswith("usage: ") and err.count("\n") == 1, (argv, err)


def test_budget_error_is_3():
    _run("dim", "--space", "bhl", "-k", "9", "-d", "3", expect=3)
    _run("enumerate", "--space", "chord", "-d", "8", expect=3)


@pytest.mark.parametrize("argv, field", [
    (["dim", "--space", "bhl", "-k", "300", "-d", "1", "--budget-k", "400"], "k 300"),
    (["verify", "-k", "256", "--max-degree", "1", "--budget-k", "256"], "k 256"),
    (["dim", "--space", "bhsl", "-k", "2", "-d", "128", "--budget-d", "128"],
     "vertex count 256"),
    (["dim", "--space", "ahl", "-k", "30", "-d", "4", "--budget-k", "30"],
     "bounded color bound 270"),
    (["enumerate", "--space", "bounded", "-k", "6", "-d", "21", "--budget-k", "6",
      "--budget-d", "21"], "bounded color bound 258"),
    (["dim", "--space", "chord", "-d", "129", "--budget-d", "129"], "endpoint index 257"),
], ids=["k", "verify-k", "vertex-count", "bounded-colors", "enumerate-bounded", "chord"])
def test_key_size_limit_is_a_budget_error(argv, field):
    err = _proc(*argv, expect=3).stderr
    assert err.startswith("budget: ") and "key-size limit" in err and field in err, err


@pytest.mark.parametrize("argv, expect", [
    (["dim", "--space", "bhl", "-k", "3", "-d", "2", "--budget-d", "0"], 3),
    (["dim", "--space", "bhl", "-k", "3", "-d", "2", "--budget-k", "0"], 3),
    (["dim", "--space", "chord", "-d", "2", "--budget-d", "0"], 3),
    (["verify", "-k", "3", "--max-degree", "2", "--budget-d", "0"], 3),
    (["dim", "--space", "bhl", "-k", "3", "-d", "0", "--budget-d", "0"], 0),
    (["dim", "--space", "bhl", "-k", "3", "-d", "2", "--budget-d", "-1"], 2),
    (["dim", "--space", "bhl", "-k", "3", "-d", "2", "--budget-k", "-1"], 2),
    (["enumerate", "--space", "chord", "-d", "2", "--budget-d", "-3"], 2),
    (["--budget-k", "-1", "verify", "-k", "3", "--max-degree", "2"], 2),
], ids=["d0", "k0", "chord-d0", "verify-d0", "degree-0-fits", "d-negative", "k-negative",
        "enumerate-negative", "verify-negative"])
def test_zero_and_negative_budgets(argv, expect):
    err = _proc(*argv, expect=expect).stderr
    prefix = {0: "", 2: "usage: ", 3: "budget: "}[expect]
    assert err.startswith(prefix) and err.count("\n") == (expect != 0), err


def test_chord_budget_k_alone_keeps_the_degree_default():
    # the k side has no meaning for chord; the degree stays bounded by 5
    out = subprocess.run([sys.executable, "-m", "linkhom.cli", "dim", "--space", "chord",
                          "-d", "9", "--budget-k", "1"],
                         capture_output=True, text=True, env=ENV, timeout=60)
    assert out.returncode == 3, out.stderr
    assert out.stderr == "budget: chord degree 9 exceeds budget 5\n", out.stderr


def test_budget_override_loosens():
    # (2,4) is outside a tightened budget, inside the default one
    _run("dim", "--space", "bhl", "-k", "2", "-d", "4")
    _run("dim", "--space", "bhl", "-k", "2", "-d", "4", "--budget-d", "3", expect=3)


def test_parse_error_is_5(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    _run("reduce", "--input", str(bad), "-k", "3", expect=5)
    _run("lk", "--input", str(tmp_path / "missing.gauss"), expect=5)


@pytest.mark.parametrize("argv", [
    ["check-cert", "--cert"],
    ["reduce", "-k", "3", "--input"],
    ["chi", "-k", "3", "--input"],
    ["lk", "--input"],
    ["lk", "--pd", "--input"],
], ids=["check-cert", "reduce", "chi", "lk", "lk-pd"])
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_input_is_5(tmp_path, argv, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    err = _proc(*argv, str(path), expect=5).stderr
    assert err.startswith(f"parse error: cannot read {path}: "), err
    assert "Traceback" not in err and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["check-cert", "--cert"],
    ["reduce", "-k", "3", "--input"],
    ["chi", "-k", "3", "--input"],
], ids=["check-cert", "reduce", "chi"])
def test_deeply_nested_json_is_5(tmp_path, argv):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000)
    err = _proc(*argv, str(path), expect=5).stderr
    assert err.startswith("parse error: not valid JSON: "), err
    assert "Traceback" not in err and err.count("\n") == 1, err


@pytest.mark.parametrize("legs", [200, 1500])
@pytest.mark.parametrize("command, expect", [("reduce", 5), ("chi", 3)])
def test_diagram_too_large_to_key(tmp_path, legs, command, expect):
    # reduce fails before keying; chi's budget check comes first
    path = tmp_path / "caterpillar.json"
    path.write_text(json.dumps(serialize(caterpillar(range(1, legs + 1), legs))))
    err = _proc(command, "--input", str(path), "-k", str(legs), expect=expect).stderr
    want = "parse error: diagram too large to encode" if expect == 5 else "budget: "
    assert err.startswith(want) and err.count("\n") == 1, err


def test_chi_checks_the_ahl_budget(tmp_path):
    # two tripods and a segment: degree 5 at k = 3, past the default budget
    legs = [1, 2, 3, 1, 2, 3, 1, 2]
    doc = {"k": 3,
           "vertices": [{"id": v, "kind": "uni", "color": c} for v, c in enumerate(legs)]
           + [{"id": 8, "kind": "tri"}, {"id": 9, "kind": "tri"}],
           "edges": [{"id": e, "ends": [8 + e // 3, e]} for e in range(6)]
           + [{"id": 6, "ends": [6, 7]}]}
    path = tmp_path / "degree5.json"
    path.write_text(json.dumps(doc))
    err = _proc("chi", "--input", str(path), "-k", "3", expect=3).stderr
    assert err.startswith("budget: ") and err.count("\n") == 1, err
    out = json.loads(_run("chi", "--input", str(path), "-k", "3", "--budget-d", "5", "--json"))
    # the budget binds the command only; the library's chi has none
    assert out and out == terms_doc(linkhom.chi(linkhom.parse(doc), 3))


def test_gauss_parse_error_is_5(tmp_path):
    bad = tmp_path / "bad.gauss"
    bad.write_text("+1^o\n")
    _run("lk", "--input", str(bad), expect=5)


def test_verification_failure_is_4(tmp_path):
    # a certificate whose combination does not reach its target
    cert = {
        "space": "bhl", "k": 2, "d": 1,
        "target": [{"key": "ff00", "coeff": "1"}],
        "combination": [],
        "residual": [],
    }
    path = tmp_path / "cert-bogus.json"
    path.write_text(json.dumps(cert))
    _run("check-cert", "--cert", str(path), expect=4)


# -- Stability -----------------------------------------------------------------------

def test_enumerate_byte_identical():
    a = _run("enumerate", "--space", "forest", "-k", "3", "-d", "2", "--json")
    b = _run("enumerate", "--space", "forest", "-k", "3", "-d", "2", "--json")
    assert a == b
    assert len(a.strip().split("\n")) == 7


def test_enumerate_chord_count():
    out = _run("enumerate", "--space", "chord", "-d", "3")
    assert len(out.strip().split("\n")) == 5


def test_dim_json_has_no_timing():
    out = json.loads(_run("dim", "--space", "bhl", "-k", "3", "-d", "2", "--json"))
    assert "seconds" not in out
    assert out["dim"] == 6
    assert _run("--json", "dim", "--space", "bhl", "-k", "3", "-d", "2") == \
        _run("dim", "--space", "bhl", "-k", "3", "-d", "2", "--json")


# -- Certificates round trip -----------------------------------------------------------

def test_verify_then_check_cert(tmp_path):
    outdir = tmp_path / "certs"
    summary = json.loads(_run("verify", "--theorem", "main", "-k", "3",
                              "--max-degree", "3", "--certs", str(outdir), "--json"))
    assert summary["certificates"] == 4
    files = sorted(outdir.glob("cert-*.json"))
    assert len(files) == 4
    for path in files:
        assert json.loads(_run("check-cert", "--cert", str(path), "--json"))["ok"] is True


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_verify_certs_unusable_path_is_2(tmp_path, monkeypatch, where):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    target = blocker if where == "file" else blocker / "certs"

    def verify(*args):
        raise AssertionError("the directory is checked before verification runs")
    monkeypatch.setattr(cli.spaces, "verify_main_theorem", verify)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", "-k", "3", "--max-degree", "2", "--certs", str(target)])
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith(f"usage: cannot write {target}: "), err.getvalue()
    assert err.getvalue().count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


def test_hopf_check_small():
    doc = json.loads(_run("hopf-check", "--chord-degree", "1",
                          "--forest-degree", "2", "--json"))
    assert doc["ok"] is True
    assert doc["chord_pairs"] > 0
    assert doc["connect_sum_pairs"] > 0


@pytest.mark.parametrize("argv, out", [
    ([], '{"chord_pairs":8,"connect_sum_pairs":5,"forest_pairs":51,"ok":true}\n'),
    (["--chord-degree", "3"],
     '{"chord_pairs":22,"connect_sum_pairs":19,"forest_pairs":51,"ok":true}\n'),
], ids=["defaults", "chord-3"])
def test_hopf_check_counts(argv, out):
    assert _run("--json", "hopf-check", *argv) == out


@pytest.mark.parametrize("argv, expect", [
    (["--chord-degree", "-3"], 2),
    (["--chord-degree", "-1"], 2),
    (["--forest-k", "0"], 2),
    (["--forest-k", "-2"], 2),
    (["--forest-degree", "-1"], 2),
    (["--chord-degree", "9"], 3),
    (["--chord-degree", "5"], 3),
    (["--chord-degree", "5", "--budget-d", "5"], 3),
    (["--forest-k", "6", "--forest-degree", "9"], 3),
    (["--forest-k", "300"], 3),
    (["--forest-k", "300", "--budget-k", "300"], 3),
], ids=["chord-negative", "chord-minus-1", "forest-k0", "forest-k-negative",
        "forest-degree-negative", "chord-9", "chord-5", "chord-5-budget-5",
        "forest-6-9", "forest-k300", "forest-k300-budget"])
def test_hopf_check_budget(argv, expect):
    # the chord side builds 4T spans one degree past --chord-degree; every
    # case must fail before any work, so a timeout means a missing check
    out = subprocess.run([sys.executable, "-m", "linkhom.cli", "hopf-check", *argv],
                         capture_output=True, text=True, env=ENV, timeout=60)
    prefix = {2: "usage: ", 3: "budget: "}[expect]
    assert out.returncode == expect, out.stderr
    assert out.stderr.startswith(prefix) and out.stderr.count("\n") == 1, out.stderr


# -- check-cert against malformed documents and wrong claims ---------------------------

@pytest.fixture(scope="module")
def cert_k3_d2(tmp_path_factory):
    """A certificate written by verify, and the keys of all bhl(3, 2) forests."""
    outdir = tmp_path_factory.mktemp("certs")
    _run("verify", "-k", "3", "--max-degree", "2", "--certs", str(outdir))
    docs = [json.loads(p.read_text()) for p in sorted(outdir.glob("cert-*.json"))]
    docs = [doc for doc in docs if doc["d"] == 2]
    keys = [json.loads(line)["key"] for line in
            _run("enumerate", "--space", "forest", "-k", "3", "-d", "2", "--json").split()]
    return docs[0], keys


def _with(doc, **fields):
    """doc with fields replaced; a field given as None is removed."""
    return {key: value for key, value in {**doc, **fields}.items() if value is not None}


def _check(tmp_path, doc, expect, *flags):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    err = _proc("check-cert", "--cert", str(path), *flags, expect=expect).stderr
    assert "Traceback" not in err and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("change, field", [
    (lambda doc: {}, "'k'"),
    (lambda doc: [doc], "JSON object"),
    (lambda doc: _with(doc, k=None), "'k'"),
    (lambda doc: _with(doc, d=None), "'d'"),
    (lambda doc: _with(doc, target=None), "'target'"),
    (lambda doc: _with(doc, combination=None), "'combination'"),
    (lambda doc: _with(doc, residual=None), "'residual'"),
    (lambda doc: _with(doc, k="3"), "'k'"),
    (lambda doc: _with(doc, d=-1), "'d'"),
    (lambda doc: _with(doc, target=[{"key": "zz", "coeff": "1"}]), "'target'"),
    (lambda doc: _with(doc, target=[{"coeff": "1"}]), "'target'"),
    (lambda doc: _with(doc, combination=[{"relator": "ihx:0", "coeff": "one"}]),
     "'combination'"),
    (lambda doc: _with(doc, combination=[{"relator": 7, "coeff": "1"}]), "'combination'"),
    (lambda doc: _with(doc, residual=[{"key": "00", "coeff": "1/0"}]), "'residual'"),
    (lambda doc: _with(doc, space=None), "'space'"),
    (lambda doc: _with(doc, space=["bhl"]), "'space'"),
], ids=["empty", "not-object", "no-k", "no-d", "no-target", "no-combination",
        "no-residual", "k-string", "d-negative", "non-hex-key", "no-key",
        "bad-coeff", "relator-not-string", "zero-denominator", "no-space",
        "space-not-string"])
def test_check_cert_malformed_is_5(tmp_path, cert_k3_d2, change, field):
    err = _check(tmp_path, change(cert_k3_d2[0]), expect=5)
    assert err.startswith("parse error: ") and field in err, err


def test_check_cert_unknown_relator_is_4(tmp_path, cert_k3_d2):
    doc, _ = cert_k3_d2
    combination = doc["combination"] + [{"relator": "ihx:nope:0", "coeff": "1"}]
    err = _check(tmp_path, _with(doc, combination=combination), expect=4)
    assert "'ihx:nope:0'" in err


@pytest.mark.parametrize("change", [
    lambda doc, keys: {"space": "bhl", "k": 3, "d": 2, "target": [], "combination": [],
                       "residual": []},
    # the tripod is the only compound forest of bhl(3, 2); the rest are segments
    lambda doc, keys: _with(doc, target=[{"key": min(set(keys) - {doc["target"][0]["key"]}),
                                           "coeff": "1"}]),
    lambda doc, keys: _with(doc, d=3),
    lambda doc, keys: _with(doc, target=[{"key": doc["target"][0]["key"], "coeff": "2"}]),
    lambda doc, keys: _with(doc, target=doc["target"] + [{"key": keys[0], "coeff": "1"}]),
    lambda doc, keys: _with(doc, space="ahl"),
], ids=["vacuous", "segment-only", "wrong-degree", "coefficient-2", "two-forests",
        "space-ahl"])
def test_check_cert_wrong_claim_is_4(tmp_path, cert_k3_d2, change):
    doc, keys = cert_k3_d2
    err = _check(tmp_path, change(doc, keys), expect=4)
    assert err.startswith("verification failure: "), err


# Keys of bhl(3, 2) that encode no valid diagram: k = 3 and four vertices, so
# only rebuilding the key can reject them.
INVALID_KEYS = {
    # an edge ends at vertex 4 of 0..3
    "missing-vertex": bytes([0x55, 3, 4, 3, 1, 2, 3, 0, 0, 3, 1, 3, 2, 4]),
    # leg 0 carries two edges and leg 2 none
    "leg-two-edges": bytes([0x55, 3, 4, 2, 1, 2, 1, 2, 0, 1, 0, 3]),
    # two internal vertices joined by three edges, a component without legs
    "no-leg-component": bytes([0x55, 3, 4, 4, 0, 0, 1, 2, 0, 1, 0, 1, 0, 1, 2, 3]),
    # the tripod's key without its last byte
    "truncated": bytes([0x55, 3, 4, 3, 1, 0, 2, 3, 0, 1, 1, 2, 1]),
}


@pytest.mark.parametrize("name", sorted(INVALID_KEYS))
def test_check_cert_invalid_target_key(tmp_path, cert_k3_d2, name):
    doc, _ = cert_k3_d2
    key = INVALID_KEYS[name]
    err = _check(tmp_path, _with(doc, target=[{"key": key.hex(), "coeff": "1"}]), expect=4)
    assert err.startswith("verification failure: target is not one basis forest"), err
    with pytest.raises(linkhom.DiagramError):
        linkhom.canonical_diagram(key)


@pytest.mark.parametrize("command", ["reduce", "chi"])
@pytest.mark.parametrize("name", ["missing-vertex", "leg-two-edges", "no-leg-component"])
def test_invalid_diagram_document_is_5(tmp_path, command, name):
    doc = json.loads(json.dumps(TRIPOD_DOC))
    if name == "missing-vertex":
        doc["edges"][2]["ends"] = [3, 9]
    elif name == "leg-two-edges":
        doc["edges"][2]["ends"] = [3, 0]
    else:
        doc["vertices"] = [{"id": 0, "kind": "tri"}, {"id": 1, "kind": "tri"},
                           {"id": 2, "kind": "uni", "color": 1},
                           {"id": 3, "kind": "uni", "color": 2}]
        doc["edges"] = [{"id": i, "ends": [0, 1]} for i in range(3)]
        doc["edges"].append({"id": 3, "ends": [2, 3]})
    path = tmp_path / "diagram.json"
    path.write_text(json.dumps(doc))
    err = _proc(command, "--input", str(path), "-k", "3", expect=5).stderr
    assert err.startswith("parse error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err, err


def test_check_cert_over_budget_is_3(tmp_path, cert_k3_d2):
    # the claimed cell is checked against the budget before the claim itself
    doc, _ = cert_k3_d2
    err = _check(tmp_path, _with(doc, k=7, d=5), 3)
    assert err.startswith("budget: "), err
    err = _check(tmp_path, doc, 3, "--budget-d", "1")
    assert err.startswith("budget: "), err
    err = _check(tmp_path, doc, 3, "--budget-k", "0")
    assert err.startswith("budget: "), err
    err = _check(tmp_path, doc, 2, "--budget-d", "-1")
    assert err.startswith("usage: "), err


# -- check-cert under mutation ---------------------------------------------------------

def _relabeled_key(hexkey, rng):
    """The key's bytes under a random vertex relabeling: same format and
    forest, labels that are not the canonical ones (unless the shuffle
    happens to keep every byte)."""
    key = bytes.fromhex(hexkey)
    k, n, m = key[1], key[2], key[3]
    perm = list(range(n))
    rng.shuffle(perm)
    colors = [0] * n
    for v in range(n):
        colors[perm[v]] = key[4 + v]
    edges = sorted(tuple(sorted((perm[key[4 + n + 2 * i]], perm[key[5 + n + 2 * i]])))
                   for i in range(m))
    return bytes([key[0], k, n, m, *colors, *(x for e in edges for x in e)]).hex()


def _mutate_id(rid, draw, other_keys):
    kind, name, index = rid.split(":")
    how = draw(st.sampled_from(["upper", "capitalized", "hex-space", "leading-zero", "sign",
                                "extra-colon", "double-colon", "other-prefix", "off-by-one",
                                "other-cell-key", "relabeled-key", "no-index", "empty"]))
    if how == "upper":
        return rid.upper()
    if how == "capitalized":
        return f"{kind.capitalize()}:{name}:{index}"
    if how == "hex-space":
        return f"{kind}:{name[:2]} {name[2:]}:{index}"
    if how == "leading-zero":
        return f"{kind}:{name}:0{index}"
    if how == "sign":
        return f"{kind}:{name}:+{index}"
    if how == "extra-colon":
        return rid + draw(st.sampled_from([":", ":0"]))
    if how == "double-colon":
        return f"{kind}::{name}:{index}"
    if how == "other-prefix":
        other = draw(st.sampled_from(["star", "ihx", "stu", "link1", "1t", "4t", "", "STAR"]))
        return f"{other}:{name}:{index}"
    if how == "off-by-one":
        return f"{kind}:{name}:{int(index) + draw(st.sampled_from([-1, 1]))}"
    if how == "other-cell-key":
        return f"{kind}:{draw(st.sampled_from(other_keys))}:{index}"
    if how == "relabeled-key":
        return f"{kind}:{_relabeled_key(name, draw(st.randoms()))}:{index}"
    if how == "no-index":
        return f"{kind}:{name}"
    return ""


def _mutate(doc, draw, other_keys):
    """A copy of a certificate document with one id or field changed."""
    doc = json.loads(json.dumps(doc))
    terms = doc["combination"]
    how = draw(st.sampled_from(["none", "id", "k", "d", "target-coeff", "coeff", "residual",
                                "repeated-target-key", "drop-term", "duplicate-term",
                                "drop-field", "field-type"]))
    if how == "id":
        term = draw(st.sampled_from(terms))
        term["relator"] = _mutate_id(term["relator"], draw, other_keys)
    elif how in ("k", "d"):
        doc[how] = draw(st.integers(0, 9))
    elif how == "target-coeff":
        doc["target"][0]["coeff"] = str(draw(st.fractions().filter(lambda c: c != 1)))
    elif how == "coeff":
        term = draw(st.sampled_from(terms))
        term["coeff"] = str(draw(st.fractions().filter(lambda c: c != Fraction(term["coeff"]))))
    elif how == "residual":
        doc["residual"] = doc["residual"] + [{"key": doc["target"][0]["key"],
                                              "coeff": str(draw(st.fractions().filter(bool)))}]
    elif how == "repeated-target-key":
        doc["target"] = doc["target"] * 2
    elif how == "drop-term":
        terms.pop(draw(st.integers(0, len(terms) - 1)))
    elif how == "duplicate-term":
        terms.append(dict(draw(st.sampled_from(terms))))
    elif how == "drop-field":
        del doc[draw(st.sampled_from(["space", "k", "d", "target", "combination", "residual"]))]
    elif how == "field-type":
        doc[draw(st.sampled_from(["space", "k", "d", "target", "combination", "residual"]))] = \
            draw(st.sampled_from(["3", None, 1.5, {}, [{}]]))
    return doc


@pytest.fixture(scope="module")
def certs_k3_d3(tmp_path_factory):
    """The certificates verify writes for bhl(3, 3), the basis keys of other
    cells, and a file to write mutated documents to."""
    outdir = tmp_path_factory.mktemp("certs33")
    _run("verify", "-k", "3", "--max-degree", "3", "--certs", str(outdir))
    docs = [json.loads(p.read_text()) for p in sorted(outdir.glob("cert-*.json"))]
    other_keys = [key.hex() for k, d in ((3, 2), (2, 3), (4, 3)) for key in enum_forests(k, d)]
    return docs, other_keys, outdir / "mutated.json"


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_cert_exit_codes_under_mutation(certs_k3_d3, data):
    docs, other_keys, path = certs_k3_d3
    doc = data.draw(st.sampled_from(docs))
    mutated = _mutate(doc, data.draw, other_keys)
    path.write_text(json.dumps(mutated))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["check-cert", "--cert", str(path)])
    assert code in (0, 2, 3, 4, 5)
    assert (code == 0) == (mutated == doc), (mutated, err.getvalue())
    assert err.getvalue().count("\n") == (code != 0), err.getvalue()
