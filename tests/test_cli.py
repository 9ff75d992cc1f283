"""End-to-end tests for the command line interface.

Core claims:
    - documented examples print the documented outputs
    - exit codes: 0 ok, 2 usage, 3 budget, 4 verification failure, 5 parse
    - machine output is byte-identical across runs
    - verify writes certificates that check-cert replays
    - check-cert tests a certificate's claim, not only its arithmetic, and
      names the offending field or relator of a bad document
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linkhom

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
    ):
        err = _proc(*argv, expect=2).stderr
        assert err.startswith("usage: ") and err.count("\n") == 1, (argv, err)


def test_budget_error_is_3():
    _run("dim", "--space", "bhl", "-k", "9", "-d", "3", expect=3)
    _run("enumerate", "--space", "chord", "-d", "8", expect=3)


def test_budget_override_loosens():
    # (2,4) is outside a tightened budget, inside the default one
    _run("dim", "--space", "bhl", "-k", "2", "-d", "4")
    _run("dim", "--space", "bhl", "-k", "2", "-d", "4", "--budget-d", "3", expect=3)


def test_parse_error_is_5(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    _run("reduce", "--input", str(bad), "-k", "3", expect=5)
    _run("lk", "--input", str(tmp_path / "missing.gauss"), expect=5)


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


def test_hopf_check_small():
    doc = json.loads(_run("hopf-check", "--chord-degree", "1",
                          "--forest-degree", "2", "--json"))
    assert doc["ok"] is True
    assert doc["chord_pairs"] > 0
    assert doc["connect_sum_pairs"] > 0


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


def _check(tmp_path, doc, expect):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    err = _proc("check-cert", "--cert", str(path), expect=expect).stderr
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
], ids=["empty", "not-object", "no-k", "no-d", "no-target", "no-combination",
        "no-residual", "k-string", "d-negative", "non-hex-key", "no-key",
        "bad-coeff", "relator-not-string", "zero-denominator"])
def test_check_cert_malformed_is_5(tmp_path, cert_k3_d2, change, field):
    err = _check(tmp_path, change(cert_k3_d2[0]), expect=5)
    assert err.startswith("parse error: ") and field in err, err


def test_check_cert_unknown_relator_is_4(tmp_path, cert_k3_d2):
    doc, _ = cert_k3_d2
    combination = doc["combination"] + [{"relator": "ihx:nope:0", "coeff": "1"}]
    err = _check(tmp_path, _with(doc, combination=combination), expect=4)
    assert "'ihx:nope:0'" in err


@pytest.mark.parametrize("change", [
    lambda doc, keys: {"k": 3, "d": 2, "target": [], "combination": [], "residual": []},
    # the tripod is the only compound forest of bhl(3, 2); the rest are segments
    lambda doc, keys: _with(doc, target=[{"key": min(set(keys) - {doc["target"][0]["key"]}),
                                           "coeff": "1"}]),
    lambda doc, keys: _with(doc, d=3),
    lambda doc, keys: _with(doc, target=[{"key": doc["target"][0]["key"], "coeff": "2"}]),
    lambda doc, keys: _with(doc, target=doc["target"] + [{"key": keys[0], "coeff": "1"}]),
], ids=["vacuous", "segment-only", "wrong-degree", "coefficient-2", "two-forests"])
def test_check_cert_wrong_claim_is_4(tmp_path, cert_k3_d2, change):
    doc, keys = cert_k3_d2
    err = _check(tmp_path, change(doc, keys), expect=4)
    assert err.startswith("verification failure: "), err

