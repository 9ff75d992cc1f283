"""Command line interface.

Exit codes: 0 ok, 2 usage, 3 budget exceeded, 4 verification failure,
5 parse error.  With --json the output is machine-readable and byte-stable
across runs; the human-readable default is informational only.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import contextmanager
from pathlib import Path

from . import bounded as bnd
from . import chords as ch
from . import gauss
from . import hopf
from . import interchange
from . import relators as rel
from . import spaces
from .bases import enum_forests
from .diagrams import canonical_diagram, inject
from .errors import BudgetError, DiagramError, ParseError, UsageError, VerificationError
from .lincomb import LinComb, doc_field, terms_doc
from .qlinalg import certificate_doc, certificate_from_doc, relator_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4
EXIT_PARSE = 5


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _budget(args):
    """The (k, d) budget the flags set, None without either; a flag left out
    is None on its side, which check_budget reads."""
    bk, bd = args.budget_k, args.budget_d
    for flag, value in (("--budget-k", bk), ("--budget-d", bd)):
        if value is not None and value < 0:
            raise UsageError(f"{flag} {value} is negative")
    if bk is None and bd is None:
        return None
    return (bk, bd)


def _read(path) -> str:
    """The text of an input file; an unreadable file is a parse error naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text at byte {exc.start}") from None


@contextmanager
def _writing(path):
    """An output path that cannot be written is a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_enumerate(args) -> int:
    space = args.space
    spaces.check_budget(space, args.k, args.d, _budget(args))
    if space == "chord":
        keys, doc = ch.enum_chord(args.d), lambda key: interchange.chord_doc(ch.chord_from_key(key))
    elif space == "forest":
        keys, doc = (enum_forests(args.k, args.d),
                     lambda key: interchange.serialize(canonical_diagram(key)))
    else:
        keys, doc = (bnd.enum_bounded(args.k, args.d),
                     lambda key: interchange.bounded_doc(bnd.bounded_from_key(key)))
    lines = [_dump({"key": key.hex(), "diagram": doc(key)}) for key in keys]
    print("\n".join(lines) if lines else "", end="\n" if lines else "")
    return EXIT_OK


def _cmd_dim(args) -> int:
    report = spaces.dim_space(args.space, args.k, args.d, _budget(args))
    print(_dump(report.to_doc()) if args.json else report.dim)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.theorem != "main":
        raise ParseError(f"unknown theorem {args.theorem!r}")
    budget = _budget(args)
    outdir = Path(args.certs) if args.certs else None
    if outdir:
        # the directory must be usable before the verification runs
        spaces.check_budget("bhl", args.k, args.max_degree, budget)
        with _writing(outdir):
            outdir.mkdir(parents=True, exist_ok=True)
    certs = spaces.verify_main_theorem(args.k, args.max_degree, budget)
    written = []
    if outdir:
        for cert in certs:
            key = cert.target.keys()[0]
            # a forest key's third byte is its vertex count, twice the degree
            doc = {"space": "bhl", "k": args.k, "d": key[2] // 2, **certificate_doc(cert)}
            path = outdir / f"cert-{key.hex()}.json"
            with _writing(path):
                path.write_text(_dump(doc) + "\n")
            written.append(path.name)
    summary = {"theorem": "main", "k": args.k, "max_degree": args.max_degree,
               "certificates": len(certs), "files": sorted(written)}
    print(_dump(summary) if args.json else
          f"ok: {len(certs)} certificates" + (f", written to {args.certs}" if args.certs else ""))
    return EXIT_OK


def _doc_int(doc, name, least):
    def parse(x):
        if type(x) is not int or x < least:
            raise ValueError(f"{x!r} is not an integer >= {least}")
        return x
    return doc_field(doc, name, parse)


def _doc_str(x):
    if not isinstance(x, str):
        raise TypeError(f"{x!r} is not a string")
    return x


def _cmd_check_cert(args) -> int:
    budget = _budget(args)
    doc = interchange._load(_read(args.cert))
    k, d = _doc_int(doc, "k", 1), _doc_int(doc, "d", 0)
    cert = certificate_from_doc(doc)
    space = doc_field(doc, "space", _doc_str)
    spaces.check_budget("bhl", k, d, budget)
    if space != "bhl":
        raise VerificationError(f"certificate claims space {space!r}; only bhl is checked")
    spaces.check_main_certificate(cert, k, d)
    print(_dump({"cert": Path(args.cert).name, "ok": True}) if args.json else "ok")
    return EXIT_OK


def _input_diagram(args):
    """The diagram document named by --input; its k must be the -k given."""
    if args.k < 1:
        raise UsageError(f"-k {args.k} is below 1")
    D = interchange.parse(_read(args.input))
    if D.k != args.k:
        raise ParseError(f"diagram has k={D.k}, expected {args.k}")
    return D


def _cmd_reduce(args) -> int:
    L = inject(_input_diagram(args))
    monomials = spaces.reduce_to_monomials(L, args.k)
    if args.json:
        doc = [{"monomial": spaces.monomial_str(m), "coeff": str(c)}
               for m, c in sorted(monomials.items())]
        print(_dump(doc))
    else:
        if not monomials:
            print(0)
        else:
            bits = [f"{c}*{spaces.monomial_str(m)}" for m, c in sorted(monomials.items())]
            print(" + ".join(bits))
    return EXIT_OK


def _cmd_chi(args) -> int:
    budget = _budget(args)
    D = _input_diagram(args)
    # chi expands one attachment per permutation of each color's legs
    spaces.check_budget("ahl", args.k, D.degree(), budget)
    image = spaces.chi(D, args.k)
    if args.json:
        print(_dump(terms_doc(image)))
    else:
        if image.is_zero():
            print(0)
        else:
            for key, coeff in image.items():
                print(f"{coeff}  {key.hex()}")
    return EXIT_OK


def _cmd_lk(args) -> int:
    if args.fuzz < 0:
        raise UsageError(f"--fuzz {args.fuzz} is negative")
    text = _read(args.input)
    L = gauss.parse_pd(text) if args.pd else gauss.parse_gauss(text)
    matrix = gauss.linking_matrix(L)
    fuzz_report = None
    if args.fuzz:
        rng = random.Random(args.seed)
        cur = L
        applied = 0
        for _ in range(args.fuzz):
            cur, move = gauss.random_homotopy_move(cur, rng)
            if move is not None:
                applied += 1
            if gauss.linking_matrix(cur) != matrix:
                raise VerificationError(
                    f"linking matrix changed after move {move} at step {applied}")
        fuzz_report = {"moves": args.fuzz, "applied": applied, "seed": args.seed, "stable": True}
    if args.json:
        doc = {"lk": matrix}
        if fuzz_report:
            doc["fuzz"] = fuzz_report
        print(_dump(doc))
    else:
        for row in matrix:
            print(" ".join(str(x) for x in row))
        if fuzz_report:
            print(f"stable under {args.fuzz} moves (seed {args.seed})")
    return EXIT_OK


def _compatible_pairs(bases: dict, top: int, kind: str) -> int:
    """Check that the coproduct respects products on every pair of basis
    keys whose degrees sum to at most top; bases maps a degree to its keys.
    Returns the number of pairs checked."""
    pairs = 0
    for d1, left in bases.items():
        for d2, right in bases.items():
            if d1 + d2 > top:
                continue
            for a in left:
                for b in right:
                    x, y = LinComb.term(a), LinComb.term(b)
                    lhs = hopf.coproduct(hopf.product(x, y))
                    rhs = hopf.tensor_product(hopf.coproduct(x), hopf.coproduct(y))
                    if lhs != rhs:
                        raise VerificationError(
                            f"{kind} compatibility fails at {a.hex()} x {b.hex()}")
                    pairs += 1
    return pairs


def _cmd_hopf_check(args) -> int:
    if args.chord_degree < 0:
        raise UsageError(f"--chord-degree {args.chord_degree} is negative")
    budget = _budget(args)
    # the connect sum check builds 4T spans one degree past --chord-degree
    spaces.check_budget("chord", None, args.chord_degree + 1, budget)
    spaces.check_budget("bhl", args.forest_k, args.forest_degree, budget)
    top = args.chord_degree
    chords = {d: ch.enum_chord(d) for d in range(top + 2)}
    forests = {d: enum_forests(args.forest_k, d) for d in range(1, args.forest_degree)}
    checks = {"chord_pairs": _compatible_pairs(chords, top, "chord"),
              "forest_pairs": _compatible_pairs(forests, args.forest_degree, "forest")}

    # connect sum arc independence modulo 4T, one matrix per total degree
    checked = 0
    spans = {total: relator_matrix(chords[total], rel.four_t_relators(chords[total]))
             for total in range(2, top + 2)}
    for d1 in range(1, top + 1):
        for d2 in range(1, top + 2 - d1):
            mat = spans[d1 + d2]
            for a in chords[d1]:
                for b in chords[d2]:
                    c1, c2 = ch.chord_from_key(a), ch.chord_from_key(b)
                    base = ch.inject_chord(ch.connect_sum(c1, c2, 0, 0))
                    for a1 in range(2 * d1):
                        for a2 in range(2 * d2):
                            diff = base - ch.inject_chord(ch.connect_sum(c1, c2, a1, a2))
                            if diff and not mat.in_span(diff):
                                raise VerificationError(
                                    "connect sum depends on the cut points beyond 4T "
                                    f"at {a.hex()} x {b.hex()}")
                    checked += 1
    checks["connect_sum_pairs"] = checked
    print(_dump({"ok": True, **checks}) if args.json else
          "ok: " + ", ".join(f"{k2}={v}" for k2, v in sorted(checks.items())))
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="linkhom",
                                description="diagram spaces for links up to link homotopy")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--budget-k", type=int, default=None, help="override the k budget")
    p.add_argument("--budget-d", type=int, default=None, help="override the degree budget")
    # the same flags are accepted after the subcommand; SUPPRESS keeps a
    # pre-subcommand occurrence from being reset to the default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--budget-k", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget-d", type=int, default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    e = sub.add_parser("enumerate", parents=[common],
                       help="list a diagram basis, one document per line")
    e.add_argument("--space", choices=("forest", "bounded", "chord"), required=True)
    e.add_argument("-k", type=int, default=None)
    e.add_argument("-d", type=int, required=True)
    e.set_defaults(func=_cmd_enumerate)

    d = sub.add_parser("dim", parents=[common], help="dimension of one graded piece")
    d.add_argument("--space", choices=spaces.SPACES, required=True)
    d.add_argument("-k", type=int, default=None)
    d.add_argument("-d", type=int, required=True)
    d.set_defaults(func=_cmd_dim)

    v = sub.add_parser("verify", parents=[common], help="certify the main triviality statement")
    v.add_argument("--theorem", default="main")
    v.add_argument("-k", type=int, required=True)
    v.add_argument("--max-degree", type=int, required=True)
    v.add_argument("--certs", default=None, help="directory for certificate files")
    v.set_defaults(func=_cmd_verify)

    cc = sub.add_parser("check-cert", parents=[common], help="re-sum a certificate independently")
    cc.add_argument("--cert", required=True)
    cc.set_defaults(func=_cmd_check_cert)

    r = sub.add_parser("reduce", parents=[common], help="image of a diagram in the monomial algebra")
    r.add_argument("--input", required=True)
    r.add_argument("-k", type=int, required=True)
    r.set_defaults(func=_cmd_reduce)

    c = sub.add_parser("chi", parents=[common], help="average a diagram over leg attachments")
    c.add_argument("--input", required=True)
    c.add_argument("-k", type=int, required=True)
    c.set_defaults(func=_cmd_chi)

    l = sub.add_parser("lk", parents=[common], help="linking matrix of a link presentation")
    l.add_argument("--input", required=True)
    l.add_argument("--pd", action="store_true", help="input is PD text, not Gauss")
    l.add_argument("--fuzz", type=int, default=0, help="random homotopy moves to apply")
    l.add_argument("--seed", type=int, default=0)
    l.set_defaults(func=_cmd_lk)

    h = sub.add_parser("hopf-check", parents=[common], help="product/coproduct law checks")
    h.add_argument("--chord-degree", type=int, default=2)
    h.add_argument("--forest-k", type=int, default=3)
    h.add_argument("--forest-degree", type=int, default=3)
    h.set_defaults(func=_cmd_hopf_check)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ParseError, DiagramError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
