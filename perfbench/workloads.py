"""The three workloads: their operations, inputs and answer checks.

An operation is one ``linkhom`` command line, run through ``linkhom.cli.main``
with ``--json``, plus a check of its exit code and output against the
benchmark's own reference.  ``after`` runs untimed once the operation ends; it
prepares files that later operations read.

- forest: ``dim`` at the budget corners and one step past them, plus
  ``bhl 2/6``, a single diagram whose canonical form needs the largest
  permutation search.  Enumeration, canonicalization and relator generation
  dominate.
- chord: ``dim --space chord`` at d = 4, 5, 6.  Elimination dominates and
  canonicalize is never called, since chord keys are rotation minima.
- certify: the main statement end to end, ``verify`` writing certificates,
  then cold ``check-cert`` calls on a seed-drawn sample, a seed-drawn quarter
  of it altered so that ``check-cert`` must exit 4.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import reference

WORKLOADS = ("forest", "chord", "certify")

FOREST_CELLS = (("bhl", 5, 3), ("bhl", 4, 4), ("bhl", 5, 4),
                ("ahl", 4, 3), ("ahl", 5, 3), ("bhl", 2, 6))
CHORD_DEGREES = (4, 5, 6)
CERTIFY_CELLS = ((5, 3), (4, 4))
SAMPLE = 16         # check-cert calls per certificate directory
ALTERED = 4         # of which this many are altered

EXIT_OK, EXIT_VERIFY = 0, 4


@dataclass
class Op:
    label: str
    argv: list
    check: Callable[[int, str], Optional[str]]     # (exit code, stdout) -> error or None
    after: Optional[Callable[[], None]] = None


def _budget(k, d) -> list:
    """Override flags for a cell past the default budget."""
    if (k <= 5 and d <= 3) or (k <= 4 and d <= 4):
        return []
    return ["--budget-k", str(k), "--budget-d", str(d)]


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_dim(want: dict):
    """Check a ``dim --json`` answer against reference basis and dim."""
    def check(code, stdout):
        if code != EXIT_OK:
            return f"exit {code}, want {EXIT_OK}"
        doc = _json(stdout)
        if not isinstance(doc, dict):
            return "output is not a JSON object"
        got = {key: doc.get(key) for key in want}
        if got != want:
            return f"got {got}, reference {want}"
        if doc.get("rank") != want["basis"] - want["dim"]:
            return f"rank {doc.get('rank')} is not basis - dim"
        return None
    return check


def check_verify(count: int, certs: Path):
    def check(code, stdout):
        if code != EXIT_OK:
            return f"exit {code}, want {EXIT_OK}"
        doc = _json(stdout)
        if not isinstance(doc, dict):
            return "output is not a JSON object"
        files = doc.get("files") or []
        on_disk = sorted(p.name for p in certs.glob("cert-*.json"))
        if doc.get("certificates") != count or len(files) != count:
            return f"{doc.get('certificates')} certificates, {len(files)} files; reference {count}"
        if sorted(files) != on_disk:
            return f"{len(on_disk)} certificate files on disk do not match the {len(files)} listed"
        return None
    return check


def check_cert(name: str, altered: bool):
    def check(code, stdout):
        if altered:
            return None if code == EXIT_VERIFY else f"altered certificate: exit {code}, want {EXIT_VERIFY}"
        if code != EXIT_OK:
            return f"exit {code}, want {EXIT_OK}"
        if _json(stdout) != {"cert": name, "ok": True}:
            return f"output {stdout.strip()!r}"
        return None
    return check


def references(workload: str) -> dict:
    """Reference answers per cell, computed without the engine."""
    if workload == "forest":
        return {(space, k, d): {"basis": (reference.forest_basis if space == "bhl"
                                          else reference.bounded_basis)(k, d),
                                "dim": reference.monomials(k, d)}
                for space, k, d in FOREST_CELLS}
    if workload == "chord":
        return {d: {"basis": reference.chord_basis(d), "dim": reference.CHORD_DIMS[d]}
                for d in CHORD_DEGREES}
    if workload == "certify":
        return {cell: reference.certificate_count(*cell) for cell in CERTIFY_CELLS}
    raise ValueError(f"unknown workload {workload!r}")


def _alter(doc: dict, u: float) -> dict:
    """Add 1 to the coefficient of one relator; the re-sum then misses by
    that relator's element, which is nonzero in every certificate."""
    terms = doc["combination"]
    term = terms[int(u * len(terms))]
    term["coeff"] = str(Fraction(term["coeff"]) + 1)
    return doc


def _certify_sample(certs: Path, sample: Path, picks, altered: dict):
    """Copy the picked certificates of one directory into slot files,
    altering the slots chosen for it; missing files leave missing slots."""
    def after():
        names = sorted(p.name for p in certs.glob("cert-*.json"))
        for slot, i in enumerate(picks):
            path = sample / f"slot-{slot:02d}.json"
            path.unlink(missing_ok=True)
            if i >= len(names):
                continue
            text = (certs / names[i]).read_text()
            if slot in altered:
                text = json.dumps(_alter(json.loads(text), altered[slot])) + "\n"
            path.write_text(text)
    return after


def build(workload: str, seed: int, workdir: Path, refs: dict) -> list:
    """The operation list of one pass.  forest and chord ignore the seed."""
    if workload == "forest":
        return [Op(f"dim {space} {k}/{d}",
                   ["--json", "dim", "--space", space, "-k", str(k), "-d", str(d), *_budget(k, d)],
                   check_dim(refs[(space, k, d)]))
                for space, k, d in FOREST_CELLS]
    if workload == "chord":
        return [Op(f"dim chord {d}",
                   ["--json", "dim", "--space", "chord", "-d", str(d),
                    *(["--budget-d", str(d)] if d > 5 else [])],
                   check_dim(refs[d]))
                for d in CHORD_DEGREES]
    if workload != "certify":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    verifies, checks = [], []
    for k, dmax in CERTIFY_CELLS:
        count = refs[(k, dmax)]
        certs = workdir / f"certs-k{k}d{dmax}"
        sample = workdir / f"sample-k{k}d{dmax}"
        certs.mkdir(parents=True, exist_ok=True)
        sample.mkdir(parents=True, exist_ok=True)
        # one pick per sixteenth of the sorted file list; names sort by vertex
        # count, hence by degree, so every seed gets the same mix of degrees
        picks = [(slot * count + rng.randrange(count)) // SAMPLE for slot in range(SAMPLE)]
        altered = {slot: rng.random() for slot in sorted(rng.sample(range(SAMPLE), ALTERED))}
        verifies.append(Op(f"verify {k}/{dmax}",
                           ["--json", "verify", "-k", str(k), "--max-degree", str(dmax),
                            "--certs", str(certs)],
                           check_verify(count, certs),
                           _certify_sample(certs, sample, picks, altered)))
        for slot in range(SAMPLE):
            name = f"slot-{slot:02d}.json"
            tag = " altered" if slot in altered else ""
            checks.append(Op(f"check-cert {k}/{dmax} {name}{tag}",
                             ["--json", "check-cert", "--cert", str(sample / name)],
                             check_cert(name, slot in altered)))
    return verifies + checks
