"""Which linkhom calls the traced run wraps, and the per-layer metrics they give.

Each target names a public function (or method) at a module boundary.
``SparseRationalMatrix._eliminate`` is the one private name: it separates
elimination from the reductions of ``membership``, which triggers it on the
``verify`` path where ``rank`` is never called.  Should it disappear, its
time stays inside ``rank`` or ``membership`` and is reported there.
"""

from __future__ import annotations


def _count_len(metric):
    def hook(tracer, args, result):
        tracer.add(metric, len(result))
    return hook


def _relators(tracer, args, result):
    tracer.add("relators.generated", len(result))
    tracer.add("relators.zero", sum(1 for r in result if r.element.is_zero()))
    tracer.add("relators.nnz", sum(len(r.element) for r in result))


def _rows(tracer, args, matrix):
    tracer.add("qlinalg.rows", len(matrix.rows))


def _rank(tracer, args, result):
    # rank() returns an int and _eliminate() the pivot map; both fire on
    # every call, so each matrix is counted once, and kept alive so that its
    # id is not reused while the op runs
    matrix = args[0]
    if id(matrix) in tracer.keep:
        return
    tracer.keep[id(matrix)] = matrix
    tracer.add("qlinalg.rank", result if isinstance(result, int) else len(result))
    tracer.add("qlinalg.rank_rows", len(matrix.rows))


def _cert_terms(tracer, args, cert):
    tracer.add("qlinalg.cert_terms", len(cert.combination))


RELATOR_FUNCTIONS = ("ihx_relators", "star_relators", "stu_relators",
                     "link1_relators", "one_t_relators", "four_t_relators")

#: (module, attribute path, span name, hook)
TARGETS = [
    ("linkhom.bases", "enum_forests", "bases.enum", _count_len("bases.forests")),
    ("linkhom.bounded", "enum_bounded", "bounded.enum", None),
    ("linkhom.chords", "enum_chord", "chords.enum", None),
    ("linkhom.diagrams", "canonicalize", "diagrams.canonicalize", None),
    *[("linkhom.relators", fn, "relators.gen", _relators) for fn in RELATOR_FUNCTIONS],
    ("linkhom.qlinalg", "relator_matrix", "qlinalg.build", _rows),
    ("linkhom.qlinalg", "SparseRationalMatrix.rank", "qlinalg.rank", _rank),
    ("linkhom.qlinalg", "SparseRationalMatrix._eliminate", "qlinalg.eliminate", _rank),
    ("linkhom.qlinalg", "SparseRationalMatrix.membership", "qlinalg.membership", _cert_terms),
    ("linkhom.qlinalg", "verify_certificate", "qlinalg.replay", None),
    ("linkhom.spaces", "dim_space", "spaces.dim", None),
    ("linkhom.spaces", "verify_main_theorem", "spaces.verify", None),
]

#: span name of the whole cli.main call of one operation
ROOT_SPAN = "cli.op"


def canonicalize_cache(module):
    """(hits, misses) of canonicalize's own cache, or None without one."""
    info = getattr(getattr(module, "canonicalize", None), "cache_info", None)
    if info is None:
        return None
    ci = info()
    return ci.hits, ci.misses


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(layers: dict, counts: dict) -> dict:
    """Per-layer metrics from summed [calls, inclusive s, self s] and counts."""
    def self_s(name):
        return layers.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return layers.get(name, [0, 0.0, 0.0])[0]

    def count(name):
        return counts.get(name, 0)

    return {
        "bases.enum_s": self_s("bases.enum"),
        "bounded.enum_s": self_s("bounded.enum"),
        "chords.enum_s": self_s("chords.enum"),
        "bases.forests": count("bases.forests"),
        "diagrams.canonicalize_s": self_s("diagrams.canonicalize"),
        "diagrams.canonicalize_calls": calls("diagrams.canonicalize"),
        "diagrams.canonicalize_hit_ratio": _ratio(
            count("diagrams.cache_hits"),
            count("diagrams.cache_hits") + count("diagrams.cache_misses")),
        "relators.gen_s": self_s("relators.gen"),
        "relators.generated": count("relators.generated"),
        "relators.zero_ratio": _ratio(count("relators.zero"), count("relators.generated")),
        "relators.nnz": count("relators.nnz"),
        "qlinalg.build_s": self_s("qlinalg.build"),
        "qlinalg.eliminate_s": self_s("qlinalg.eliminate") + self_s("qlinalg.rank"),
        "qlinalg.rows": count("qlinalg.rows"),
        "qlinalg.pivot_ratio": _ratio(count("qlinalg.rank"), count("qlinalg.rank_rows")),
        "qlinalg.membership_s": self_s("qlinalg.membership"),
        "qlinalg.membership_calls": calls("qlinalg.membership"),
        "qlinalg.replay_s": self_s("qlinalg.replay"),
        "qlinalg.cert_terms": count("qlinalg.cert_terms"),
        "spaces.dim_s": self_s("spaces.dim"),
        "spaces.verify_s": self_s("spaces.verify"),
        "cli.op_s": self_s(ROOT_SPAN),
    }
