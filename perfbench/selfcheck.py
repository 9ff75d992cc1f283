"""Checks of the benchmark's own machinery; they need no linkhom.

run.py runs them before every measurement and refuses to measure if one
fails.  Run alone: python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import sys
import types

import reference
import workloads
from tracer import HOOK, Tracer, self_times


def _references():
    want = {
        "bhl 5/3 basis": (reference.forest_basis(5, 3), 335),
        "bhl 5/3 dim": (reference.monomials(5, 3), 220),
        "bhl 4/4 basis": (reference.forest_basis(4, 4), 238),
        "bhl 4/4 dim": (reference.monomials(4, 4), 126),
        "ahl 4/3 basis": (reference.bounded_basis(4, 3), 371),
        "chord 4 basis": (reference.chord_basis(4), 18),
        "chord 5 basis": (reference.chord_basis(5), 105),
        "verify 5/3 certificates": (reference.certificate_count(5, 3), 125),
        "verify 4/4 certificates": (reference.certificate_count(4, 4), 143),
    }
    return [f"reference {name} = {got}, want {exp}" for name, (got, exp) in want.items() if got != exp]


def _checks():
    out = []
    answer = '{"basis":335,"d":3,"dim":220,"k":5,"rank":115,"space":"bhl"}'
    if workloads.check_dim({"basis": 335, "dim": 220})(0, answer) is not None:
        out.append("a right dim answer was not accepted")
    if workloads.check_dim({"basis": 335, "dim": 221})(0, answer) is None:
        out.append("a deliberately wrong reference did not register as a failure")
    if workloads.check_dim({"basis": 335, "dim": 220})(3, "") is None:
        out.append("a budget exit did not register as a failure")
    ok = '{"cert":"slot-00.json","ok":true}'
    if workloads.check_cert("slot-00.json", altered=True)(0, ok) is None:
        out.append("an altered certificate that exits 0 did not register as a failure")
    if workloads.check_cert("slot-00.json", altered=True)(4, "") is not None:
        out.append("an altered certificate that exits 4 was not accepted")
    if workloads.check_cert("slot-00.json", altered=False)(4, "") is None:
        out.append("a rejected genuine certificate did not register as a failure")
    doc = {"combination": [{"relator": "a", "coeff": "-1"}, {"relator": "b", "coeff": "1/2"}]}
    if workloads._alter(doc, 0.9)["combination"][1]["coeff"] != "3/2":
        out.append("certificate alteration did not change the picked coefficient")
    return out


def _tracer():
    out = []
    pkg = types.ModuleType("perfbench_fake")
    mod = types.ModuleType("perfbench_fake.mod")
    user = types.ModuleType("perfbench_fake.user")

    def f(x):
        return [x] * x

    class C:
        def m(self):
            return mod.f(2)

    mod.f, mod.C, user.f = f, C, f
    saved = {name: sys.modules.get(name) for name in (pkg.__name__, mod.__name__, user.__name__)}
    sys.modules.update({pkg.__name__: pkg, mod.__name__: mod, user.__name__: user})
    try:
        def bad_hook(tracer, args, result):
            raise KeyError("changed")

        tr = Tracer(package="perfbench_fake")
        tr.install([
            ("perfbench_fake.mod", "f", "fake.f", lambda t, a, r: t.add("fake.items", len(r))),
            ("perfbench_fake.mod", "C.m", "fake.m", bad_hook),
            ("perfbench_fake.mod", "gone", "fake.gone", None),
            ("perfbench_fake.mod", "C.gone", "fake.gone", None),
            ("perfbench_fake.nomodule", "f", "fake.gone", None),
        ])
        if len(tr.missing) != 3:
            out.append(f"tracer listed {tr.missing} as missing, want three targets")
        if user.f is f or mod.f is f:
            out.append("tracer did not rebind a function imported by name")
        tr.call("root", lambda: (C().m(), user.f(3)))
        layers = self_times(tr.spans)
        if {k: v[0] for k, v in layers.items()} != {"root": 1, "fake.m": 1, "fake.f": 2, HOOK: 3}:
            out.append(f"tracer recorded {layers}")
        if tr.counts.get("fake.items") != 5 or len(tr.hook_errors) != 1:
            out.append("tracer hooks did not count, or a failing hook was not recorded")
        tr.uninstall()
        if user.f is not f or mod.f is not f or C.m.__name__ != "m":
            out.append("tracer uninstall did not restore the originals")
    finally:
        for name, old in saved.items():
            if old is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = old
    spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 5.0, 0], ["c", 3.0, 4.0, 1]]
    if self_times(spans) != {"a": [1, 10.0, 7.0], "b": [1, 3.0, 2.0], "c": [1, 1.0, 1.0]}:
        out.append("self time is not span time minus child span time")
    return out


def run_all() -> list:
    """Every failed self-check, as one line each."""
    return _references() + _checks() + _tracer()


if __name__ == "__main__":
    problems = run_all()
    for line in problems:
        print(f"FAIL {line}")
    print("self-check: " + ("ok" if not problems else f"{len(problems)} failed"))
    sys.exit(1 if problems else 0)
