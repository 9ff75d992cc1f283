"""linkhom benchmark: cold CLI operations, timed end to end or traced by layer.

    python3 perfbench/run.py --workload forest --seed 1 --seconds 40 --trace 0

Run from a source checkout; linkhom is imported from its ``src``.  Each
operation runs in a child forked from a process that has imported linkhom but
computed nothing, one at a time, so no in-process cache carries from one
operation to the next, as with separate command line invocations.  The
operation list is run once in order, then single operations again until
``--seconds`` is spent, the slowest one every other time; each operation's time
is the median of its samples.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 runs each
operation once untraced and once traced and prints the per-layer metrics; the
difference of the two summed times is the tracing overhead.  Every answer is
checked against reference.py.  The last stdout line is the JSON result;
reports and span files go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import layers
import selfcheck
import workloads
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170            # the whole run, set-up included
SETUP_SAMPLES = 21
MEMORY_LIMIT = 2 << 30      # address space of one operation's process


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# -- set-up ---------------------------------------------------------------------


def _setup_child(workload, seed, workdir, refs, wfd):
    t0 = perf_counter()
    import linkhom.cli          # noqa: F401  (the import is what is timed)
    workloads.build(workload, seed, workdir, refs)
    elapsed = perf_counter() - t0
    import linkhom
    if not Path(linkhom.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"linkhom was imported from {linkhom.__file__}, not from src/")
    os.write(wfd, repr(elapsed).encode())


def setup_times(workload, seed, workdir, refs) -> list:
    """Import linkhom and build the workload's inputs in fresh children.

    The first child also compiles bytecode, so it is not counted.
    """
    times = []
    for i in range(SETUP_SAMPLES + 1):
        rfd, wfd = os.pipe()
        sys.stdout.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(rfd)
                _setup_child(workload, seed, workdir / f"setup{i}", refs, wfd)
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(wfd)
        _, status = os.waitpid(pid, 0)
        with os.fdopen(rfd, "rb") as r:
            text = r.read().decode()
        shutil.rmtree(workdir / f"setup{i}", ignore_errors=True)
        if os.waitstatus_to_exitcode(status) != 0 or not text:
            raise RuntimeError("set-up failed: linkhom could not be imported from src/")
        if i:
            times.append(float(text))
    return times


# -- one operation ----------------------------------------------------------------


def _op_child(argv, result_path, trace, alarm_s):
    signal.alarm(alarm_s)
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))
    import linkhom.cli
    import linkhom.diagrams
    out, err = io.StringIO(), io.StringIO()
    doc = {"exit": None, "raised": None}
    tracer = Tracer() if trace else None
    if tracer:
        cache0 = layers.canonicalize_cache(linkhom.diagrams)
        tracer.install(layers.TARGETS)
    sys.stdout, sys.stderr = out, err
    try:
        if tracer:
            doc["exit"] = tracer.call(layers.ROOT_SPAN, linkhom.cli.main, argv)
        else:
            doc["exit"] = linkhom.cli.main(argv)
    except SystemExit as exc:          # argparse usage errors
        doc["exit"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        doc["raised"] = traceback.format_exc()
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    doc["stdout"], doc["stderr"] = out.getvalue(), err.getvalue()[-4000:]
    if tracer:
        tracer.uninstall()
        cache1 = layers.canonicalize_cache(linkhom.diagrams)
        if cache0 and cache1:
            tracer.add("diagrams.cache_hits", cache1[0] - cache0[0])
            tracer.add("diagrams.cache_misses", cache1[1] - cache0[1])
        doc["spans"] = tracer.spans
        doc["counts"] = tracer.counts
        doc["missing"] = tracer.missing
        doc["hook_errors"] = tracer.hook_errors
    result_path.write_text(json.dumps(doc))


def run_op(op, result_path: Path, trace: bool, alarm_s: int) -> dict:
    """Fork, run one operation, wait; seconds and peak RSS as the parent sees them."""
    result_path.unlink(missing_ok=True)
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _op_child(op.argv, result_path, trace, alarm_s)
            code = 0
        finally:
            os._exit(code)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    seconds = perf_counter() - t0
    try:
        doc = json.loads(result_path.read_text())
    except (OSError, ValueError):
        doc = {"exit": None, "raised": f"no result; wait status {status:#x}"
                                       f" ({'timed out' if os.WIFSIGNALED(status) else 'crashed'})"}
    doc["seconds"] = seconds
    doc["rss_mib"] = usage.ru_maxrss / 1024
    if doc.get("raised"):
        doc["error"] = "raised: " + doc["raised"].strip().splitlines()[-1]
    else:
        doc["error"] = op.check(doc["exit"], doc.get("stdout", ""))
    if op.after:
        try:
            op.after()
        except (OSError, ValueError, LookupError, TypeError) as exc:   # unreadable engine output
            doc["error"] = doc["error"] or f"preparing later inputs failed: {exc!r}"
    return doc


# -- passes ---------------------------------------------------------------------------


class Run:
    def __init__(self, ops, workdir: Path, started: float):
        self.ops = ops
        self.workdir = workdir
        self.started = started
        self.times = [[] for _ in ops]
        self.rss = [[] for _ in ops]
        self.attempted = 0
        self.failures = []

    def remaining(self) -> float:
        return DEADLINE_S - (perf_counter() - self.started)

    def one(self, i, trace=False) -> dict:
        op = self.ops[i]
        self.attempted += 1
        if self.remaining() < 1:
            doc = {"error": "not reached before the run's deadline", "seconds": 0.0}
        else:
            doc = run_op(op, self.workdir / "op.json", trace, int(self.remaining()) + 1)
            if not trace:
                self.times[i].append(doc["seconds"])
                self.rss[i].append(doc["rss_mib"])
        if doc["error"]:
            self.failures.append({"op": op.label, "argv": op.argv, "error": doc["error"],
                                  "exit": doc.get("exit"), "stdout": doc.get("stdout", "")[:2000],
                                  "stderr": doc.get("stderr", ""), "raised": doc.get("raised")})
        return doc

    def timed(self, seconds: float) -> None:
        """One whole pass, then single operations while the next one's median
        fits: the slowest operation every other time, the rest in turn.

        slowest_op_s rests on one operation, so it gets as many samples as
        all the others together.
        """
        t0 = perf_counter()
        n = len(self.ops)
        for i in range(n):
            self.one(i)
        slowest = max(range(n), key=lambda j: statistics.median(self.times[j] or [0.0]))
        for step in itertools.count():
            i = slowest if step % 2 == 0 else (step // 2) % n
            left = seconds - (perf_counter() - t0)
            if not self.times[i] or statistics.median(self.times[i]) > min(left, self.remaining() - 5):
                break
            self.one(i)


def traced_pass(run: Run, trace_file: Path) -> dict:
    """Each operation untraced, then traced; sums the layers over all operations.

    Running the two back to back keeps a slow spell of the machine from
    landing on one side of the overhead only.
    """
    layer_sum, counts, missing, hook_errors, per_op = {}, {}, set(), set(), []
    wall = untraced_wall = 0.0
    with trace_file.open("w") as fh:
        for i, op in enumerate(run.ops):
            untraced_wall += run.one(i)["seconds"]
            doc = run.one(i, trace=True)
            wall += doc["seconds"]
            spans = doc.get("spans") or []
            fh.write(json.dumps({"op": op.label, "seconds": doc["seconds"], "spans": spans}) + "\n")
            op_layers = self_times(spans)
            for name, row in op_layers.items():
                acc = layer_sum.setdefault(name, [0, 0.0, 0.0])
                for j in range(3):
                    acc[j] += row[j]
            for name, value in (doc.get("counts") or {}).items():
                counts[name] = counts.get(name, 0) + value
            missing.update(doc.get("missing") or ())
            hook_errors.update(doc.get("hook_errors") or ())
            per_op.append({"op": op.label, "seconds": doc["seconds"],
                           "self_s": {n: r[2] for n, r in sorted(op_layers.items())}})
    return {"wall_s": wall, "untraced_wall_s": untraced_wall, "layers": layer_sum,
            "counts": counts, "missing": sorted(missing), "hook_errors": sorted(hook_errors),
            "per_op": per_op}


# -- main ------------------------------------------------------------------------------


def _emit(name, value, unit):
    print(f"{name:34s} {value:14.6f} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = perf_counter()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    problems = selfcheck.run_all()
    if problems:
        return fail("self-check failed: " + "; ".join(problems))
    if not (SRC / "linkhom" / "__init__.py").is_file():
        return fail(f"no linkhom sources under {SRC}")

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        refs = workloads.references(args.workload)
        sys.path.insert(0, str(SRC))
        try:
            setups = setup_times(args.workload, args.seed, workdir, refs)
        except RuntimeError as exc:
            return fail(str(exc))
        import linkhom.cli      # noqa: F401  (children fork from here)
        run = Run(workloads.build(args.workload, args.seed, workdir, refs), workdir, started)
        traced = None
        if args.trace:
            traced = traced_pass(run, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            run.timed(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    op_times = [statistics.median(s) if s else 0.0 for s in run.times]
    op_rss = [statistics.median(s) if s else 0.0 for s in run.rss]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    for op, t, r, n in zip(run.ops, op_times, op_rss, run.times):
        print(f"  op {op.label:40s} n={len(n):2d} median {t:9.4f} s  peak rss {r:7.1f} MiB")
    for f in run.failures:
        print(f"  FAILED {f['op']}: {f['error']}")
        print(f"    argv {' '.join(f['argv'])}")
        print(f"    stdout {f['stdout'][:400]!r} stderr {f['stderr'][-400:]!r}")
    print(f"failed_ratio {failed / run.attempted:.6f} ({failed} failed of {run.attempted} ops attempted)")

    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(op_times),
        "slowest_op_s": max(op_times),
        "peak_rss_mib": max(op_rss),
    }
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "attempted": run.attempted, "failed": failed, "failures": run.failures,
              "setup_samples_s": setups,
              "ops": [{"op": op.label, "argv": op.argv, "seconds": t, "rss_mib": r}
                      for op, t, r in zip(run.ops, run.times, run.rss)]}
    if traced:
        overhead = traced["wall_s"] - traced["untraced_wall_s"]
        values = layers.metrics(traced["layers"], traced["counts"])
        values["trace.overhead_s"] = overhead
        self_sum = sum(row[2] for row in traced["layers"].values())
        print("layer self times over the traced operations (calls, inclusive s, self s):")
        for name, (calls, incl, own) in sorted(traced["layers"].items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:24s} {calls:8d} {incl:10.4f} {own:10.4f}")
        print(f"self times sum to {self_sum:.4f} s; untraced wall_s {traced['untraced_wall_s']:.4f} s; "
              f"traced wall_s {traced['wall_s']:.4f} s; tracing overhead {overhead:.4f} s; "
              f"fork, exit and result transfer {traced['wall_s'] - self_sum:.4f} s")
        print(f"untraced wall_s - self sum = {traced['untraced_wall_s'] - self_sum:.4f} s "
              f"(= process time {traced['wall_s'] - self_sum:.4f} s - overhead {overhead:.4f} s)")
        for name in traced["missing"]:
            print(f"  traced target missing: {name}")
        for name in traced["hook_errors"]:
            print(f"  hook could not read a result: {name}")
        report["traced"] = traced
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]

    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        _emit(m["name"], values[m["name"]], m["unit"])
    report["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
