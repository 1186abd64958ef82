"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout of `xpathsat` (stdlib only; the
package is imported from ./src).  Builds the workload's inputs from the
seed, measures for S seconds and checks every answer against the
reference in ref.py.  The last line of standard output is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer figures of a
separate traced run (see tracer.py).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from ref import conforms, matches, parse_term  # noqa: E402
from tracer import LAYER_METRICS, unit_of  # noqa: E402
from speed import SLICE_REF_S, slowdown  # noqa: E402

SETUP_PROBES = 5      # fresh interpreters timed for setup_s; median reported
START_REF_S = 0.05    # an interpreter that runs nothing starts and exits in
                      # this long at the reference speed
IMPORT_PROBES = 5     # fresh interpreters timed for cli.import_ms
CHILD_TIMEOUT_S = 170.0  # a worker or probe child that runs longer is killed
CLI_TIMEOUT_S = 20.0     # a CLI call that runs longer is killed and fails
OUT_DIR = ROOT / ".bench_out"


# --- subprocesses ---------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(argv, stdin: bytes | None = None, cwd=None):
    """Run one child to completion; returns (exit code, stdout, stderr,
    wall seconds)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, cwd=cwd, env=_env())
    try:
        out, err = p.communicate(stdin, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise
    wall = time.perf_counter() - t0
    return p.returncode, out, err, wall


def run_cli(argv, cwd):
    """One `python -m xpathsat.cli` process; returns (code, stdout, wall
    seconds, peak RSS in kB).  Reaped with wait4 to read its own rusage,
    so stderr goes to /dev/null (refusals are checked by exit code and an
    empty stdout) and a timer, not `communicate`, enforces the time limit.
    A killed call returns the negated signal number as its code."""
    t0 = time.perf_counter()
    p = subprocess.Popen([sys.executable, "-m", "xpathsat.cli", *argv],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         cwd=cwd, env=_env())
    # os.kill, not p.kill: Popen.kill polls first and could reap the child
    timer = threading.Timer(CLI_TIMEOUT_S, os.kill, (p.pid, signal.SIGKILL))
    timer.start()
    out = p.stdout.read()
    timer.cancel()
    timer.join()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    return p.returncode, out.decode("utf-8", "replace"), wall, usage.ru_maxrss


def worker(job: dict, cwd=None) -> dict:
    code, out, err, _ = run_child([sys.executable, str(HERE / "worker.py")],
                                  json.dumps(job).encode(), cwd=cwd)
    if code != 0:
        sys.stderr.write(err.decode("utf-8", "replace"))
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(out)


# --- jobs -----------------------------------------------------------------------

def lib_op(op: dict) -> dict:
    """The part of an operation the package sees."""
    if op["kind"] == "cli":
        return {"kind": "cli", "argv": op["argv"]}
    keep = {"kind", "dtd", "query", "depth", "rep"}
    return {k: v for k, v in op.items() if k in keep}


def job_for(w, mode: str, **extra) -> dict:
    job = {"mode": mode, "src": str(SRC), "dtds": [s.text() for s in w.dtds],
           "warm": [lib_op(op) for op in w.warm],
           "rounds": [[lib_op(op) for op in r] for r in w.rounds]}
    job.update(extra)
    return job


# --- checks ---------------------------------------------------------------------

def witness_ok(op, term, schema) -> bool:
    """An oracle answer: None for an UNSAT query; for a SAT one, a tree that
    conforms, matches, stays in the bounds and is no larger than the
    document the query was walked on."""
    if not op["expect"]:
        return term is None
    if term is None:
        return False
    try:
        doc = parse_term(term)
    except (ValueError, IndexError):
        return False
    return (conforms(doc, schema) and matches(doc, op["steps"])
            and doc.size() <= op["doc"].size() and doc.height() <= op["depth"])


def answer_ok(op, ans, w) -> bool:
    schema = w.dtds[op["dtd"]]
    if op["kind"] == "sat":
        return ans == [op["expect"], op["alg"]]
    if op["kind"] == "oracle":
        return witness_ok(op, ans, schema)
    code, out = ans
    if code != op["exit"]:
        return False
    lines = out.splitlines()
    if op["check"] == "sat":
        return lines == ["SAT" if op["expect"] else "UNSAT"]
    if op["check"] == "classify":
        flags = lines[-1].split() if lines else []
        return flags[:1] == ["dtd:"] and f"mrw={'yes' if op['mrw'] else 'no'}" in flags
    if op["check"] == "oracle":
        if not op["expect"]:
            return lines == ["UNKNOWN"]
        return (len(lines) == 1 and lines[0].startswith("SAT ")
                and witness_ok(op, lines[0][4:], schema))
    return out == ""  # refusals print to stderr only


class Checker:
    """Counts failed answers; identical answers to one operation are
    checked once.  `unexpected` counts failures of operations other than
    the known-fault one (see workloads.known_fault_op)."""

    def __init__(self, w):
        self.w = w
        self.seen: dict = {}
        self.failed = 0
        self.unexpected = 0
        self.attempted = 0

    def __call__(self, ri: int, k: int, ans) -> bool:
        key = (ri, k, json.dumps(ans))
        if key not in self.seen:
            self.seen[key] = answer_ok(self.w.rounds[ri][k], ans, self.w)
        self.attempted += 1
        if not self.seen[key]:
            op = self.w.rounds[ri][k]
            self.failed += 1
            if not op.get("known_fault"):
                self.unexpected += 1
                if self.unexpected <= 5:
                    print(f"FAILED {op['kind']} {op.get('argv') or op.get('query')!r}: "
                          f"got {ans!r}", file=sys.stderr)
        return self.seen[key]


# --- measuring ------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def setup_seconds(w) -> tuple[float, float]:
    """Median over fresh interpreters of set-up time at reference speed,
    and the median raw set-up time."""
    job = job_for(w, "setup")
    job["rounds"] = []
    runs = [worker(job) for _ in range(SETUP_PROBES)]
    return (statistics.median(r["setup_s"] / slowdown(r["setup_slices"]) for r in runs),
            statistics.median(r["setup_s"] for r in runs))


def timed_lib(w, seconds: float, check: Checker):
    res = worker(job_for(w, "timed", seconds=seconds))
    for (ri, k), ans in zip(res["order"], res["answers"]):
        check(ri, k, ans)
    return res["lat"], res["wall"], res["rss_kb"], res["slices"]


def timed_cli(w, seconds: float, check: Checker, run_dir: Path):
    """One child at a time, each followed by a start probe: an interpreter
    that runs nothing.  The children run on whichever CPU is free, so their
    speed is read off the probes (in trials, speed slices timed in this
    process tracked them poorly).  The returned wall time excludes the
    probes; the probe times are returned in place of speed slices, scaled
    so that the reference start takes SLICE_REF_S."""
    lat, rss, probes = [], 0, []
    t0 = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - t0 < seconds:
        ri = r % len(w.rounds)
        for k, op in enumerate(w.rounds[ri]):
            code, out, wall, kb = run_cli(op["argv"], run_dir)
            lat.append(wall)
            rss = max(rss, kb)
            check(ri, k, [code, out])
            probes.append(run_child([sys.executable, "-c", "pass"])[3])
        r += 1
    wall = time.perf_counter() - t0 - sum(probes)
    return lat, wall, rss, [p * SLICE_REF_S / START_REF_S for p in probes]


def end_to_end(w, seconds: float, run_dir: Path):
    """Timings are reported at the reference speed: each is divided by the
    slowdown the speed slices (start probes, for cli-one-shot) measured
    over the same stretch of the run."""
    check = Checker(w)
    setup_s, setup_raw = setup_seconds(w)
    if w.name == "cli-one-shot":
        lat, wall, rss_kb, slices = timed_cli(w, seconds, check, run_dir)
    else:
        lat, wall, rss_kb, slices = timed_lib(w, seconds, check)
    slow = slowdown(slices)
    done = check.attempted - check.failed
    p50, tail = statistics.median(lat), percentile(lat, w.tail_pct)
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (done / wall * slow, "1/s"),
        "latency_p50_ms": (p50 / slow * 1000, "ms"),
        "latency_tail_ms": (tail / slow * 1000, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    notes = {"samples": len(lat), "tail_percentile": w.tail_pct,
             "slowdown": round(slow, 4), "raw": {
                 "setup_s": round(setup_raw, 5), "verdicts_per_s": round(done / wall, 3),
                 "latency_p50_ms": round(p50 * 1000, 3),
                 "latency_tail_ms": round(tail * 1000, 3)}}
    return check, metrics, notes


def import_ms() -> tuple[float, float]:
    """Medians over fresh interpreters of the time `import xpathsat.cli`
    takes inside the interpreter, and of the wall time of starting an
    interpreter that does nothing (the floor under every CLI call)."""
    code = ("import time; t = time.perf_counter(); import xpathsat.cli; "
            "print(time.perf_counter() - t)")
    imports, starts = [], []
    for _ in range(IMPORT_PROBES):
        rc, out, err, _ = run_child([sys.executable, "-c", code])
        if rc != 0:
            raise RuntimeError(err.decode("utf-8", "replace"))
        imports.append(float(out) * 1000)
        starts.append(run_child([sys.executable, "-c", "pass"])[3] * 1000)
    return statistics.median(imports), statistics.median(starts)


def traced(w, run_dir: Path, trace_file: Path | None):
    check = Checker(w)
    res = worker(job_for(w, "traced", trace_rounds=w.trace_rounds,
                         trace_file=str(trace_file) if trace_file else None),
                 cwd=run_dir)
    i = 0
    for ri in range(w.trace_rounds):
        for k in range(len(w.rounds[ri])):
            check(ri, k, res["answers"][i])
            i += 1
    metrics = {name: (res["layers"][name], unit_of(name)) for name in LAYER_METRICS}
    imported, started = import_ms()
    metrics["cli.import_ms"] = (imported, "ms")
    metrics["cli.start_ms"] = (started, "ms")
    metrics["trace.overhead_pct"] = (
        (res["traced_wall"] / res["untraced_wall"] - 1) * 100, "%")
    notes = {"absent": res["absent"], "ops": res["n"]}
    return check, metrics, notes


def measure(w, seconds: float, trace: bool, trace_file: Path | None = None):
    run_dir = ROOT / ".bench_run" / f"{w.name}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in w.files.items():
            (run_dir / name).write_text(text, encoding="utf-8")
        if trace:
            return traced(w, run_dir, trace_file)
        return end_to_end(w, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "xpathsat" / "__init__.py").is_file():
        print(f"error: no xpathsat package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload](args.seed)
    trace_file = None
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{w.name}-{args.seed}.tsv"
    check, metrics, notes = measure(w, args.seconds, bool(args.trace), trace_file)

    print(f"workload {w.name} seed {args.seed}: attempted {check.attempted}, "
          f"failed {check.failed}, {json.dumps(notes)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": check.unexpected == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
