"""Runs operations against `xpathsat` in a fresh interpreter.

Reads one JSON job from stdin and writes one JSON result to stdout.  The
package is imported from the `src` directory the job names, after the
clock for set-up has started, so set-up covers the import.

Modes:

* ``setup``: import, `load_dtd` every DTD, run the warm-up operations;
  report the time all of that took, and speed slices timed just before
  and after it.
* ``timed``: set up, then run whole rounds of operations until `seconds`
  have passed; report per-operation latencies and answers, the timed wall
  time, the speed slices interleaved with the operations and this
  process's peak RSS.
* ``traced``: set up, then run the first `trace_rounds` rounds once
  untraced and once traced (see tracer.py); report both wall times, the
  answers of the traced pass and the per-layer figures.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from speed import speed_slice


def _setup(job):
    t0 = time.perf_counter()
    sys.path.insert(0, job["src"])
    import xpathsat  # noqa: F401  (the import is part of set-up)
    from xpathsat.dtd import load_dtd

    dtds = [load_dtd(text) for text in job["dtds"]]
    for op in job["warm"]:
        run_op(dtds, op)
    return dtds, time.perf_counter() - t0


def run_op(dtds, op):
    """One verdict.  Returns what the checker compares: [sat, algorithm] for
    `sat`, the witness term or None for `oracle`, [exit code, stdout] for a
    `cli` argument list replayed through `cli.main`."""
    from xpathsat import oracle, sat_checker, xpath

    if op["kind"] == "cli":
        from xpathsat import cli

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(op["argv"])
        return [code, out.getvalue()]
    if op["kind"] == "sat":
        v = sat_checker.satisfiable(dtds[op["dtd"]], op["query"])
        return [v.sat, v.algorithm]
    p = xpath.parse_xpath(op["query"])
    t = oracle.oracle_satisfiable(dtds[op["dtd"]], p, op["depth"], op["rep"])
    return None if t is None else oracle.render_tree(t)


def guarded(dtds, op):
    """run_op, with an exception turned into an answer no check accepts."""
    try:
        return run_op(dtds, op)
    except Exception as exc:  # a raising operation counts as failed
        return ["raised", f"{type(exc).__name__}: {exc}"[:200]]


def _timed(job, dtds):
    """Whole rounds until `seconds` have passed, one speed slice after each
    operation; `wall` excludes the slices."""
    rounds, seconds = job["rounds"], job["seconds"]
    lat, answers, order, slices = [], [], [], []
    clock = time.perf_counter
    t0 = clock()
    r = 0
    while r == 0 or clock() - t0 < seconds:
        ri = r % len(rounds)
        for k, op in enumerate(rounds[ri]):
            a = clock()
            ans = guarded(dtds, op)
            lat.append(clock() - a)
            answers.append(ans)
            order.append([ri, k])
            slices.append(speed_slice())
        r += 1
    wall = clock() - t0 - sum(slices)
    return {"lat": lat, "answers": answers, "order": order, "wall": wall,
            "slices": slices,
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def _traced(job, dtds):
    """Each pass loads every DTD again (operation id -1), then runs the
    operations of the first `trace_rounds` rounds."""
    import tracer
    from xpathsat import dtd as dtd_module

    rounds = job["rounds"][:job["trace_rounds"]]
    ops = [op for r in rounds for op in r]
    clock = time.perf_counter
    t0 = clock()
    for text in job["dtds"]:
        dtd_module.load_dtd(text)
    for op in ops:
        guarded(dtds, op)
    untraced = clock() - t0

    tr = tracer.Tracer()
    tr.install()
    t0 = clock()
    try:
        for text in job["dtds"]:
            dtd_module.load_dtd(text)
        answers = []
        for i, op in enumerate(ops):
            tr.op = i
            answers.append(guarded(dtds, op))
    finally:
        traced = clock() - t0
        tr.uninstall()
    if job.get("trace_file"):
        tr.write(job["trace_file"])
    return {"answers": answers, "untraced_wall": untraced, "traced_wall": traced,
            "layers": tr.metrics(), "absent": tr.absent, "n": len(ops)}


def main() -> None:
    job = json.load(sys.stdin)
    before = [speed_slice() for _ in range(10)]
    dtds, setup_s = _setup(job)
    after = [speed_slice() for _ in range(10)]
    out = {"setup_s": setup_s, "setup_slices": before + after}
    if job["mode"] == "timed":
        out.update(_timed(job, dtds))
    elif job["mode"] == "traced":
        out.update(_traced(job, dtds))
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
