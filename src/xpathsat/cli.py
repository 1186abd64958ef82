"""Command-line front end.

Subcommands: classify, sat, oracle, equiv, delta, graph.  A command prints
nothing: it returns its exit code, JSON object and text lines, leaving out
(None) a form whose building costs a decider run or a render when the other
form is the one printed.  `main` alone prints the object (`--json`) or the
lines, and maps exceptions to exit codes: 0 positive answer (SAT /
equivalent / success), 1 negative or unknown answer, 2 malformed input, 3
DTD outside the supported class, 4 query outside both decision procedures,
5 internal error (a fault of the program, never an answer), 6 a failed
write of the output.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path as FsPath
from typing import Optional, Sequence

from . import content_model as cm
from . import dtd as dtdmod
from . import oracle as orc
from .errors import DtdError, NotMRW, ParseError, UnsupportedFragment
from .sat_checker import _traced_verdict, compile_dtd, satisfiable
from .xpath import parse_xpath, size

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_NOT_MRW = 3
EXIT_FRAGMENT = 4
EXIT_INTERNAL = 5
EXIT_OUTPUT = 6

Result = tuple[int, Optional[dict], Optional[Sequence[str]]]


def _load_dtd(args) -> dtdmod.Dtd:
    try:
        text = FsPath(args.dtd).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(str(exc)) from exc
    return dtdmod.load_dtd(text, fmt=args.format, root=args.root)


def _cmd_classify(args) -> Result:
    d = _load_dtd(args)
    per_rule = {lbl: dtdmod.classify_model(d.model(lbl)) for lbl in d.labels}
    dtd_level = dtdmod.classify_dtd(d)
    rows = [(f"rule {lbl}", cls) for lbl, cls in per_rule.items()] + [("dtd", dtd_level)]
    lines = [
        f"{head}: " + " ".join(f"{k}={'yes' if v else 'no'}" for k, v in cls.items())
        for head, cls in rows
    ]
    return EXIT_YES, {"root": d.root, "rules": per_rule, "dtd": dtd_level}, lines


def _cmd_sat(args) -> Result:
    d = _load_dtd(args)
    p = parse_xpath(args.xpath)
    # --trace and --json print the trace, so they take the traced run; an
    # untraced verdict renders its trace by running the decider again
    traced = args.json or args.trace
    v = (_traced_verdict if traced else satisfiable)(d, p)
    verdict = "SAT" if v.sat else "UNSAT"
    obj = {
        "verdict": verdict,
        "algorithm": v.algorithm,
        "final_state": v.final_state,
        "trace": list(v.trace),
    } if traced else None
    return (EXIT_YES if v.sat else EXIT_NO), obj, (v.trace if args.trace else [verdict])


def _cmd_oracle(args) -> Result:
    if args.depth < 1 or (args.rep is not None and args.rep < 1):
        raise ParseError("search bounds must be at least 1")
    d = _load_dtd(args)
    p = parse_xpath(args.xpath)
    rep = args.rep if args.rep is not None else max(2, size(p))
    try:
        witness = orc.oracle_satisfiable(d, p, args.depth, rep)
        term = witness and orc.render_tree(witness)
    except RecursionError:
        # building the tree space and rendering a witness recurse once per
        # level, so a deep enough bound overflows the interpreter's stack
        raise ParseError(f"depth bound {args.depth} is too deep to search") from None
    if not witness:
        return EXIT_NO, {"verdict": "UNKNOWN"}, ["UNKNOWN"]
    return EXIT_YES, {"verdict": "SAT", "witness": term}, [f"SAT {term}"]


def _cmd_equiv(args) -> Result:
    e1 = cm.parse_content_model(args.model1)
    e2 = cm.parse_content_model(args.model2)
    cx = cm.equivalence_counterexample(e1, e2)
    if cx is None:
        return EXIT_YES, {"equivalent": True}, ["equivalent"]
    obj = {"equivalent": False, "counterexample": list(cx)}
    return EXIT_NO, obj, [f"not equivalent: {' '.join(cx) if cx else 'ε'}"]


def _cmd_delta(args) -> Result:
    if args.model is not None:
        e = cm.parse_content_model(args.model)
        if not dtdmod.is_mrw(e):
            raise NotMRW("<model>", cm.render(e))
        out = cm.render(dtdmod.delta(e))
        return EXIT_YES, {"model": out}, [out]
    dd = dtdmod.delta_dtd(_load_dtd(args))
    if not args.json:
        return EXIT_YES, None, dtdmod.render_dtd(dd).splitlines()
    alphabet = frozenset(dd.labels)
    rules = {lbl: cm.render(dd.model(lbl), alphabet) for lbl in dd.labels}
    return EXIT_YES, {"root": dd.root, "rules": rules}, None


def _cmd_graph(args) -> Result:
    g = compile_dtd(_load_dtd(args))
    if args.json:
        return EXIT_YES, g.to_json_obj(), None
    return EXIT_YES, None, g.render_text().splitlines()


def _add_dtd_options(sp, model: bool = False) -> None:
    """--dtd, --format and --root; with `model`, --dtd is one of a required
    pair with --model, a single content model."""
    dtd = sp.add_mutually_exclusive_group(required=True) if model else sp
    dtd.add_argument("--dtd", required=not model, help="path to the DTD file")
    if model:
        dtd.add_argument("--model", help="a single content model")
    sp.add_argument(
        "--format", choices=["native", "xml-dtd"], default="native",
        help="DTD syntax (default: native)",
    )
    sp.add_argument("--root", default=None, help="root element override")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="xpathsat",
        description="XPath satisfiability under DTD content-model constraints",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="content-model class flags per rule")
    _add_dtd_options(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("sat", help="decide query satisfiability")
    _add_dtd_options(sp)
    sp.add_argument("--xpath", required=True, help="the query")
    sp.add_argument("--trace", action="store_true", help="print evaluation states")
    sp.set_defaults(func=_cmd_sat)

    sp = sub.add_parser("oracle", help="bounded exhaustive search for a witness")
    _add_dtd_options(sp)
    sp.add_argument("--xpath", required=True, help="the query")
    sp.add_argument("--depth", type=int, default=4, help="tree depth bound")
    sp.add_argument(
        "--rep", type=int, default=None,
        help="star repetition bound (default: max(2, query size))",
    )
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("equiv", help="language equivalence of two content models")
    sp.add_argument("model1")
    sp.add_argument("model2")
    sp.set_defaults(func=_cmd_equiv)

    sp = sub.add_parser("delta", help="normalize onto the star-only shape")
    _add_dtd_options(sp, model=True)
    sp.set_defaults(func=_cmd_delta)

    sp = sub.add_parser("graph", help="export the schema graph")
    _add_dtd_options(sp)
    sp.set_defaults(func=_cmd_graph)

    # last, so that each command's help lists it after its own options
    for sp in sub.choices.values():
        sp.add_argument("--json", action="store_true")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, obj, lines = args.func(args)
        # flushed, so that a failed write fails here and not at exit
        if args.json:
            print(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2), flush=True)
        else:
            print(*lines, sep="\n", flush=True)
        return code
    except NotMRW as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_MRW
    except UnsupportedFragment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FRAGMENT
    except (ParseError, DtdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:  # the file reads raise ParseError, so a write failed
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except Exception as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    code = main()
    if code == EXIT_OUTPUT:  # drop the unwritten output, or exit retries it
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
