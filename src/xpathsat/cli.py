"""Command-line front end.

Subcommands: classify, sat, oracle, equiv, delta, graph.  Exit codes:
0 positive answer (SAT / equivalent / success), 1 negative or unknown answer,
2 malformed input, 3 DTD outside the supported class, 4 query outside both
decision procedures, 5 internal error (a fault of the program, never an
answer).  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

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


def _load_dtd(args) -> dtdmod.Dtd:
    text = FsPath(args.dtd).read_text(encoding="utf-8")
    return dtdmod.load_dtd(text, fmt=args.format, root=args.root)


def _emit_json(obj) -> None:
    print(json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=2))


def _cmd_classify(args) -> int:
    d = _load_dtd(args)
    per_rule = {lbl: dtdmod.classify_model(d.model(lbl)) for lbl in d.labels}
    dtd_level = dtdmod.classify_dtd(d)
    if args.json:
        _emit_json({"root": d.root, "rules": per_rule, "dtd": dtd_level})
    else:
        for lbl in d.labels:
            flags = " ".join(f"{k}={_yn(v)}" for k, v in per_rule[lbl].items())
            print(f"rule {lbl}: {flags}")
        print("dtd: " + " ".join(f"{k}={_yn(v)}" for k, v in dtd_level.items()))
    return EXIT_YES


def _yn(v: bool) -> str:
    return "yes" if v else "no"


def _cmd_sat(args) -> int:
    d = _load_dtd(args)
    p = parse_xpath(args.xpath)
    v = (_traced_verdict if args.json or args.trace else satisfiable)(d, p)
    if args.json:
        _emit_json({
            "verdict": "SAT" if v.sat else "UNSAT",
            "algorithm": v.algorithm,
            "final_state": v.final_state,
            "trace": list(v.trace),
        })
    else:
        if args.trace:
            for line in v.trace:
                print(line)
        else:
            print("SAT" if v.sat else "UNSAT")
    return EXIT_YES if v.sat else EXIT_NO


def _cmd_oracle(args) -> int:
    if args.depth < 1 or (args.rep is not None and args.rep < 1):
        raise ParseError("search bounds must be at least 1")
    d = _load_dtd(args)
    p = parse_xpath(args.xpath)
    depth = args.depth
    rep = args.rep if args.rep is not None else max(2, size(p))
    witness = orc.oracle_satisfiable(d, p, depth, rep)
    if args.json:
        obj = {"verdict": "SAT" if witness else "UNKNOWN"}
        if witness:
            obj["witness"] = orc.render_tree(witness)
        _emit_json(obj)
    else:
        print(f"SAT {orc.render_tree(witness)}" if witness else "UNKNOWN")
    return EXIT_YES if witness else EXIT_NO


def _cmd_equiv(args) -> int:
    e1 = cm.parse_content_model(args.model1)
    e2 = cm.parse_content_model(args.model2)
    cx = cm.equivalence_counterexample(e1, e2)
    if args.json:
        obj = {"equivalent": cx is None}
        if cx is not None:
            obj["counterexample"] = list(cx)
        _emit_json(obj)
    else:
        if cx is None:
            print("equivalent")
        else:
            print(f"not equivalent: {' '.join(cx) if cx else 'ε'}")
    return EXIT_YES if cx is None else EXIT_NO


def _cmd_delta(args) -> int:
    if args.model is not None:
        e = cm.parse_content_model(args.model)
        if not dtdmod.is_mrw(e):
            raise NotMRW("<model>", cm.render(e))
        out = cm.render(dtdmod.delta(e))
        if args.json:
            _emit_json({"model": out})
        else:
            print(out)
        return EXIT_YES
    d = _load_dtd(args)
    dd = dtdmod.delta_dtd(d)
    if args.json:
        _emit_json({
            "root": dd.root,
            "rules": {lbl: cm.render(dd.model(lbl)) for lbl in dd.labels},
        })
    else:
        print(dtdmod.render_dtd(dd), end="")
    return EXIT_YES


def _cmd_graph(args) -> int:
    g = compile_dtd(_load_dtd(args))
    if args.json:
        _emit_json(g.to_json_obj())
    else:
        print(g.render_text(), end="")
    return EXIT_YES


def _add_dtd_options(sp) -> None:
    sp.add_argument("--dtd", required=True, help="path to the DTD file")
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
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("sat", help="decide query satisfiability")
    _add_dtd_options(sp)
    sp.add_argument("--xpath", required=True, help="the query")
    sp.add_argument("--trace", action="store_true", help="print evaluation states")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_sat)

    sp = sub.add_parser("oracle", help="bounded exhaustive search for a witness")
    _add_dtd_options(sp)
    sp.add_argument("--xpath", required=True, help="the query")
    sp.add_argument("--depth", type=int, default=4, help="tree depth bound")
    sp.add_argument(
        "--rep", type=int, default=None,
        help="star repetition bound (default: max(2, query size))",
    )
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("equiv", help="language equivalence of two content models")
    sp.add_argument("model1")
    sp.add_argument("model2")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_equiv)

    sp = sub.add_parser("delta", help="normalize onto the star-only shape")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--dtd", help="path to the DTD file")
    group.add_argument("--model", help="a single content model")
    sp.add_argument(
        "--format", choices=["native", "xml-dtd"], default="native",
        help="DTD syntax (default: native)",
    )
    sp.add_argument("--root", default=None, help="root element override")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_delta)

    sp = sub.add_parser("graph", help="export the schema graph")
    _add_dtd_options(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_graph)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except NotMRW as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_MRW
    except UnsupportedFragment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FRAGMENT
    except (ParseError, DtdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # e.g. RecursionError on deeply stacked qualifiers
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
