"""Static satisfiability of navigational XPath queries under a DTD.

The library decides, without building documents, whether any document
conforming to a DTD (from a syntactically checkable class) matches a query,
and ships a bounded exhaustive oracle to cross-check every answer.

`import xpathsat` loads no submodule: each name below resolves on first use
(PEP 562), importing the submodule that defines it, and is kept, so the
oracle loads only when a name of its is read.
"""

from importlib import import_module

_EXPORTS = {
    "content_model": """Concat Disj Epsilon Expr Hash Opt Plus Star Symbol equivalence_counterexample
        equivalent expand_hash matches parse_content_model render""",
    "constraints": "SibEntry SibMap consistent coverable first_violation psi render_map",
    "dtd": """Dtd classify_dtd classify_model delta delta_dtd is_dc is_dc_qph is_df is_mdf_dc
        is_mrw is_rw load_dtd parse_dtd parse_xml_dtd render_dtd validate_no_useless""",
    "errors": "DtdError NotMRW ParseError UnsupportedFragment",
    "oracle": """DocTree conforms eval_xpath_full iter_trees oracle_satisfiable parse_tree
        render_tree satisfies words_capped""",
    "sat_checker": """Eval2Tuple Verdict compile_dtd eval1 eval2 fragment_of render_state
        render_tuple_set satisfiable""",
    "schema_graph": "DcFactor SchemaGraph SgNode build_schema_graph dc_convert",
    "xpath": "Axis Path QAnd QOr QPath Qual Seq Step Union normalize parse_xpath render_xpath size",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
