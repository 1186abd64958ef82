"""Static satisfiability of navigational XPath queries under a DTD.

The library decides, without building documents, whether any document
conforming to a DTD (from a syntactically checkable class) matches a query,
and ships a bounded exhaustive oracle to cross-check every answer.
"""

from .content_model import (
    Concat, Disj, Epsilon, Expr, Hash, Opt, Plus, Star, Symbol,
    equivalence_counterexample, equivalent, expand_hash,
    matches, parse_content_model, render,
)
from .constraints import (
    SibEntry, SibMap, consistent, coverable, first_violation, psi,
    render_map,
)
from .dtd import (
    Dtd, classify_dtd, classify_model, delta, delta_dtd, is_dc, is_dc_qph,
    is_df, is_mdf_dc, is_mrw, is_rw, load_dtd, parse_dtd, parse_xml_dtd,
    render_dtd, validate_no_useless,
)
from .errors import DtdError, NotMRW, ParseError, UnsupportedFragment
from .oracle import (
    DocTree, conforms, eval_xpath_full, iter_trees,
    oracle_satisfiable, parse_tree, render_tree, satisfies, words_capped,
)
from .sat_checker import (
    Eval2Tuple, Verdict, compile_dtd, eval1, eval2, render_state,
    render_tuple_set, satisfiable,
)
from .schema_graph import (
    DcFactor, SchemaGraph, SgNode, build_schema_graph, dc_convert,
)
from .xpath import (
    Axis, Path, QAnd, QOr, QPath, Qual, Seq, Step, Union, fragment_of,
    normalize, parse_xpath, render_xpath, size,
)

__all__ = """
    Concat Disj Epsilon Expr Hash Opt Plus Star Symbol equivalence_counterexample equivalent
    expand_hash matches parse_content_model render SibEntry SibMap consistent coverable
    first_violation psi render_map Dtd classify_dtd classify_model delta delta_dtd is_dc
    is_dc_qph is_df is_mdf_dc is_mrw is_rw load_dtd parse_dtd parse_xml_dtd render_dtd
    validate_no_useless DtdError NotMRW ParseError UnsupportedFragment DocTree conforms
    eval_xpath_full iter_trees oracle_satisfiable parse_tree render_tree
    satisfies words_capped Eval2Tuple Verdict compile_dtd eval1 eval2 render_state
    render_tuple_set satisfiable DcFactor SchemaGraph SgNode build_schema_graph dc_convert
    Axis Path QAnd QOr QPath Qual Seq Step Union fragment_of normalize parse_xpath
    render_xpath size
""".split()
__version__ = "0.1.0"
