"""One graph, many views.

A single in-memory store holds statements with globally unique statement
identifiers; statements about statements are ordinary data. Plain RDF,
RDF-star, property-graph, and dataset readings are projections (``views``),
merging is configurable term rewriting (``merge``), and cross-model updates
take explicit ambiguity policies (``update``).
"""

from .datatypes import (
    OG_LIST,
    RDF_LANG_STRING,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DATETIME,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    CoercionTally,
    Literal,
    Scalar,
    coerce_lpg_value,
    coerce_to_lpg,
    list_fold,
    list_unfold,
    validate,
)
from .errors import (
    AmbiguousTargetError,
    BadTemplateError,
    DanglingSidError,
    NamespaceError,
    NestingOverflowError,
    NotFoundError,
    OgError,
    ParseError,
    PositionError,
    ReferencedSidError,
    SidCollisionError,
    UnknownEndpointError,
    UnsupportedValueError,
    WrongDatatypeError,
)
from .formats import (
    parse_lpg_jsonl,
    parse_ntriples,
    parse_ognq,
    parse_term_text,
    parse_turtle_star,
    serialize_lpg_jsonl,
    serialize_ntriples,
    serialize_ognq,
    serialize_turtle_star,
)
from .merge import (
    BlankNodePolicy,
    EdgeIdentity,
    ExplicitPair,
    MergeReport,
    MergeRules,
    Template,
    load_rules,
    merge,
)
from .statements import Statement, StatementPattern, is_ground, referenced_sids, term_key
from .store import IN_GRAPH, DeletePolicy, Store
from .terms import (
    SID_IRI_PREFIX,
    BlankNode,
    Iri,
    LocalId,
    Sid,
    SidFactory,
    SidRef,
    parse_sid_text,
    sid_from_iri_text,
    sid_iri,
    sid_text,
)
from .update import (
    AmbiguityPolicy,
    InsertSemantics,
    lpg_add_edge,
    lpg_set_property,
    rdf_delete_triple,
    rdf_insert_triple,
    star_annotate,
)
from .views import (
    DEFAULT_LOCAL_NS,
    DEFAULT_VERTEX_LABEL,
    Dataset,
    Edge,
    LpgGraph,
    LpgViewConfig,
    QuotedTriple,
    RdfGraph,
    RdfMode,
    RdfStarGraph,
    Vertex,
    VertexProperty,
    dataset_view,
    expose_local_as_iri,
    local_from_iri,
    lpg_view,
    rdf_star_view,
    rdf_view,
    shorten_iri,
    triple_key,
)

__version__ = "0.1.0"
