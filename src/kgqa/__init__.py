"""Knowledge-graph question answering pipeline.

Parses questions into decomposition trees, prunes per-question subgraphs with
masked multi-channel embedding recall, enriches the kept triples through a
pluggable text-generation provider, answers over the enriched graph, and
evaluates both answers and graph quality with cost accounting.
"""

from .answering import AnswerSet, build_qa_prompt, normalize_answer, parse_final_answers
from .embedding import (
    EmbeddingCache,
    ReferenceEmbedder,
    embed_batch,
    embed_reference,
    similarity,
)
from .enrichment import (
    ONTOLOGY_RELATIONS,
    EnrichedTriple,
    Provenance,
    build_feature_prompt,
    filter_and_build_structural_prompt,
    merge_enriched,
    parse_feature_output,
    parse_structural_output,
)
from .evaluation import (
    EvalReport,
    GraphQualityReport,
    build_eval_report,
    export_quality_report,
    graph_quality,
    hits_at_1,
    prf1,
    redundancy_score,
    relevance_score,
    semantic_richness,
)
from .gateway import (
    ChatRequest,
    CostLedger,
    Gateway,
    PriceTable,
    PromptTemplate,
    ScriptedStubProvider,
    TransportError,
    cost_report,
    estimate_tokens,
    load_template,
    load_templates,
    render_template,
)
from .graph import (
    Triple,
    extract_paths,
    graph_keys,
    group_by_endpoints,
    load_graph,
    textualize_triple,
)
from .pipeline import (
    DatasetRecord,
    PipelineContext,
    RunConfig,
    StageArtifact,
    StageError,
    load_dataset,
    run_all,
    run_stage,
    sweep_k,
)
from .pruning import (
    CHANNELS,
    MaskChannel,
    PrunedGraph,
    ScoredTriple,
    rank_rows,
    render_masked,
    score_columns,
    score_graph,
    select_top_k,
)
from .queries import (
    QueryDecomposition,
    QueryNode,
    decompose,
    parse_decomposition_tree,
)

__version__ = "0.1.0"
