from .components import connected_components, connected_components_ds
from .decontaminate import (
    benchmark_bloom,
    decontaminate,
    explode_lines,
    explode_token_ngrams,
    flag_contaminated,
    novelty_scores,
    reference_gram_index,
)
from .containment import containment_pairs
from .drift import categorical_drift
from .joinplan import planned_join, sketch_join_plan
from .dedup import (
    add_content_hash,
    cap_per_key,
    dedup_lines_keep_first,
    exact_dedup,
    lsh_candidate_pairs,
    minhash_dedup,
    minhash_join,
    ngram_jaccard,
    simhash64,
    simhash_candidate_pairs,
    simhash_candidates,
)
from .keyset import KeySet, cleanup_shard_dirs
from .budget import token_budget_cutoffs, token_budget_select
from .embed import DocumentEmbedder, embed_documents
from .heavy import exact_heavy_hitters
from .shuffle import (
    curriculum_export,
    read_curriculum,
    read_shuffled,
    shuffled_export,
)
from .trigram import TrigramIndex
from .zonemap import (
    build_zonemap,
    cluster_by,
    prune as zonemap_prune,
    pruned_read,
    read_clustered,
)
from .editjoin import banded_levenshtein, edit_distance_pairs
from .pq import (
    IVFPQIndex,
    pq_encode,
    pq_search,
    pq_search_many,
    pq_search_refined,
    pq_train,
)
from .similarity import (
    IVFIndex,
    cosine_neardup_pairs,
    cosine_neardup_pairs_ivf,
    kmeans_assign,
    kmeans_fit,
    topk_cosine,
)
from .text import (
    LangId,
    boilerplate_lines,
    byte_entropy,
    remove_boilerplate_lines,
    bpe_token_count,
    add_text_stats,
    fingerprint64,
    pmi_bigrams,
    quality_score,
    redact_pii,
    repetition_signals,
    tfidf_top_terms,
    token_count,
    vocab_stats,
    word_count,
)
from .asof import asof_join, asof_join_bucketed, range_join
from .bpe import (
    BPEModel,
    bpe_encode_counts,
    bpe_encode_word,
    bpe_merges_from_histogram,
    bpe_train,
)
from .classify import NBModel, nb_predict, nb_train
from .dsir import dsir_logratios, dsir_select
from .lm import CharNgramLM, score_perplexity, train_char_lm
from .semdedup import semdedup
from .substrings import hot_windows, scrub_repeated_substrings
from .dedup_index import (
    minhash_index_append,
    minhash_index_build,
    minhash_index_dedup,
    minhash_index_probe,
    repair_index,
)
from .sampling import (
    attach_dup_cluster,
    cluster_split,
    hash_sample,
    mixture_sample,
    quantile_band_filter,
    sample_mask,
    split_by_key,
    temperature_fractions,
)
from .packing import pack_sequences, pack_stats
from .quantiles import exact_quantile, grouped_exact_quantile
from .features import (
    explode_list,
    mad_outliers_by_key,
    ntile_by_key,
    pivot_counts,
    rollup_counts,
    set_op_counts,
    standardize_by_key,
)
from .histogram import histogram
from .profile import profile_table, skew_report
from .reconcile import DecodeError, dataset_diff, snapshot_delta
from .urls import canonicalize_sql, canonicalize_url, host_filter, url_parts
from .graph import (
    bfs_distances,
    bfs_sql,
    hits,
    hits_sql_mirror,
    kcore,
    kcore_sql,
    pagerank,
    pagerank_sql_mirror,
    triangle_count,
    triangle_count_sql,
)
from .jsonops import json_extract, json_extract_fields
from .search import bm25_search, bm25_sql_mirror
from .search_index import (
    bm25_index_append,
    bm25_index_build,
    bm25_index_repair,
    bm25_index_search,
)
from .windows import (
    cumulative_aggregate,
    funnel_counts,
    lag_deltas,
    session_windows,
    sliding_aggregate,
    transition_counts,
    tumbling_aggregate,
)
