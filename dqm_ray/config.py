"""Typed pipeline configuration — the analog of the reference's jsonnet
``Conf`` record (reference: schema/dqm/dqmprocessor.jsonnet:35-64), as a
plain dataclass.

Every threshold the rule/scrub/scorer stages use lives here so that the
vectorized Ray stages and the naive pure-python oracle
(:mod:`dqm_ray.oracle`) share one source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Autogenerated-file markers searched in the head of each file
# (rule analog of the reference's named-check registry,
# include/dqm/Pipeline.hpp:104-109).
AUTOGEN_MARKERS: tuple[str, ...] = (
    "DO NOT EDIT",
    "@generated",
    "Code generated by",
)

# PII / secret scrub patterns, applied IN ORDER (order is part of the
# contract — rewrites compose). RE2-compatible so the same pattern string
# runs in pyarrow.compute (RE2), DuckDB (RE2) and python `re`.
SCRUB_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b(?:[0-9]{1,3}\.){3}[0-9]{1,3}\b", "<IP>"),
    ("key", r"\b(?:AKIA[0-9A-Z]{16}|ghp_[A-Za-z0-9]{36})\b", "<KEY>"),
)

# Distinctive per-language markers for the langid mismatch rule
# (analog of the reference's per-frontend template specialization,
# include/dqm/FormatUtils.hpp:16-79 — per-lang profiles instead of
# C++ templates).
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "python": ("def ", "import ", "self."),
    "javascript": ("function ", "const ", "=>"),
    "c": ("#include", "int ", "struct "),
    "go": ("func ", "package ", ":="),
    "markdown": ("# ", "```", "]("),
}


@dataclass(frozen=True)
class ScrubConfig:
    """Compiled-regex PII/secret scrub settings."""

    patterns: tuple[tuple[str, str, str], ...] = SCRUB_PATTERNS


@dataclass(frozen=True)
class QualityConfig:
    """All knobs of the quality-filter pipeline.

    Defaults are the "reference labels" contract: the oracle and the Ray
    stages both read these, so changing a default changes both sides.
    """

    # --- heuristic rules (stateless; SURVEY §2.2 P2-P4 analogs) ---
    max_line_len: int = 1000          # drop if any line longer
    max_mean_line_len: float = 100.0  # drop if mean line length above
    min_alnum_frac: float = 0.25      # drop if alnum chars / chars below
    max_dup_line_ratio: float = 0.5   # drop if 1 - unique/total lines above
    dup_min_lines: int = 10           # dup rule applies only at >= this many lines
    autogen_scan_chars: int = 1024    # marker search window from file head
    autogen_markers: tuple[str, ...] = AUTOGEN_MARKERS

    # --- analysis truncation (max_frames analog, include/dqm/Decoder.hpp:57-60)
    # rules/scoring inspect at most this many leading characters; the full
    # content is still carried through and scrubbed/written.
    analyze_prefix_chars: int = 65536

    # --- stateful scorer (SURVEY §2.3 T1/T2 analogs) ---
    # langid/perplexity read only the file head — 8 KB is plenty for
    # language identity and keeps the scorer scan cost independent of
    # huge files (separate from the 64 KB rules prefix)
    scorer_prefix_chars: int = 8192
    langid_min_marker_hits: int = 1     # detected lang needs >= hits
    langid_min_lines: int = 3           # mismatch rule needs >= lines
    max_log_ppl: float = 4.4            # drop if char-bigram log-perplexity above
    # external model artifact: path to a training-text file loaded ONCE
    # per worker process (the ChannelMapFiller analog — build-once state
    # filled from an external source, include/dqm/ChannelMapFiller.hpp:38-75).
    # None = the deterministic built-in corpus.training_text(). A real
    # fastText/KenLM binary drops into the same slot when its runtime is
    # available (not in this sandbox).
    model_path: str | None = None

    # --- scrub ---
    scrub: ScrubConfig = field(default_factory=ScrubConfig)

    # --- partitioning / metrics / resume (SURVEY §4.2) ---
    num_partitions: int = 16            # partition_id = hash64(repo) % this
    fail_fast_on_lineage: bool = True   # sha256 mismatch raises (P3/P5 analog)
    # per-batch rows for the fused chain: large enough to amortize kernel
    # dispatch (~45 MB/batch at typical row sizes), small enough that
    # batch × workers fits worker heaps even with 512 KB outlier rows
    rule_batch_size: int = 4096
    # K2 analog (message splitter, include/dqm/ChannelStream.hpp:170-221:
    # serialized messages split so no unit exceeds the 0.99 MB transport
    # cap): output parquet row groups — the transport/read unit for
    # downstream consumers — are capped at this many in-memory bytes, so
    # one oversized shard can never produce a row group a reader must
    # swallow whole. 64 MiB default (row groups are column-compressed;
    # a 0.99 MB cap would shred compression at 100-TB scale).
    max_row_group_bytes: int = 64 << 20

    # rules applied, in order (named-check registry analog,
    # include/dqm/Pipeline.hpp:104-129). Names resolve in dqm_ray.registry.
    enabled_rules: tuple[str, ...] = (
        "empty",
        "long_lines",
        "mean_line_len",
        "low_alnum",
        "dup_lines",
        "autogen",
    )
    enabled_scorer_rules: tuple[str, ...] = ("lang_mismatch", "high_ppl")

    # user-registered extra rules (dqm_ray.registry.register_rule), applied
    # after the built-ins, in this order
    custom_rules: tuple[str, ...] = ()

    # langs admitted by the normalize stage (None = all) — the analog of
    # decode<T> dropping unsupported fragment types (include/dqm/Decoder.hpp:45-48)
    allowed_langs: tuple[str, ...] | None = None


DEFAULT_CONFIG = QualityConfig()
