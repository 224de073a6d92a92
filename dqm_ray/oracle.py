"""Naive single-process reference implementation of the quality-filter
contract — the "reference labels" of the north rule.

Mirrors the reference's oracle strategy (randomized data vs a direct
two-pass formula, unittest/RMS_test.cxx:26-69; golden outputs from an
independent implementation, unittest/Fourier_test_generator.py:11-38):
this module computes keep/drop/reasons/scrubbed text/sha256 per row with
plain python loops and the `re` module, deliberately sharing NO code with
the vectorized Arrow stages it validates. Only the thresholds
(:class:`dqm_ray.config.QualityConfig`) are shared.
"""

from __future__ import annotations

import hashlib
import math
import re

from dqm_ray.config import LANG_MARKERS, QualityConfig

_ALNUM = re.compile(r"[A-Za-z0-9]")


def row_metrics(content: str, cfg: QualityConfig) -> dict:
    prefix = content[: cfg.analyze_prefix_chars]
    lines = prefix.split("\n")
    lens = [len(ln) for ln in lines]
    n_lines = len(lines)
    total = sum(lens)
    alnum = len(_ALNUM.findall(prefix))
    return {
        "n_chars": len(content),
        "n_lines": n_lines,
        "max_line_len": max(lens) if lens else 0,
        "mean_line_len": (total / n_lines) if n_lines else 0.0,
        "alnum_frac": (alnum / len(prefix)) if prefix else 0.0,
        "dup_line_ratio": (1.0 - len(set(lines)) / n_lines) if n_lines else 0.0,
        "is_empty": prefix.strip() == "",
        "has_autogen": any(m in prefix[: cfg.autogen_scan_chars]
                           for m in cfg.autogen_markers),
    }


def heuristic_reasons(m: dict, cfg: QualityConfig) -> list[str]:
    reasons = []
    for rule in cfg.enabled_rules:
        if rule == "empty" and m["is_empty"]:
            reasons.append("empty")
        elif rule == "long_lines" and m["max_line_len"] > cfg.max_line_len:
            reasons.append("long_lines")
        elif rule == "mean_line_len" and not m["is_empty"] \
                and m["mean_line_len"] > cfg.max_mean_line_len:
            reasons.append("mean_line_len")
        elif rule == "low_alnum" and not m["is_empty"] \
                and m["alnum_frac"] < cfg.min_alnum_frac:
            reasons.append("low_alnum")
        elif rule == "dup_lines" and m["n_lines"] >= cfg.dup_min_lines \
                and m["dup_line_ratio"] > cfg.max_dup_line_ratio:
            reasons.append("dup_lines")
        elif rule == "autogen" and m["has_autogen"]:
            reasons.append("autogen")
    return reasons


def detect_lang(prefix: str, cfg: QualityConfig) -> str:
    best, best_hits = "unknown", 0
    for lang, markers in LANG_MARKERS.items():
        hits = sum(prefix.count(mk) for mk in markers)
        if hits > best_hits:
            best, best_hits = lang, hits
    return best if best_hits >= cfg.langid_min_marker_hits else "unknown"


class BigramModel:
    """Char-bigram language model with add-one smoothing over a 128-symbol
    alphabet (ASCII; everything else buckets to 127). The naive loop
    version of the scorer's vectorized model."""

    V = 128

    def __init__(self, training_text: str):
        counts = [[0] * self.V for _ in range(self.V)]
        row_tot = [0] * self.V
        ids = [min(ord(c), 127) for c in training_text]
        for a, b in zip(ids, ids[1:]):
            counts[a][b] += 1
            row_tot[a] += 1
        self._log_p = [
            [math.log((counts[a][b] + 1) / (row_tot[a] + self.V))
             for b in range(self.V)]
            for a in range(self.V)
        ]

    def log_ppl(self, text: str) -> float:
        ids = [min(ord(c), 127) for c in text]
        if len(ids) < 2:
            return 0.0
        s = 0.0
        for a, b in zip(ids, ids[1:]):
            s += self._log_p[a][b]
        return -s / (len(ids) - 1)


def scorer_reasons(content: str, declared_lang: str, model: BigramModel,
                   cfg: QualityConfig) -> tuple[list[str], str, float]:
    prefix = content[: cfg.scorer_prefix_chars]
    detected = detect_lang(prefix, cfg)
    ppl = model.log_ppl(prefix)
    reasons = []
    n_lines = len(prefix.split("\n"))
    for rule in cfg.enabled_scorer_rules:
        if rule == "lang_mismatch" and declared_lang in LANG_MARKERS \
                and n_lines >= cfg.langid_min_lines and prefix.strip():
            hits = sum(prefix.count(mk) for mk in LANG_MARKERS[declared_lang])
            if hits == 0:
                reasons.append("lang_mismatch")
        elif rule == "high_ppl" and ppl > cfg.max_log_ppl:
            reasons.append("high_ppl")
    return reasons, detected, ppl


def scrub_text(content: str, cfg: QualityConfig) -> str:
    out = content
    for _name, pattern, repl in cfg.scrub.patterns:
        # re.ASCII: python's unicode-aware \b disagrees with RE2's
        # ASCII-only \b (the engine and DuckDB are both RE2 — that is
        # the contract; found by hypothesis on '¹10.0.0.1¹')
        out = re.sub(pattern, repl, out, flags=re.ASCII)
    return out


def label_row(content: str, declared_lang: str, model: BigramModel,
              cfg: QualityConfig) -> dict:
    """Full per-row contract: metrics + reasons + keep + scrub + sha256."""
    m = row_metrics(content, cfg)
    reasons = heuristic_reasons(m, cfg)
    s_reasons, detected, ppl = scorer_reasons(content, declared_lang, model, cfg)
    reasons += s_reasons
    scrubbed = scrub_text(content, cfg)
    return {
        **m,
        "detected_lang": detected,
        "log_ppl": ppl,
        "reasons": reasons,
        "keep": not reasons,
        "scrubbed_content": scrubbed,
        "scrubbed": scrubbed != content,
        "sha256": hashlib.sha256(content.encode("utf-8")).hexdigest(),
    }


def label_table(table, cfg: QualityConfig | None = None,
                model: BigramModel | None = None) -> list[dict]:
    """Label a pyarrow table with (lang, content) columns; returns one dict
    per row (plus identity passthrough of repo/path/commit if present)."""
    from dqm_ray.corpus import training_text

    cfg = cfg or QualityConfig()
    model = model or BigramModel(training_text())
    langs = table["lang"].to_pylist()
    contents = table["content"].to_pylist()
    ids = {c: table[c].to_pylist() for c in ("repo", "path", "commit")
           if c in table.column_names}
    out = []
    for i, (lang, content) in enumerate(zip(langs, contents)):
        row = label_row(content, lang, model, cfg)
        for c, vals in ids.items():
            row[c] = vals[i]
        out.append(row)
    return out
