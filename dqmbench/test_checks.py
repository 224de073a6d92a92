"""Tests of the benchmark's own machinery: each output checker accepts a
correct output and catches a planted wrong one; spans give exact self
times; BENCHMARK.json names exactly the metrics the runs print.

Run from the repository root: ``python3 -m pytest dqmbench -q``.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pyarrow as pa
import pytest

from dqmbench.checks import check_dedup, check_filter, digest
from dqmbench.inputs import _filter_expected, dedup_twin, pattern_targets
from dqmbench.trace import Tracer, ray_counters

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def filter_case():
    """A small corpus, its oracle labels, and the engine's real output
    (the fused stage chain run in-process, as the filewise runner's
    workers run it)."""
    from dqm_ray.config import QualityConfig
    from dqm_ray.corpus import generate_corpus
    from dqm_ray.pipelines.quality import QualityStage

    table = generate_corpus(240, seed=5).drop_columns(["pattern"])
    expected = _filter_expected(table)
    out = QualityStage(QualityConfig())(table)
    return expected, out.select(["repo", "path", "commit", "keep",
                                 "content", "sha256"])


def _set(table: pa.Table, name: str, values) -> pa.Table:
    i = table.column_names.index(name)
    return table.set_column(i, name, pa.array(values,
                                              table.schema.field(i).type))


def test_filter_check_accepts_engine_output(filter_case):
    expected, out = filter_case
    assert check_filter(expected, out) == []


def test_filter_check_catches_flipped_keep(filter_case):
    expected, out = filter_case
    keep = out.column("keep").to_pylist()
    keep[17] = not keep[17]
    problems = check_filter(expected, _set(out, "keep", keep))
    assert len(problems) == 1 and "wrong keep" in problems[0]


def test_filter_check_catches_unscrubbed_content(filter_case):
    expected, out = filter_case
    content = out.column("content").to_pylist()
    content[3] += "contact: alice@example.com\n"
    problems = check_filter(expected, _set(out, "content", content))
    assert len(problems) == 1 and "wrong content" in problems[0]


def test_filter_check_catches_dropped_and_duplicated_rows(filter_case):
    expected, out = filter_case
    assert any("missing" in p for p in check_filter(expected, out.slice(1)))
    doubled = pa.concat_tables([out, out.slice(0, 1)])
    assert any("duplicate" in p for p in check_filter(expected, doubled))


@pytest.fixture(scope="module")
def dedup_case():
    ids = [5, 1, 9, 3, 7, 2]
    texts = ["a\nshared line xx", "b", "a\nshared line xx", "c", "b", "d"]
    win, cleaned, removed = dedup_twin(ids, texts, min_len=3, min_docs=1)
    expected = pa.table({
        "doc_id": pa.array(win, pa.int64()),
        "text_digest": pa.array([digest(t) for t in cleaned]),
        "n_removed": pa.array(removed, pa.int64())})
    out = pa.table({"doc_id": pa.array(win, pa.int64()),
                    "text": pa.array(cleaned),
                    "n_removed": pa.array(removed, pa.int64())})
    return expected, out


def test_dedup_twin_picks_min_id_and_removes_frequent_lines():
    ids = list(range(12))
    texts = [f"banner line here\nbody {i}" for i in range(11)] + ["solo"]
    texts[3] = texts[4]  # doc 4 is a copy of doc 3's text: 3 wins
    win, cleaned, removed = dedup_twin(ids, texts)
    assert win == [0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11]
    # "banner line here" is in 10 distinct winner docs (>= min_docs)
    assert cleaned[:2] == ["body 0", "body 1"] and removed[:2] == [1, 1]
    assert cleaned[-1] == "solo" and removed[-1] == 0


def test_dedup_check_accepts_twin_output(dedup_case):
    expected, out = dedup_case
    assert check_dedup(expected, out) == []


def test_dedup_check_catches_dropped_winner(dedup_case):
    expected, out = dedup_case
    problems = check_dedup(expected, out.slice(1))
    assert any("winners missing" in p for p in problems)


def test_dedup_check_catches_wrong_winner_and_text(dedup_case):
    expected, out = dedup_case
    ids = out.column("doc_id").to_pylist()
    ids[0] = 9  # a copy's id instead of its text's min id
    assert any("not a winner" in p
               for p in check_dedup(expected, _set(out, "doc_id", ids)))
    texts = out.column("text").to_pylist()
    texts[0] += "\nshared line xx"
    assert any("cleaned text" in p
               for p in check_dedup(expected, _set(out, "text", texts)))


def test_pattern_targets_are_exact():
    from dqm_ray.corpus import PATTERNS

    t = pattern_targets(2000, PATTERNS)
    assert sum(t.values()) == 2000 and t["huge"] == 40


def test_self_time_subtracts_children():
    tr = Tracer()
    with tr.span("pass") as p:
        with tr.span("a") as a:
            pass
        with tr.span("b") as b:
            with tr.span("c"):
                pass
    covered = a.duration + b.duration
    assert tr.self_time(p) == pytest.approx(p.duration - covered)
    assert [s.name for s in tr.descendants(p)] == ["a", "b", "c"]


def test_ray_counters_count_each_dataset_once():
    def op(name, sub, ms, rows, tasks):
        return SimpleNamespace(
            operator_name=name, is_sub_operator=sub,
            wall_time={"sum": ms / 1e3}, output_num_rows={"sum": rows},
            block_execution_summary_str=f"{tasks} tasks executed, 2 blocks")

    read = SimpleNamespace(dataset_uuid="r", parents=[],
                           operators_stats=[op("ReadParquet", False, 1, 10, 8)])
    agg = SimpleNamespace(dataset_uuid="g", parents=[read], operators_stats=[
        op("AggregateMap", True, 20, 10, 1),
        op("AggregateReduce", True, 5, 4, 1)])
    c = ray_counters([agg, read])
    assert c == {"alltoall_ms": pytest.approx(25.0), "alltoall_rows": 14,
                 "map_tasks": 8}


def test_benchmark_json_names_what_runs_print():
    from dqmbench import inputs
    from dqmbench.run import END_TO_END_UNITS
    from dqmbench.workloads import LAYER_METRICS, WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS) \
        == list(inputs.WORKLOADS)
