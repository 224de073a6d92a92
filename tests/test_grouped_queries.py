"""The suite queries on the grouped aggregate
(dqm_ray/state/reduce.py::grouped_aggregate) against their DuckDB
oracles on sf0.001, compared as tools/selfcheck.py compares: row count,
columns, values compared as their string forms, and dtype kind."""

import inspect
import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import __ray_entry__ as entry  # noqa: E402
import selfcheck  # noqa: E402

# the sf0.001 sibling of the scale oracle_sql defaults to
SF_DIR = os.path.join(os.path.dirname(inspect.signature(
    entry.oracle_sql).parameters["sf_dir"].default), "sf0.001")

# join_native is left out: Ray Data's Dataset.join asks for its 16
# hash-shuffle aggregators' memory up front (~14 GiB) and waits for it
# without end on a node with less.
GROUPED_QUERIES = [
    "q1_pricing", "events_hourly", "seg_revenue", "join_order_lines",
    "union_counts", "props_stats", "events_sliding",
    "bucketed_join_revenue", "rollup_revenue", "jsonl_ingest",
    "csv_ingest", "dup_report", "events_in_window", "anti_join_no_urgent",
    "top_terms", "tfidf_keywords", "train_bigram_lm", "train_trigram_lm",
    "length_quantiles", "value_outliers", "sketch_quantiles",
    "ccnet_buckets", "pack_sequences", "shuffle_order", "budget_sample",
    "grouped_split", "zscore_chars", "salted_group_stats",
]


@pytest.fixture(scope="module")
def oracles():
    import duckdb

    con = duckdb.connect()
    for t in selfcheck.TABLES:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    yield con, entry.oracle_sql(SF_DIR)
    con.close()


@pytest.mark.skipif(not os.path.isdir(SF_DIR), reason="no sf0.001 data")
@pytest.mark.parametrize("name", GROUPED_QUERIES)
def test_grouped_query_matches_oracle(ray_session, oracles, name):
    con, sql = oracles
    got = selfcheck.to_pandas(entry.queries()[name](SF_DIR))
    assert selfcheck.compare(got, con.sql(sql[name]).df()) == [], name


@pytest.mark.skipif(not os.path.isdir(SF_DIR), reason="no sf0.001 data")
def test_dup_report_matches_oracle_at_k4(ray_session, oracles,
                                         reduce_at_budget):
    """dup_report's per-(sha, lang) counts, cut into K = 4 parts by the
    sha (a third of their partial bytes per part), still fold to the
    oracle's per-lang rows."""
    from dqm_ray.state.reduce import SMALL_REDUCE_BYTES

    con, sql = oracles

    def run():
        return selfcheck.to_pandas(entry.queries()["dup_report"](SF_DIR))

    _, k1, nbytes, _ = reduce_at_budget(SMALL_REDUCE_BYTES, run,
                                        "dup_report")
    got, k4, _, _ = reduce_at_budget(nbytes // 3, run, "dup_report")
    assert (k1, k4) == (1, 4)
    assert selfcheck.compare(got, con.sql(sql["dup_report"]).df()) == []
