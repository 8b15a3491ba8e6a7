"""The geocoder degrades exactly as its DuckDB oracle on rows that pass
a prefilter but not the full pattern (near misses), and on NULL or
empty url/text: such a row is not geocoded by that source and falls
through to the next one, as the oracle's TRY_CAST of an empty
regexp_extract does."""

import json

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from vyperdatum_ray import fixtures
from vyperdatum_ray.oracle import q_geocode as oracle_q_geocode
from vyperdatum_ray.stages.geocode import geocode_batch, keep_geocoded

VALID_TEXT = "Site survey at 36.12345 N, 75.54321 W for record."

# (url, text): near misses of every source, alone and falling through to
# a later source, next to NULL and empty values.
ROWS = [
    ("https://a/1?lat=40&lon=-73", "No coordinates here."),   # integer coordinates
    ("https://a/2/@home,1", "No coordinates here."),
    ("https://a/3", "Turn N, then left."),
    ("https://a/4?lat=40&lon=-73", VALID_TEXT),               # query miss -> text
    ("https://a/5/@home,1", VALID_TEXT),                       # path miss -> text
    ("https://a/6/@36.5,-75.25?lat=40&lon=-73", "Turn N, then"),  # query miss -> path
    ("https://a/7?lat=40.5&lon=-73", "12.5 N, 3 W is not a match."),
    ("https://a/8?lat=36.75&lon=-75.125", VALID_TEXT),         # query wins
    ("https://a/9?lat=36.75&lon=-75.125", None),              # NULL text
    ("https://a/10", None),
    ("https://a/11", ""),                                      # empty text
    ("https://a/12?lat=40&lon=-73", ""),
    ("", "Station 35.5 S, 74.25 E."),                          # empty url
    (None, VALID_TEXT),                                        # NULL url
]


def _pages(tmp_path, monkeypatch) -> str:
    """A private sf dir whose one pages shard holds ROWS."""
    monkeypatch.setattr(fixtures, "DATA_ROOT", str(tmp_path))
    sf = tmp_path / "sf_nearmiss"
    (sf / "pages").mkdir(parents=True)
    n = len(ROWS)
    path = str(sf / "pages" / "part-0000.parquet")
    pq.write_table(pa.table({
        "url": pa.array([u for u, _ in ROWS], pa.string()),
        "warc_ts": pa.array(np.arange(n, dtype=np.int64) * 1_000_000, pa.timestamp("us")),
        "text": pa.array([t for _, t in ROWS], pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
    }), path)
    with open(sf / "_MANIFEST.json", "w") as f:
        json.dump({"fixture_version": fixtures.FIXTURE_VERSION, "sf_name": sf.name,
                   "n_pages": n, "dir": str(sf), "pages": [path]}, f)
    return str(sf)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    df = df[["url", "lat", "lon", "geocode_src"]].astype({"url": object, "geocode_src": object})
    return df.sort_values(["url", "lat"], na_position="first").reset_index(drop=True)


def _oracle(sf: str) -> pd.DataFrame:
    return _sorted(duckdb.connect().execute(oracle_q_geocode(sf)).df())


def test_near_miss_rows_degrade_like_oracle(tmp_path, monkeypatch):
    sf = _pages(tmp_path, monkeypatch)
    got = keep_geocoded(geocode_batch(pq.read_table(fixtures.pages_paths(sf)[0])))
    want = _oracle(sf)
    pd.testing.assert_frame_equal(_sorted(got.to_pandas()), want)
    # the expected fall-throughs, spelled out
    src = dict(zip(want["url"].fillna("<null>"), want["geocode_src"]))
    assert src == {
        "https://a/4?lat=40&lon=-73": "text",
        "https://a/5/@home,1": "text",
        "https://a/6/@36.5,-75.25?lat=40&lon=-73": "url_path",
        "https://a/8?lat=36.75&lon=-75.125": "url_query",
        "https://a/9?lat=36.75&lon=-75.125": "url_query",
        "": "text",
        "<null>": "text",
    }


def test_near_miss_q_geocode_matches_oracle(ray_session, tmp_path, monkeypatch):
    from vyperdatum_ray.pipelines.queries import q_geocode

    sf = _pages(tmp_path, monkeypatch)
    pd.testing.assert_frame_equal(_sorted(q_geocode(sf).to_pandas()), _oracle(sf))


def test_geocode_runs_no_regex_kernel(tmp_path, monkeypatch):
    """The geocoder is a byte scan: with Arrow's regex and substring
    kernels made to raise, geocode_batch still geocodes a shard, and
    equals the oracle."""
    import pyarrow.compute as pc

    sf = _pages(tmp_path, monkeypatch)

    def boom(*args, **kwargs):
        raise AssertionError("a regex kernel ran")

    table = pq.read_table(fixtures.pages_paths(sf)[0])
    with monkeypatch.context() as m:
        for name in ("extract_regex", "match_substring_regex", "match_substring"):
            m.setattr(pc, name, boom)
        got = keep_geocoded(geocode_batch(table))
    pd.testing.assert_frame_equal(_sorted(got.to_pandas()), _oracle(sf))
