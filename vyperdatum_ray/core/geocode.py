"""Geocoding: extract lat/lon from web-page ``url`` and ``text`` columns.

The graft operator M10 (SURVEY.md §2.2): the reference has no
equivalent; the north_star mandates "lat/lon parsed from url/text
fields". Three extraction patterns, checked in fixed precedence order:

1. ``url_query`` — ``...?lat=<f>&lon=<f>`` (also ``&lat=...``),
2. ``url_path``  — ``/@<lat>,<lon>`` map-style path segment,
3. ``text``      — ``"<dd.ddd> N, <dd.ddd> W"`` prose coordinates with
   hemisphere letters.

All patterns are RE2-compatible and mirrored verbatim in the DuckDB
oracle SQL (DuckDB's regex engine is also RE2); parsed float64 values
are bit-identical between the Ray pipeline and the oracle because both
use correctly-rounded decimal-string -> double conversion.

A row that a pattern does not match (a near miss such as
``?lat=40&lon=-73``, a NULL or an empty string) is not geocoded by that
source and falls through to the next one, as the oracle's ``TRY_CAST``
of an empty ``regexp_extract`` does.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Capture-group patterns (RE2). Group names only in the pyarrow variant;
# the SQL oracle uses the same patterns with positional groups.
URL_QUERY_PATTERN = r"[?&]lat=(-?\d+\.\d+)&lon=(-?\d+\.\d+)"
URL_PATH_PATTERN = r"/@(-?\d+\.\d+),(-?\d+\.\d+)"
TEXT_PATTERN = r"(\d+\.\d+) ([NS]), (\d+\.\d+) ([EW])"

_URL_QUERY_NAMED = r"[?&]lat=(?P<lat>-?\d+\.\d+)&lon=(?P<lon>-?\d+\.\d+)"
_URL_PATH_NAMED = r"/@(?P<lat>-?\d+\.\d+),(?P<lon>-?\d+\.\d+)"
_TEXT_NAMED = r"(?P<lat>\d+\.\d+) (?P<ns>[NS]), (?P<lon>\d+\.\d+) (?P<ew>[EW])"

# geocode_src by int8 code; code 0 (not geocoded) is NULL.
_SRC_NAMES = pa.array([None, "url_query", "url_path", "text"], pa.string())


def _floats(hits: pa.StructArray, field: str) -> np.ndarray:
    return pc.cast(hits.field(field), pa.float64()).to_numpy(zero_copy_only=False)


def geocode_arrays(url, text):
    """Extract (lat, lon, geocode_src) from url/text Arrow arrays.

    Returns float64 numpy lat/lon (NaN where not geocodable) and an
    Arrow string array of sources ('url_query' | 'url_path' | 'text' |
    NULL).

    Bandwidth shape: each capture-group regex runs only on the rows a
    cheap prefilter selects, and every regex match contains its
    prefilter's match, so the prefilter is lossless. Urls are short and
    prefiltered by a substring pass each ('lat=', '/@'). Text is
    multi-KB and prefiltered by ONE RE2 pass for ' [NS], ': Arrow's
    substring matcher streams only ~300 MB/s on multi-KB strings, so
    the two passes it would take (' N, ', ' S, ') cost ~8x the one
    regex pass (0.22 s vs 0.026 s over the geo_text workload's 32.7 MB
    of text on a 4-vCPU Xeon VM). Each source's extraction and float
    cast then touch only its still-ungeocoded candidates, and no leg
    runs once every row has a source."""
    if isinstance(url, pa.ChunkedArray):
        url = url.combine_chunks()
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n = len(url)
    lat = np.full(n, np.nan, dtype=np.float64)
    lon = np.full(n, np.nan, dtype=np.float64)
    src = np.zeros(n, dtype=np.int8)

    legs = ((url, pc.match_substring, "lat=", _URL_QUERY_NAMED),
            (url, pc.match_substring, "/@", _URL_PATH_NAMED),
            (text, pc.match_substring_regex, " [NS], ", _TEXT_NAMED))
    for code, (col, prefilter, needle, pattern) in enumerate(legs, start=1):
        if src.all():
            break  # every row is placed; a later leg fills only src == 0
        # a NULL value is never a candidate
        cand = prefilter(col, needle).fill_null(False).to_numpy(zero_copy_only=False)
        idx = np.flatnonzero(cand & (src == 0))
        if not len(idx):
            continue
        res = pc.extract_regex(col.take(pa.array(idx)), pattern)
        matched = res.is_valid()
        # a non-matching row's fields hold "", which no float cast parses
        hits = res.filter(matched)
        sel = idx[matched.to_numpy(zero_copy_only=False)]
        hlat, hlon = _floats(hits, "lat"), _floats(hits, "lon")
        if code == 3:
            south = pc.equal(hits.field("ns"), "S").to_numpy(zero_copy_only=False)
            west = pc.equal(hits.field("ew"), "W").to_numpy(zero_copy_only=False)
            hlat = np.where(south, -hlat, hlat)
            hlon = np.where(west, -hlon, hlon)
        lat[sel] = hlat
        lon[sel] = hlon
        src[sel] = code

    return lat, lon, _SRC_NAMES.take(pa.array(src))
