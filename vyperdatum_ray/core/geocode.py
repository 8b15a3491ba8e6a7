r"""Geocoding: extract lat/lon from web-page ``url`` and ``text`` columns.

The graft operator M10 (SURVEY.md §2.2): the reference has no
equivalent; the north_star mandates "lat/lon parsed from url/text
fields". Three extraction patterns, checked in fixed precedence order:

1. ``url_query`` — ``...?lat=<f>&lon=<f>`` (also ``&lat=...``),
2. ``url_path``  — ``/@<lat>,<lon>`` map-style path segment,
3. ``text``      — ``"<dd.ddd> N, <dd.ddd> W"`` prose coordinates with
   hemisphere letters.

The patterns below are the spec: RE2 syntax, mirrored verbatim in the
DuckDB oracle SQL (DuckDB's regex engine is also RE2) and run through
``extract_regex`` by the property test's reference geocoder. No regex
kernel runs here. ``geocode_arrays`` scans each column's UTF-8 value
buffer with numpy, in the manner of simdjson (Langdale & Lemire, VLDB
J. 2019): find the structural bytes, then validate only those. Per leg:

- *anchors*: one ``np.flatnonzero(b == anchor)`` over the buffer (``=``
  of ``lat=``, ``@`` of ``/@``, ``,`` of `` [NS], ``), then vectorized
  compares of each anchor's neighbour bytes, inside its own row;
- *numbers*: vectorized digit-run walks parse ``-?\d+\.\d+`` forward
  (the text leg's latitude backward from its comma), bounded by the
  row: byte steps over all candidates, then windows that double for
  any run still going, so an ``n``-digit run costs ``O(log n)`` numpy
  passes, never one interpreter step a byte;
- *values*: a row's leftmost valid anchor wins; its lat/lon are Arrow's
  string -> float64 cast of the exact matched substrings, gathered
  into one string array a leg.

Why the byte scan is RE2's exact answer. The patterns are ASCII: RE2's
``\d`` is ``[0-9]``, and every byte of a multi-byte UTF-8 character is
0x80 or above, so no such byte is a digit or a literal. Every ``\d+``
is greedy and followed by a non-digit literal (or, for the last one,
by nothing), so a match from a given start is unique: each run is the
maximal one. A match contains exactly one anchor, and a later anchor's
match starts after an earlier anchor (``[?&]`` and ``/`` sit a fixed
distance before theirs; a text match has no comma before its own), so
the leftmost match is the first anchor whose context validates.

The float64 values are bit-identical between the Ray pipeline and the
oracle because both use correctly-rounded decimal-string -> double
conversion. A row that a pattern does not match (a near miss such as
``?lat=40&lon=-73``, a NULL or an empty string) is not geocoded by that
source and falls through to the next one, as the oracle's ``TRY_CAST``
of an empty ``regexp_extract`` does.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from vyperdatum_ray.core.nputil import utf8_buffers

# Capture-group patterns (RE2), the spec the byte scan implements. The
# SQL oracle runs them with positional groups; the named variants are the
# property test's ``extract_regex`` reference.
URL_QUERY_PATTERN = r"[?&]lat=(-?\d+\.\d+)&lon=(-?\d+\.\d+)"
URL_PATH_PATTERN = r"/@(-?\d+\.\d+),(-?\d+\.\d+)"
TEXT_PATTERN = r"(\d+\.\d+) ([NS]), (\d+\.\d+) ([EW])"

_URL_QUERY_NAMED = r"[?&]lat=(?P<lat>-?\d+\.\d+)&lon=(?P<lon>-?\d+\.\d+)"
_URL_PATH_NAMED = r"/@(?P<lat>-?\d+\.\d+),(?P<lon>-?\d+\.\d+)"
_TEXT_NAMED = r"(?P<lat>\d+\.\d+) (?P<ns>[NS]), (?P<lon>\d+\.\d+) (?P<ew>[EW])"

# geocode_src by int8 code; code 0 (not geocoded) is NULL.
_SRC_NAMES = pa.array([None, "url_query", "url_path", "text"], pa.string())

_ZERO = np.uint8(ord("0"))
# Byte steps a digit-run walk takes over all its candidates before it
# switches to doubling windows for the runs still going.
_STEPS = 16


def _at(b, i, lo, hi, chars: bytes) -> np.ndarray:
    """``b[i]`` is one of ``chars`` and ``lo <= i < hi`` (inside its row)."""
    v = b[np.clip(i, 0, len(b) - 1)]
    hit = v == chars[0]
    for c in chars[1:]:
        hit |= v == c
    return hit & (i >= lo) & (i < hi)


def _is_digit(b, idx) -> np.ndarray:
    return b[np.clip(idx, 0, len(b) - 1)] - _ZERO < 10


def _run_end(b, pos, hi) -> np.ndarray:
    """End (exclusive) of the ASCII digit run starting at each ``pos``,
    stopped at its row's end ``hi``. ``_STEPS`` byte steps over every
    candidate cover the pages' numbers; a run still going after them
    is walked in windows that double each pass, so a run of ``n``
    digits costs ``O(log n)`` passes and ``O(n)`` bytes."""
    end = pos.copy()
    live = end < hi
    for _ in range(_STEPS):
        if not live.any():
            return end
        live &= b[np.minimum(end, len(b) - 1)] - _ZERO < 10
        end += live
        live &= end < hi
    live, w = np.flatnonzero(live), _STEPS
    while len(live):
        idx = end[live, None] + np.arange(w)
        stop = ~_is_digit(b, idx) | (idx >= hi[live, None])
        found = stop.any(axis=1)
        end[live] += np.where(found, stop.argmax(axis=1), w)
        live, w = live[~found], 2 * w
    return end


def _run_start(b, pos, lo) -> np.ndarray:
    """Start of the ASCII digit run ending just before each ``pos``,
    stopped at its row's start ``lo``: ``_run_end``'s walk, backward."""
    start = pos.copy()
    live = start > lo
    for _ in range(_STEPS):
        if not live.any():
            return start
        live &= b[np.maximum(start - 1, 0)] - _ZERO < 10
        start -= live
        live &= start > lo
    live, w = np.flatnonzero(live), _STEPS
    while len(live):
        idx = start[live, None] - 1 - np.arange(w)
        stop = ~_is_digit(b, idx) | (idx < lo[live, None])
        found = stop.any(axis=1)
        start[live] -= np.where(found, stop.argmax(axis=1), w)
        live, w = live[~found], 2 * w
    return start


def _number(b, q, hi, signed: bool) -> np.ndarray:
    """End of ``-?\\d+\\.\\d+`` (``\\d+\\.\\d+`` unsigned) at each ``q``,
    -1 where none starts there. Each ``\\d+`` is greedy and ends at a
    non-digit, so its maximal run is the only match."""
    if signed:
        q = q + _at(b, q, q, hi, b"-")
    e1 = _run_end(b, q, hi)
    ok = (e1 > q) & _at(b, e1, q, hi, b".")
    e2 = _run_end(b, e1 + 1, hi)
    return np.where(ok & (e2 > e1 + 1), e2, -1)


def _anchors(col, byte: bytes, context, src):
    """Every ``byte`` in the still-ungeocoded, non-NULL rows of ``col``
    whose ``(delta, chars)`` context bytes match inside its own row:
    ``(data, positions, row, row start, row end)``, in position order."""
    offs, b, valid = utf8_buffers(col)
    p = np.flatnonzero(b[offs[0]:offs[-1]] == ord(byte)) + np.int64(offs[0])
    for d, chars in context:  # on the whole buffer first: cheap, lossless
        p = p[_at(b, p + d, 0, len(b), chars)]
    row = np.searchsorted(offs, p, side="right") - 1
    lo, hi = offs[row].astype(np.int64), offs[row + 1].astype(np.int64)
    deltas = [d for d, _ in context]
    keep = (src[row] == 0) & (p + min(deltas) >= lo) & (p + max(deltas) < hi)
    if valid is not None:
        keep &= valid[row]
    return b, p[keep], row[keep], lo[keep], hi[keep]


def _floats(b, start, end) -> np.ndarray:
    """float64 of each ASCII number ``b[start:end]``, by Arrow's string
    cast (correctly rounded, as DuckDB's ``TRY_CAST``) over one gathered
    string array."""
    n = end - start
    offsets = np.zeros(len(n) + 1, np.int64)
    np.cumsum(n, out=offsets[1:])
    idx = np.repeat(start - offsets[:-1], n) + np.arange(offsets[-1])
    s = pa.LargeStringArray.from_buffers(len(n), pa.py_buffer(offsets), pa.py_buffer(b[idx]))
    return pc.cast(s, pa.float64()).to_numpy(zero_copy_only=False)


def _url_query(url, src):
    b, p, row, lo, hi = _anchors(url, b"=", [(-1, b"t"), (-2, b"a"), (-3, b"l"), (-4, b"?&")], src)
    e = _number(b, p + 1, hi, signed=True)
    ok = e >= 0
    for k, c in enumerate(b"&lon="):
        ok &= _at(b, e + k, lo, hi, bytes([c]))
    e2 = _number(b, e + 5, hi, signed=True)
    return b, row, ok & (e2 >= 0), (p + 1, e), (e + 5, e2), None


def _url_path(url, src):
    b, p, row, lo, hi = _anchors(url, b"@", [(-1, b"/")], src)
    e = _number(b, p + 1, hi, signed=True)
    ok = (e >= 0) & _at(b, e, lo, hi, b",")
    e2 = _number(b, e + 1, hi, signed=True)
    return b, row, ok & (e2 >= 0), (p + 1, e), (e + 1, e2), None


def _text(text, src):
    # "<lat> [NS], <lon> [EW]" anchored on its comma; lat read backward
    b, p, row, lo, hi = _anchors(text, b",", [(1, b" "), (-1, b"NS"), (-2, b" ")], src)
    frac = _run_start(b, p - 2, lo)
    whole = _run_start(b, frac - 1, lo)
    ok = (frac < p - 2) & _at(b, frac - 1, lo, hi, b".") & (whole < frac - 1)
    e = _number(b, p + 2, hi, signed=False)
    ok &= (e >= 0) & _at(b, e, lo, hi, b" ") & _at(b, e + 1, lo, hi, b"EW")
    signs = (b[p - 1] == ord("S"), b[np.clip(e + 1, 0, len(b) - 1)] == ord("W"))
    return b, row, ok, (whole, p - 2), (p + 2, e), signs


def geocode_arrays(url, text):
    """Extract (lat, lon, geocode_src) from url/text Arrow arrays.

    Returns float64 numpy lat/lon (NaN where not geocodable) and an
    Arrow string array of sources ('url_query' | 'url_path' | 'text' |
    NULL). ``string`` and ``large_string`` arrays and chunked arrays
    of either are read in place (``utf8_buffers``).

    Bandwidth shape: the text leg's one pass over the page text is a
    byte compare and a ``flatnonzero``, about 1 ms per 5.4 MB
    ``geo_text`` shard; everything after it touches only the anchors
    that pass their neighbour bytes, a few per row. The RE2 prefilter
    it replaced (``match_substring_regex(" [NS], ")``, then
    ``combine_chunks``, ``take`` and ``extract_regex`` over each
    candidate's whole text) took 33-35 ms over the six shards of a
    ``geo_text`` job in process on a 4-vCPU Xeon VM; this scan takes
    16-19 ms (``geo_sink``'s four shards 16-17 -> 11-12 ms,
    ``geo_dense``'s six, all ``url_query``, 11-12 -> 10-11 ms). No leg
    runs once every row has a source."""
    n = len(url)
    lat = np.full(n, np.nan, dtype=np.float64)
    lon = np.full(n, np.nan, dtype=np.float64)
    src = np.zeros(n, dtype=np.int8)

    for code, (leg, col) in enumerate(((_url_query, url), (_url_path, url), (_text, text)), start=1):
        if src.all():
            break  # every row is placed; a later leg fills only src == 0
        b, row, ok, (las, lae), (los, loe), signs = leg(col, src)
        # the leftmost match of a row is its first valid anchor
        sel = np.flatnonzero(ok)
        sel = sel[np.r_[True, row[sel[1:]] != row[sel[:-1]]]] if len(sel) else sel
        if not len(sel):
            continue
        vals = _floats(b, np.r_[las[sel], los[sel]], np.r_[lae[sel], loe[sel]])
        hlat, hlon = vals[:len(sel)], vals[len(sel):]
        if signs is not None:
            hlat = np.where(signs[0][sel], -hlat, hlat)
            hlon = np.where(signs[1][sel], -hlon, hlon)
        rows = row[sel]
        lat[rows], lon[rows], src[rows] = hlat, hlon, code

    return lat, lon, _SRC_NAMES.take(pa.array(src))
