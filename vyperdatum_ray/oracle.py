"""DuckDB oracle SQL for the SQL-checkable pipelines.

Each function returns an ANSI-SQL string that reproduces the matching
Ray pipeline *bit-exactly* on the same fixture parquet files:

* float parsing: both sides parse the same coordinate strings with
  correctly-rounded decimal->double conversion,
* PIP: convex-region membership via the half-plane edge table (the
  engine's ray-cast agrees everywhere except a ~1e-12 boundary band —
  see tests/test_geometry.py),
* bilinear interpolation / pipeline composition / uncertainty sums /
  3-decimal rounding: written in the exact operation order the numpy
  kernels use (verified bit-exact in tests/test_oracle_parity.py).

The fixture dir must exist before the SQL runs; ``oracle_sql()`` in
``__ray_entry__`` ensures generation.
"""

from __future__ import annotations

from vyperdatum_ray.core.geocode import TEXT_PATTERN, URL_PATH_PATTERN, URL_QUERY_PATTERN
from vyperdatum_ray.core.helmert import sql_hop_ctes


def _r3(e: str) -> str:
    """SQL expression bit-identical to ``np.round(e, 3)``: numpy rounds
    via ``rint(x * 1000.0) / 1000.0`` with ties-to-even ON THE BINARY
    PRODUCT — which differs from DuckDB's decimal-aware round/round_even
    whenever the decimal tie (e.g. 4.6065) isn't an exact double.
    Emulated with exact double comparisons, so the oracle matches numpy
    on every input."""
    y = f"(({e}) * 1000.0)"
    f = f"floor({y})"
    return (
        f"((CASE WHEN {y} - {f} > 0.5 THEN {f} + 1 "
        f"WHEN {y} - {f} < 0.5 THEN {f} "
        f"WHEN {f} / 2 = floor({f} / 2) THEN {f} "
        f"ELSE {f} + 1 END) / 1000.0)"
    )


def _geo_cte(fx: str) -> str:
    """CTE `geo`: geocoded pages (url, warc_ts, text, lang, lat, lon,
    geocode_src) — mirrors stages/geocode.py precedence exactly."""
    uq, up, tx = URL_QUERY_PATTERN, URL_PATH_PATTERN, TEXT_PATTERN
    return f"""
pages AS (SELECT * FROM read_parquet('{fx}/pages/*.parquet')),
geo0 AS (
  SELECT url, warc_ts, text, lang,
    TRY_CAST(regexp_extract(url, '{uq}', 1) AS DOUBLE) AS q_lat,
    TRY_CAST(regexp_extract(url, '{uq}', 2) AS DOUBLE) AS q_lon,
    TRY_CAST(regexp_extract(url, '{up}', 1) AS DOUBLE) AS p_lat,
    TRY_CAST(regexp_extract(url, '{up}', 2) AS DOUBLE) AS p_lon,
    TRY_CAST(regexp_extract(text, '{tx}', 1) AS DOUBLE)
      * (CASE WHEN regexp_extract(text, '{tx}', 2) = 'S' THEN -1.0 ELSE 1.0 END) AS t_lat,
    TRY_CAST(regexp_extract(text, '{tx}', 3) AS DOUBLE)
      * (CASE WHEN regexp_extract(text, '{tx}', 4) = 'W' THEN -1.0 ELSE 1.0 END) AS t_lon
  FROM pages
),
geo AS (
  SELECT url, warc_ts, text, lang,
    COALESCE(q_lat, p_lat, t_lat) AS lat,
    COALESCE(q_lon, p_lon, t_lon) AS lon,
    CASE WHEN q_lat IS NOT NULL THEN 'url_query'
         WHEN p_lat IS NOT NULL THEN 'url_path'
         WHEN t_lat IS NOT NULL THEN 'text' END AS geocode_src
  FROM geo0
  WHERE q_lat IS NOT NULL OR p_lat IS NOT NULL OR t_lat IS NOT NULL
)"""


def _ext_union(fx: str, name: str) -> str:
    """Catalog table source, optionally unioned with the external-region
    variant of the same table (catalog-as-data: the user region's rows
    simply append — its region_ord is already the appended-last
    ordinal)."""
    return (f"SELECT * FROM read_parquet('{fx}/{name}.parquet') "
            f"UNION ALL SELECT * FROM read_parquet('{fx}/external/{name}.parquet')")


def _memb_cte(fx: str, geo_name: str = "geo", ext: bool = False) -> str:
    """CTE `memb`: (url, region, region_ord) for every containing convex
    region — all half-planes satisfied."""
    src = (_ext_union(fx, "region_edges") if ext
           else f"SELECT * FROM read_parquet('{fx}/region_edges.parquet')")
    return f"""
edges AS ({src}),
memb AS (
  SELECT g.url, e.region, e.region_ord
  FROM {geo_name} g CROSS JOIN edges e
  GROUP BY g.url, g.lat, g.lon, e.region, e.region_ord
  HAVING max(e.ax * g.lon + e.ay * g.lat - e.b) <= 0
)"""


def _transform_ctes(fx: str, target: str = "mllw", inverse: bool = False,
                    from_navd88: bool = False, geo_name: str = "geo",
                    z_col: str | None = None, with_zwin: bool = True,
                    ext: bool = False) -> str:
    """CTEs computing per-(point, region) z for the ellipse-><target>
    pipeline (geoid forward, tss inverse, <target> forward) — or its
    inverse (<target> -> ellipse: reversed steps, signs toggled, height
    output, zero uncertainty), or the 2-step navd88-><target> (the
    common geoid prefix cancels, pipeline.py:116-142) — plus composed
    uncertainty and grid-coverage validity.

    ``z_col`` names an input-z column on ``geo_name`` (default: z = 0);
    it threads through the frame hop and out of ``zr`` so callers with
    ``with_zwin=False`` can build their own winner CTE (the ITRF
    z-correction query does)."""
    if from_navd88:
        z_expr = f"-((z.sz + z.g_tss) - z.g_{target})"
        unc_expr = f"s.tss + s.{target}"  # no geoid sigma: input not ellipse
        surfaces = f"('tss', 1.0), ('{target}', -1.0)"
        geoid_sel = "CAST(NULL AS DOUBLE) AS g_geoid,"
    elif inverse:
        z_expr = f"(((z.sz + z.g_{target}) - z.g_tss) + z.g_geoid)"
        unc_expr = "0.0"  # out 'ellipse' -> no transform uncertainty (core.py:334-335)
        surfaces = f"('geoid', -1.0), ('tss', 1.0), ('{target}', -1.0)"
        geoid_sel = "max(CASE WHEN surface = 'geoid' THEN val END) AS g_geoid,"
    else:
        z_expr = f"-(((z.sz - z.g_geoid) + z.g_tss) - z.g_{target})"
        unc_expr = f"gs.sigma + s.tss + s.{target}"
        surfaces = f"('geoid', -1.0), ('tss', 1.0), ('{target}', -1.0)"
        geoid_sel = "max(CASE WHEN surface = 'geoid' THEN val END) AS g_geoid,"
    z_sel = f"g.{z_col} AS z_in" if z_col else "0.0 AS z_in"
    if ext:
        srcs = {n: _ext_union(fx, n) for n in
                ("region_catalog", "grid_meta", "grid_values", "sigma")}
        # external geoid sigma may duplicate a base geoid row: UNION dedups
        srcs["sigma_geoid"] = (
            f"SELECT * FROM read_parquet('{fx}/sigma_geoid.parquet') "
            f"UNION SELECT * FROM read_parquet('{fx}/external/sigma_geoid.parquet')")
    else:
        srcs = {n: f"SELECT * FROM read_parquet('{fx}/{n}.parquet')" for n in
                ("region_catalog", "grid_meta", "grid_values", "sigma",
                 "sigma_geoid")}
    core = f"""
rcat AS ({srcs["region_catalog"]}),
gmeta AS ({srcs["grid_meta"]}),
gvals AS ({srcs["grid_values"]}),
sig AS ({srcs["sigma"]}),
gsig AS ({srcs["sigma_geoid"]}),
tr0 AS (
  SELECT m.url, m.region, m.region_ord, g.lat, g.lon, {z_sel},
         rc.geoid_name, rc.geoid_frame
  FROM memb m
  JOIN rcat rc ON rc.region = m.region
  JOIN {geo_name} g ON g.url = m.url
),
{sql_hop_ctes("t", "tr0", "lon", "lat", "z_in", "geoid_frame",
              "url, region, region_ord, lat, lon, z_in, geoid_name")},
tr AS (
  SELECT url, region, region_ord, lat, lon, z_in, geoid_name,
         hlon AS slon, hlat AS slat, hz AS sz
  FROM thop
),
samp AS (
  SELECT t.*, s.surface, s.sgn,
    CASE WHEN s.surface = 'geoid' THEN t.geoid_name
         ELSE t.region || '/' || s.surface END AS grid_key
  FROM tr t
  CROSS JOIN (VALUES {surfaces}) AS s(surface, sgn)
),
sampq AS (
  SELECT samp.url, samp.region, samp.region_ord, samp.surface, samp.sgn,
    samp.grid_key, samp.sz, samp.z_in, gm.nx, gm.ny,
    (samp.slon - gm.origin_x) / gm.dx AS gx,
    (samp.slat - gm.origin_y) / gm.dy AS gy,
    CAST(LEAST(GREATEST(floor((samp.slon - gm.origin_x) / gm.dx), 0), gm.nx - 2) AS BIGINT) AS ix0,
    CAST(LEAST(GREATEST(floor((samp.slat - gm.origin_y) / gm.dy), 0), gm.ny - 2) AS BIGINT) AS iy0,
    (samp.slon - gm.origin_x) / gm.dx
      - LEAST(GREATEST(floor((samp.slon - gm.origin_x) / gm.dx), 0), gm.nx - 2) AS fx,
    (samp.slat - gm.origin_y) / gm.dy
      - LEAST(GREATEST(floor((samp.slat - gm.origin_y) / gm.dy), 0), gm.ny - 2) AS fy
  FROM samp JOIN gmeta gm ON gm.grid_key = samp.grid_key
),
interp AS (
  SELECT q.url, q.region, q.region_ord, q.surface, q.sgn, q.sz, q.z_in,
    (1 - q.fx) * (1 - q.fy) * a.v + q.fx * (1 - q.fy) * b.v
      + (1 - q.fx) * q.fy * c.v + q.fx * q.fy * d.v AS val,
    (a.v IS NOT NULL AND b.v IS NOT NULL AND c.v IS NOT NULL AND d.v IS NOT NULL
     AND q.gx >= 0 AND q.gx <= q.nx - 1 AND q.gy >= 0 AND q.gy <= q.ny - 1) AS ok
  FROM sampq q
  LEFT JOIN gvals a ON a.grid_key = q.grid_key AND a.ix = q.ix0 AND a.iy = q.iy0
  LEFT JOIN gvals b ON b.grid_key = q.grid_key AND b.ix = q.ix0 + 1 AND b.iy = q.iy0
  LEFT JOIN gvals c ON c.grid_key = q.grid_key AND c.ix = q.ix0 AND c.iy = q.iy0 + 1
  LEFT JOIN gvals d ON d.grid_key = q.grid_key AND d.ix = q.ix0 + 1 AND d.iy = q.iy0 + 1
),
zr AS (
  SELECT url, region, region_ord, max(sz) AS sz, max(z_in) AS z_in,
    {geoid_sel}
    max(CASE WHEN surface = 'tss' THEN val END) AS g_tss,
    max(CASE WHEN surface = '{target}' THEN val END) AS g_{target},
    bool_and(ok) AS ok_all
  FROM interp
  GROUP BY url, region, region_ord
)"""
    if not with_zwin:
        return core
    return core + f""",
zwin AS (
  SELECT z.url, z.region, z.region_ord,
    {_r3(z_expr)} AS z_out,
    {unc_expr} AS unc,
    row_number() OVER (PARTITION BY z.url ORDER BY z.region_ord DESC) AS rn
  FROM zr z
  JOIN rcat rc ON rc.region = z.region
  JOIN sig s ON s.region = z.region
  JOIN gsig gs ON gs.geoid_name = rc.geoid_name
  WHERE z.ok_all
)"""


def _raster_ctes(fx: str) -> str:
    """CTEs for the raster path: cell centers, bbox-candidate regions
    (J1), per-region bilinear sep (ellipse->mllw), global valid counts
    (A2) and the ascending-count stack winner per cell (J3: most-valid
    region wins overlaps; ties -> later catalog region, matching the
    engine's stable ascending sort)."""
    return f"""
rmeta AS (SELECT * FROM read_parquet('{fx}/raster_meta.parquet')),
cells AS (
  SELECT row, col, elevation, uncertainty, contributor,
    m.origin_x + (col + 0.5) * m.dx AS lon,
    m.origin_y + (row + 0.5) * m.dy AS lat
  FROM read_parquet('{fx}/raster_cells.parquet') CROSS JOIN rmeta m
),
rcat AS (SELECT * FROM read_parquet('{fx}/region_catalog.parquet')),
gmeta AS (SELECT * FROM read_parquet('{fx}/grid_meta.parquet')),
gvals AS (SELECT * FROM read_parquet('{fx}/grid_values.parquet')),
sig AS (SELECT * FROM read_parquet('{fx}/sigma.parquet')),
gsig AS (SELECT * FROM read_parquet('{fx}/sigma_geoid.parquet')),
redges AS (SELECT * FROM read_parquet('{fx}/region_edges.parquet')),
cand AS (
  -- exact convex-polygon-vs-rectangle intersection (separating-axis):
  -- bbox overlap (the rectangle's axes) AND no polygon edge having all
  -- four rectangle corners strictly outside its half-plane — matching
  -- the engine's Polygon.intersects_bbox, not a bbox-only test
  SELECT rc.*, row_number() OVER (ORDER BY rc.region_ord) - 1 AS cand_pos
  FROM rcat rc CROSS JOIN rmeta m
  WHERE NOT (rc.max_x < m.origin_x OR rc.min_x > m.origin_x + m.ncols * m.dx
          OR rc.max_y < m.origin_y OR rc.min_y > m.origin_y + m.nrows * m.dy)
    AND NOT EXISTS (
      SELECT 1 FROM redges e
      WHERE e.region = rc.region
        AND least(
          e.ax * m.origin_x + e.ay * m.origin_y,
          e.ax * (m.origin_x + m.ncols * m.dx) + e.ay * m.origin_y,
          e.ax * (m.origin_x + m.ncols * m.dx) + e.ay * (m.origin_y + m.nrows * m.dy),
          e.ax * m.origin_x + e.ay * (m.origin_y + m.nrows * m.dy)
        ) - e.b > 0
    )
),
rs0 AS (
  SELECT c.row, c.col, c.lon, c.lat, cd.region, cd.cand_pos, cd.geoid_name, cd.geoid_frame
  FROM cells c CROSS JOIN cand cd
),
{sql_hop_ctes("r", "rs0", "lon", "lat", "0.0", "geoid_frame",
              "row, col, region, cand_pos, geoid_name")},
rsamp AS (
  SELECT h.row, h.col, h.region, h.cand_pos, s.surface, s.sgn,
    CASE WHEN s.surface = 'geoid' THEN h.geoid_name
         ELSE h.region || '/' || s.surface END AS grid_key,
    h.hlon AS slon, h.hlat AS slat, h.hz AS sz
  FROM rhop h
  CROSS JOIN (VALUES ('geoid', -1.0), ('tss', 1.0), ('mllw', -1.0)) AS s(surface, sgn)
),
rsampq AS (
  SELECT r.row, r.col, r.region, r.cand_pos, r.surface, r.grid_key, r.sz, gm.nx, gm.ny,
    (r.slon - gm.origin_x) / gm.dx AS gx,
    (r.slat - gm.origin_y) / gm.dy AS gy,
    CAST(LEAST(GREATEST(floor((r.slon - gm.origin_x) / gm.dx), 0), gm.nx - 2) AS BIGINT) AS ix0,
    CAST(LEAST(GREATEST(floor((r.slat - gm.origin_y) / gm.dy), 0), gm.ny - 2) AS BIGINT) AS iy0,
    (r.slon - gm.origin_x) / gm.dx
      - LEAST(GREATEST(floor((r.slon - gm.origin_x) / gm.dx), 0), gm.nx - 2) AS fx,
    (r.slat - gm.origin_y) / gm.dy
      - LEAST(GREATEST(floor((r.slat - gm.origin_y) / gm.dy), 0), gm.ny - 2) AS fy
  FROM rsamp r JOIN gmeta gm ON gm.grid_key = r.grid_key
),
rinterp AS (
  SELECT q.row, q.col, q.region, q.cand_pos, q.surface, q.sz,
    (1 - q.fx) * (1 - q.fy) * a.v + q.fx * (1 - q.fy) * b.v
      + (1 - q.fx) * q.fy * c.v + q.fx * q.fy * d.v AS val,
    (a.v IS NOT NULL AND b.v IS NOT NULL AND c.v IS NOT NULL AND d.v IS NOT NULL
     AND q.gx >= 0 AND q.gx <= q.nx - 1 AND q.gy >= 0 AND q.gy <= q.ny - 1) AS ok
  FROM rsampq q
  LEFT JOIN gvals a ON a.grid_key = q.grid_key AND a.ix = q.ix0 AND a.iy = q.iy0
  LEFT JOIN gvals b ON b.grid_key = q.grid_key AND b.ix = q.ix0 + 1 AND b.iy = q.iy0
  LEFT JOIN gvals c ON c.grid_key = q.grid_key AND c.ix = q.ix0 AND c.iy = q.iy0 + 1
  LEFT JOIN gvals d ON d.grid_key = q.grid_key AND d.ix = q.ix0 + 1 AND d.iy = q.iy0 + 1
),
rsep AS (
  SELECT row, col, region, cand_pos,
    ((max(sz) - max(CASE WHEN surface = 'geoid' THEN val END))
      + max(CASE WHEN surface = 'tss' THEN val END))
      - max(CASE WHEN surface = 'mllw' THEN val END) AS sep,
    bool_and(ok) AS ok_all
  FROM rinterp GROUP BY row, col, region, cand_pos
),
rcounts AS (
  SELECT region, count(*) AS n_valid FROM rsep WHERE ok_all GROUP BY region
),
rwin AS (
  SELECT s.row, s.col, s.region, s.cand_pos, s.sep,
    gs.sigma + g.tss + g.mllw AS sep_unc,
    row_number() OVER (PARTITION BY s.row, s.col
                       ORDER BY n.n_valid DESC, s.cand_pos DESC) AS rn
  FROM rsep s
  JOIN rcounts n ON n.region = s.region
  JOIN cand cd ON cd.region = s.region
  JOIN sig g ON g.region = s.region
  JOIN gsig gs ON gs.geoid_name = cd.geoid_name
  WHERE s.ok_all
)"""


def q_raster_valid_counts(fx: str) -> str:
    return f"WITH {_raster_ctes(fx)} SELECT region, n_valid FROM rcounts"


def q_raster_sep(fx: str) -> str:
    return f"""WITH {_raster_ctes(fx)}
SELECT row, col, sep, sep_unc, CAST(cand_pos AS INTEGER) AS region_index
FROM rwin WHERE rn = 1"""


def q_raster_transform(fx: str) -> str:
    """apply_sep with allow_points_outside_coverage=True: height input,
    depth output (flip = -1); CATZOC-D uncertainty for covered-elevation
    cells outside every region (raster.py:380-396)."""
    return f"""WITH {_raster_ctes(fx)},
win1 AS (SELECT * FROM rwin WHERE rn = 1)
SELECT c.row, c.col,
  CAST(floor(c.row / m.tile) AS BIGINT) * 4096
    + CAST(floor(c.col / m.tile) AS BIGINT) AS tile_id,
  {_r3("CASE WHEN w.region IS NOT NULL THEN -1.0 * (c.elevation + w.sep) ELSE -1.0 * c.elevation END")} AS z,
  {_r3("CASE WHEN w.region IS NOT NULL THEN c.uncertainty + w.sep_unc ELSE GREATEST(CASE WHEN c.elevation > 0 THEN 3.0 ELSE 3.0 - 0.06 * c.elevation END, c.uncertainty) END")} AS unc,
  c.contributor,
  CAST(COALESCE(w.cand_pos, -1) AS INTEGER) AS region_index
FROM cells c
CROSS JOIN rmeta m
LEFT JOIN win1 w ON w.row = c.row AND w.col = c.col
WHERE isfinite(c.elevation)"""


def q_raster_tile_manifest(fx: str) -> str:
    return f"""WITH
rmeta AS (SELECT * FROM read_parquet('{fx}/raster_meta.parquet'))
SELECT CAST(floor(c.row / m.tile) AS BIGINT) * 4096
    + CAST(floor(c.col / m.tile) AS BIGINT) AS tile_id,
  count(*) AS n_rows
FROM read_parquet('{fx}/raster_cells.parquet') c CROSS JOIN rmeta m
GROUP BY tile_id"""


def q_geocode(fx: str) -> str:
    return f"WITH {_geo_cte(fx)} SELECT url, lat, lon, geocode_src FROM geo"


def q_text_passthrough(fx: str) -> str:
    return f"WITH {_geo_cte(fx)} SELECT url, text, lang FROM geo"


def q_pii_redact(fx: str) -> str:
    """Mirror of textops.q_pii_redact: same RE2 patterns (DuckDB and
    pyarrow both embed RE2), counts on raw text, replacements applied
    email -> phone -> ip."""
    from vyperdatum_ray.pipelines.textops import (PII_EMAIL_PATTERN,
                                                  PII_IP_PATTERN,
                                                  PII_PHONE_PATTERN)

    e, p, i = PII_EMAIL_PATTERN, PII_PHONE_PATTERN, PII_IP_PATTERN
    return f"""
WITH pages AS (SELECT * FROM read_parquet('{fx}/pages/*.parquet'))
SELECT url,
  CAST(len(regexp_extract_all(text, '{e}')) AS BIGINT) AS n_email,
  CAST(len(regexp_extract_all(text, '{p}')) AS BIGINT) AS n_phone,
  CAST(len(regexp_extract_all(text, '{i}')) AS BIGINT) AS n_ip,
  regexp_replace(regexp_replace(regexp_replace(text,
      '{e}', '<EMAIL>', 'g'), '{p}', '<PHONE>', 'g'), '{i}', '<IP>', 'g')
    AS redacted
FROM pages"""


def q_line_dedup(fx: str) -> str:
    """Mirror of textops.q_line_dedup: corpus-wide line counts, lines
    with count >= 3 removed from every document, originals rejoined in
    line order."""
    return f"""
WITH pages AS (SELECT * FROM read_parquet('{fx}/pages/*.parquet')),
ls AS (SELECT url, string_split(text, chr(10)) AS arr FROM pages),
lines AS (SELECT url, unnest(arr) AS line,
                 unnest(range(1, len(arr) + 1)) AS ord FROM ls),
hot AS (SELECT line FROM lines GROUP BY line HAVING count(*) >= 3)
SELECT l.url,
  coalesce(string_agg(l.line, chr(10) ORDER BY l.ord)
           FILTER (WHERE h.line IS NULL), '') AS clean_text,
  CAST(count(*) FILTER (WHERE h.line IS NOT NULL) AS BIGINT) AS n_removed
FROM lines l LEFT JOIN hot h USING (line)
GROUP BY l.url"""


def q_tile_assign(fx: str) -> str:
    return (
        f"WITH {_geo_cte(fx)} SELECT url, "
        "CAST(floor((lat + 90.0) / 0.25) AS BIGINT) * 4096 "
        "+ CAST(floor((lon + 180.0) / 0.25) AS BIGINT) AS tile_id FROM geo"
    )


def q_tile_counts(fx: str) -> str:
    return (
        f"WITH {_geo_cte(fx)} SELECT "
        "CAST(floor((lat + 90.0) / 0.25) AS BIGINT) * 4096 "
        "+ CAST(floor((lon + 180.0) / 0.25) AS BIGINT) AS tile_id, "
        "count(*) AS n_rows FROM geo GROUP BY tile_id"
    )


def q_extent(fx: str) -> str:
    return (
        f"WITH {_geo_cte(fx)} SELECT min(lon) AS min_x, min(lat) AS min_y, "
        "max(lon) AS max_x, max(lat) AS max_y FROM geo"
    )


def q_region_join(fx: str) -> str:
    """PIP membership winner by catalog order (before grid fallback):
    region_index = max containing region_ord, -1 / '' when none."""
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)},
win AS (
  SELECT url, max(region_ord) AS region_ord FROM memb GROUP BY url
),
winr AS (
  SELECT w.url, m.region, w.region_ord
  FROM win w JOIN memb m ON m.url = w.url AND m.region_ord = w.region_ord
)
SELECT g.url, COALESCE(wr.region, '') AS region,
  CAST(COALESCE(wr.region_ord, -1) AS TINYINT) AS pip_region_index
FROM geo g LEFT JOIN winr wr ON wr.url = g.url"""


def q_region_counts(fx: str) -> str:
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)},
win AS (SELECT url, max(region_ord) AS region_ord FROM memb GROUP BY url),
winr AS (
  SELECT w.url, m.region FROM win w
  JOIN memb m ON m.url = w.url AND m.region_ord = w.region_ord
)
SELECT region, count(*) AS n_points FROM winr GROUP BY region"""


def q_datum_transform(fx: str) -> str:
    """The flagship transform, covered rows only (grid-valid winner by
    catalog order; NaN rows excluded so value-hashing is well-defined)."""
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)}, {_transform_ctes(fx)}
SELECT g.url, g.lat, g.lon, w.region,
  CAST(w.region_ord AS TINYINT) AS region_index, w.z_out, w.unc
FROM zwin w JOIN geo g ON g.url = w.url
WHERE w.rn = 1"""


def q_transform_summary(fx: str) -> str:
    """Per-region aggregate of the transform output (exercises the
    groupby path on top of the full transform)."""
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)}, {_transform_ctes(fx)}
SELECT region, count(*) AS n_points,
  {_r3("sum(z_out)")} AS sum_z, {_r3("sum(unc)")} AS sum_unc
FROM zwin WHERE rn = 1 GROUP BY region"""


def q_datum_transform_inv(fx: str) -> str:
    """mllw -> ellipse inverse (reversed steps, toggled signs, height
    out, zero uncertainty)."""
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)}, {_transform_ctes(fx, inverse=True)}
SELECT w.url, w.region, CAST(w.region_ord AS TINYINT) AS region_index, w.z_out, w.unc
FROM zwin w WHERE w.rn = 1"""


def q_datum_transform_navd88(fx: str) -> str:
    """navd88 -> mllw: the geoid step cancels as the common prefix of
    the two datum definitions, leaving tss-inverse + mllw-forward."""
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)}, {_transform_ctes(fx, from_navd88=True)}
SELECT w.url, w.region, CAST(w.region_ord AS TINYINT) AS region_index, w.z_out, w.unc
FROM zwin w WHERE w.rn = 1"""


def q_datum_transform_mhw(fx: str) -> str:
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)}, {_transform_ctes(fx, target="mhw")}
SELECT w.url, w.region, CAST(w.region_ord AS TINYINT) AS region_index, w.z_out, w.unc
FROM zwin w WHERE w.rn = 1"""


def q_transform_projected(fx: str) -> str:
    """Mirror of queries.q_transform_projected: UTM zone-18 forward +
    inverse roundtrip (bit-identical Krüger kernels; the recovered
    coords equal the 5-decimal originals because the series error is
    orders below the 1e-7 output quantization), then the standard
    membership + transform on the recovered coordinates."""
    from vyperdatum_ray.core.projection import sql_utm_roundtrip_ctes

    return _roundtrip_transform_sql(
        fx, sql_utm_roundtrip_ctes("u", "geo", "lon", "lat", 18, "url"),
        "uutm")


def _roundtrip_transform_sql(fx: str, ctes: str, final: str) -> str:
    """Shared SELECT shape for every projected-roundtrip transform
    mirror (UTM and the registered state-plane zones): the roundtrip
    CTE chain supplies ``{final}(url, easting, northing, rlon, rlat)``;
    membership + transform run on the original geo coords (recovered ==
    originals under the 1e-7 quantization, same identity both sides).
    The emitted easting/northing are re-quantized to cm exactly as the
    engine's ``FusedReadTransform._project`` does: both sides
    recompute the forward with their own libm, and a ~1-ULP
    sin/cos/exp/ln divergence flips the 0.1 mm rounding for ~1e-6 of
    points (2 observed at sf0.1) — at cm the residual tie is ~1e-9."""
    from vyperdatum_ray.core.helmert import sql_rn

    return f"""WITH {_geo_cte(fx)},
{ctes},
{_memb_cte(fx)}, {_transform_ctes(fx)}
SELECT g.url, {sql_rn("u.easting", 2)} AS easting,
  {sql_rn("u.northing", 2)} AS northing, u.rlon AS lon, u.rlat AS lat,
  w.region, CAST(w.region_ord AS TINYINT) AS region_index, w.z_out, w.unc
FROM zwin w
JOIN geo g ON g.url = w.url
JOIN {final} u ON u.url = g.url
WHERE w.rn = 1"""


def q_transform_stateplane(fx: str) -> str:
    """Mirror of queries.q_transform_stateplane: read the fixture's
    projected state-plane dataset (bit-identical parquet doubles on
    both sides), recover geographic coordinates with the mirrored LCC
    2SP inverse (per-zone scalars repr-embedded), then the standard
    membership + transform on the recovered coordinates."""
    from vyperdatum_ray.core.projection import sql_lcc_inverse_ctes

    return f"""WITH
spin AS (SELECT * FROM read_parquet('{fx}/stateplane/*.parquet')),
{sql_lcc_inverse_ctes("sp", "spin", "easting", "northing", 3631,
                      "url, easting, northing")},
geo AS (SELECT url, easting, northing, rlon AS lon, rlat AS lat FROM splcc),
{_memb_cte(fx)}, {_transform_ctes(fx)}
SELECT g.url, g.easting, g.northing, g.lon, g.lat,
  w.region, CAST(w.region_ord AS TINYINT) AS region_index, w.z_out, w.unc
FROM zwin w
JOIN geo g ON g.url = w.url
WHERE w.rn = 1"""


def q_transform_stateplane_tm(fx: str) -> str:
    """Mirror of queries.q_transform_stateplane_tm: read the fixture's
    TM-projected dataset (bit-identical parquet doubles on both sides),
    recover geographic coordinates with the mirrored Krüger TM inverse
    (zone scalars repr-embedded), then the standard membership +
    transform on the recovered coordinates."""
    from vyperdatum_ray.core.projection import sql_tm_inverse_ctes

    return f"""WITH
tmin AS (SELECT * FROM read_parquet('{fx}/stateplane_tm/*.parquet')),
{sql_tm_inverse_ctes("sp", "tmin", "easting", "northing", 26957,
                     "url, easting, northing")},
geo AS (SELECT url, easting, northing, rlon AS lon, rlat AS lat FROM sptm),
{_memb_cte(fx)}, {_transform_ctes(fx)}
SELECT g.url, g.easting, g.northing, g.lon, g.lat,
  w.region, CAST(w.region_ord AS TINYINT) AS region_index, w.z_out, w.unc
FROM zwin w
JOIN geo g ON g.url = w.url
WHERE w.rn = 1"""


def _transform_stateplane_roundtrip(fx: str, epsg: int) -> str:
    """Mirror of queries._transform_stateplane_roundtrip for the
    round-5 newly-registered zones: forward-project the geocoded
    coordinates with the zone's registry row (bit-identical kernels
    repr-embedding the SAME derived scalars), inverse back, then the
    standard membership + transform on the recovered coordinates
    (recovered == 5-decimal originals under 1e-7 quantization — the
    same identity q_transform_projected relies on)."""
    from vyperdatum_ray.core.projection import (STATE_PLANE_LCC,
                                                sql_lcc_roundtrip_ctes,
                                                sql_tm_roundtrip_ctes)

    if epsg in STATE_PLANE_LCC:
        ctes = sql_lcc_roundtrip_ctes("u", "geo", "lon", "lat", epsg, "url")
        final = "ulcc"
    else:
        ctes = sql_tm_roundtrip_ctes("u", "geo", "lon", "lat", epsg, "url")
        final = "utm"
    return _roundtrip_transform_sql(fx, ctes, final)


def q_transform_stateplane_md(fx: str) -> str:
    return _transform_stateplane_roundtrip(fx, 26985)


def q_transform_stateplane_nj(fx: str) -> str:
    return _transform_stateplane_roundtrip(fx, 32111)


def q_external_region_transform(fx: str) -> str:
    """Mirror of queries.q_external_region_transform: every catalog
    table unioned with its ``external/`` sibling (the user region's
    region_ord is the appended-last ordinal, so the standard
    max-region_ord winner rule gives it overlap priority — no special
    casing anywhere)."""
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx, ext=True)}, {_transform_ctes(fx, ext=True)}
SELECT w.url, w.region, CAST(w.region_ord AS TINYINT) AS region_index, w.z_out, w.unc
FROM zwin w WHERE w.rn = 1"""


def q_csv_roundtrip(fx: str) -> str:
    """Per-region aggregate that the CSV sink->source roundtrip must
    reproduce: same zwin as the parquet path (CSV round-trips doubles
    exactly; 3-decimal sums absorb order noise)."""
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)}, {_transform_ctes(fx)}
SELECT CAST(region_ord AS BIGINT) AS region_index, count(*) AS n_points,
  {_r3("sum(z_out)")} AS sum_z
FROM zwin WHERE rn = 1 GROUP BY region_ord"""


def q_datum_transform_itrf(fx: str) -> str:
    """Mirror of queries.q_datum_transform_itrf: synthesized z, geoid
    frame hop feeding the grid pipeline (via the z-threaded
    _transform_ctes core), and the out-frame (ITRF2014) hop supplying
    both the output xy and the diffz of the reference's
    ``new_z - (z - diffz)`` correction for NAD83-framed regions."""
    zexpr_pre = "(((z.sz - z.g_geoid) + z.g_tss) - z.g_mllw)"
    return f"""WITH {_geo_cte(fx)},
geoz AS (
  SELECT url, lat, lon, {_r3("(lat - 35.0) * 2.0 + (lon + 75.0)")} AS z_in
  FROM geo
),
oo0 AS (SELECT url, lat, lon, z_in, 'ITRF2014' AS out_frame FROM geoz),
{sql_hop_ctes("o", "oo0", "lon", "lat", "z_in", "out_frame", "url")},
{_memb_cte(fx, geo_name="geoz")},
{_transform_ctes(fx, geo_name="geoz", z_col="z_in", with_zwin=False)},
zwin AS (
  SELECT z.url, z.region, z.region_ord,
    {_r3(f"CASE WHEN rc.geoid_frame = 'ITRF2014' THEN -({zexpr_pre}) "
         f"ELSE -({zexpr_pre} - (z.z_in - o.hz)) END")} AS z_out,
    o.hlon AS x_out, o.hlat AS y_out,
    gs.sigma + s.tss + s.mllw AS unc,
    row_number() OVER (PARTITION BY z.url ORDER BY z.region_ord DESC) AS rn
  FROM zr z
  JOIN rcat rc ON rc.region = z.region
  JOIN sig s ON s.region = z.region
  JOIN gsig gs ON gs.geoid_name = rc.geoid_name
  JOIN ohop o ON o.url = z.url
  WHERE z.ok_all
)
SELECT w.url, w.region, CAST(w.region_ord AS TINYINT) AS region_index,
  w.x_out, w.y_out, w.z_out, w.unc
FROM zwin w WHERE w.rn = 1"""


def q_hot_tiles(fx: str, min_rows: int = 200) -> str:
    return (
        f"WITH {_geo_cte(fx)} SELECT "
        "CAST(floor((lat + 90.0) / 0.25) AS BIGINT) * 4096 "
        "+ CAST(floor((lon + 180.0) / 0.25) AS BIGINT) AS tile_id, "
        f"count(*) AS n_rows FROM geo GROUP BY tile_id HAVING count(*) >= {min_rows}"
    )


def q_uncertainty_table(fx: str) -> str:
    """Composed scalar uncertainty per (region, target): geoid sigma +
    tss sigma (+ target sigma for tidal targets), same addition order as
    compose_uncertainty."""
    return f"""WITH
rcat AS (SELECT * FROM read_parquet('{fx}/region_catalog.parquet')),
sig AS (SELECT * FROM read_parquet('{fx}/sigma.parquet')),
gsig AS (SELECT * FROM read_parquet('{fx}/sigma_geoid.parquet'))
SELECT s.region, t.target,
  CASE t.target
    WHEN 'tss' THEN (0.0 + gs.sigma) + s.tss
    WHEN 'mllw' THEN ((0.0 + gs.sigma) + s.tss) + s.mllw
    WHEN 'mhw' THEN ((0.0 + gs.sigma) + s.tss) + s.mhw
    WHEN 'mtl' THEN ((0.0 + gs.sigma) + s.tss) + s.mtl
    WHEN 'dtl' THEN ((0.0 + gs.sigma) + s.tss) + s.dtl
  END AS unc
FROM sig s
JOIN rcat rc ON rc.region = s.region
JOIN gsig gs ON gs.geoid_name = rc.geoid_name
CROSS JOIN (VALUES ('mllw'), ('mhw'), ('mtl'), ('dtl'), ('tss')) AS t(target)"""


def q_neardup_embedding(fx: str, tau: float = 0.4) -> str:
    return (
        "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) v FROM embeddings) "
        "SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b "
        "FROM e a JOIN e b ON a.vec_id < b.vec_id "
        f"WHERE list_cosine_similarity(a.v, b.v) >= {tau}"
    )


def q_zonal_stats(fx: str) -> str:
    """Per-region zonal statistics over the raster's transformed depth
    (covered, finite-elevation cells; allow_outside=False so z =
    -(elev + sep) everywhere counted)."""
    return f"""WITH {_raster_ctes(fx)},
win1 AS (SELECT * FROM rwin WHERE rn = 1),
zs AS (
  SELECT CAST(w.cand_pos AS INTEGER) AS region_index,
    {_r3("-1.0 * (c.elevation + w.sep)")} AS z
  FROM cells c
  JOIN win1 w ON w.row = c.row AND w.col = c.col
  WHERE isfinite(c.elevation)
)
SELECT region_index, count(*) AS n_cells,
  min(z) AS min_z, max(z) AS max_z, {_r3("sum(z)")} AS sum_z
FROM zs GROUP BY region_index"""


def q_raster_coverage(fx: str) -> str:
    return f"""WITH {_raster_ctes(fx)},
tot AS (SELECT count(*) AS n_cells FROM cells),
cov AS (SELECT count(*) AS n_covered FROM rwin WHERE rn = 1)
SELECT t.n_cells, c.n_covered,
  CAST(CASE WHEN c.n_covered = t.n_cells THEN 1 ELSE 0 END AS BIGINT) AS is_covered
FROM tot t CROSS JOIN cov c"""


def q_knn_grid_nodes(fx: str) -> str:
    """J5 kNN k=4: the containing cell's 2x2 corner nodes ranked by
    (squared distance, iy, ix) — ix0/iy0 clipping keeps all four
    candidates in range, so ranks are total and deterministic."""
    return f"""WITH {_geo_cte(fx)},
gm AS (SELECT * FROM read_parquet('{fx}/grid_meta.parquet') WHERE grid_key = 'sgeoid12x'),
base AS (
  SELECT g.url, g.lon, g.lat, gm.origin_x, gm.origin_y, gm.dx, gm.dy,
    CAST(LEAST(GREATEST(floor((g.lon - gm.origin_x) / gm.dx), 0), gm.nx - 2) AS BIGINT) AS ix0,
    CAST(LEAST(GREATEST(floor((g.lat - gm.origin_y) / gm.dy), 0), gm.ny - 2) AS BIGINT) AS iy0
  FROM geo g CROSS JOIN gm
),
cand AS (
  SELECT b.url, b.ix0 + o.ox AS cix, b.iy0 + o.oy AS ciy,
    (b.origin_x + (b.ix0 + o.ox) * b.dx - b.lon) * (b.origin_x + (b.ix0 + o.ox) * b.dx - b.lon)
    + (b.origin_y + (b.iy0 + o.oy) * b.dy - b.lat) * (b.origin_y + (b.iy0 + o.oy) * b.dy - b.lat) AS d2
  FROM base b
  CROSS JOIN (VALUES (0, 0), (1, 0), (0, 1), (1, 1)) AS o(ox, oy)
)
SELECT url,
  row_number() OVER (PARTITION BY url ORDER BY d2, ciy, cix) AS rank,
  cix AS node_ix, ciy AS node_iy
FROM cand"""


def q_gridded_points(fx: str) -> str:
    """Vector -> raster rasterization of the transformed points."""
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)}, {_transform_ctes(fx)},
rmeta AS (SELECT * FROM read_parquet('{fx}/raster_meta.parquet')),
pts AS (
  SELECT CAST(floor((g.lat - m.origin_y) / m.dy) AS BIGINT) AS row,
         CAST(floor((g.lon - m.origin_x) / m.dx) AS BIGINT) AS col,
         w.z_out, m.ncols, m.nrows
  FROM zwin w JOIN geo g ON g.url = w.url CROSS JOIN rmeta m
  WHERE w.rn = 1
)
SELECT row, col, count(*) AS n_points, {_r3("sum(z_out)")} AS sum_z
FROM pts
WHERE row >= 0 AND row < nrows AND col >= 0 AND col < ncols
GROUP BY row, col"""


def q_region_median(fx: str) -> str:
    """Exact per-region median of z_out, replicating the engine's
    histogram median: lower/upper middle order statistics averaged as
    (lo + hi) / 2 (NOT quantile interpolation — same expression both
    sides)."""
    return f"""WITH {_geo_cte(fx)}, {_memb_cte(fx)}, {_transform_ctes(fx)},
zs AS (SELECT region_ord, z_out FROM zwin WHERE rn = 1),
ranked AS (
  SELECT region_ord, z_out,
    row_number() OVER (PARTITION BY region_ord ORDER BY z_out) AS rn,
    count(*) OVER (PARTITION BY region_ord) AS n
  FROM zs
)
SELECT CAST(region_ord AS BIGINT) AS region_index,
  max(n) AS n_points,
  (max(CASE WHEN rn = (n - 1) // 2 + 1 THEN z_out END)
   + max(CASE WHEN rn = n // 2 + 1 THEN z_out END)) / 2 AS median_z
FROM ranked GROUP BY region_ord"""


def q_sampled_transform(fx: str, d: float = 0.05) -> str:
    """O2 sample-distance accelerator: transform occupied coarse-cell
    centers once, assign per point. Mirrors q_sampled_transform's
    absolute lattice (floor(coord/d), center (c+0.5)*d)."""
    return f"""WITH {_geo_cte(fx)},
cellsq AS (
  SELECT DISTINCT CAST(floor(lon / {d}) AS BIGINT) AS cx,
                  CAST(floor(lat / {d}) AS BIGINT) AS cy
  FROM geo
),
centers AS (
  SELECT cx, cy, (cx + 0.5) * {d} AS lon, (cy + 0.5) * {d} AS lat FROM cellsq
),
edges AS (SELECT * FROM read_parquet('{fx}/region_edges.parquet')),
cmemb AS (
  SELECT c.cx, c.cy, e.region, e.region_ord
  FROM centers c CROSS JOIN edges e
  GROUP BY c.cx, c.cy, c.lon, c.lat, e.region, e.region_ord
  HAVING max(e.ax * c.lon + e.ay * c.lat - e.b) <= 0
),
rcat AS (SELECT * FROM read_parquet('{fx}/region_catalog.parquet')),
gmeta AS (SELECT * FROM read_parquet('{fx}/grid_meta.parquet')),
gvals AS (SELECT * FROM read_parquet('{fx}/grid_values.parquet')),
sig AS (SELECT * FROM read_parquet('{fx}/sigma.parquet')),
gsig AS (SELECT * FROM read_parquet('{fx}/sigma_geoid.parquet')),
ct0 AS (
  SELECT m.cx, m.cy, m.region, m.region_ord, c.lon, c.lat,
         rc.geoid_name, rc.geoid_frame
  FROM cmemb m
  JOIN rcat rc ON rc.region = m.region
  JOIN centers c ON c.cx = m.cx AND c.cy = m.cy
),
{sql_hop_ctes("ct", "ct0", "lon", "lat", "0.0", "geoid_frame",
              "cx, cy, region, region_ord, geoid_name")},
ctr AS (
  SELECT cx, cy, region, region_ord, geoid_name,
         hlon AS slon, hlat AS slat, hz AS sz
  FROM cthop
),
csamp AS (
  SELECT t.*, s.surface,
    CASE WHEN s.surface = 'geoid' THEN t.geoid_name
         ELSE t.region || '/' || s.surface END AS grid_key
  FROM ctr t
  CROSS JOIN (VALUES ('geoid'), ('tss'), ('mllw')) AS s(surface)
),
csampq AS (
  SELECT c.cx, c.cy, c.region, c.region_ord, c.surface, c.grid_key, c.sz, gm.nx, gm.ny,
    (c.slon - gm.origin_x) / gm.dx AS gx,
    (c.slat - gm.origin_y) / gm.dy AS gy,
    CAST(LEAST(GREATEST(floor((c.slon - gm.origin_x) / gm.dx), 0), gm.nx - 2) AS BIGINT) AS ix0,
    CAST(LEAST(GREATEST(floor((c.slat - gm.origin_y) / gm.dy), 0), gm.ny - 2) AS BIGINT) AS iy0,
    (c.slon - gm.origin_x) / gm.dx
      - LEAST(GREATEST(floor((c.slon - gm.origin_x) / gm.dx), 0), gm.nx - 2) AS fx,
    (c.slat - gm.origin_y) / gm.dy
      - LEAST(GREATEST(floor((c.slat - gm.origin_y) / gm.dy), 0), gm.ny - 2) AS fy
  FROM csamp c JOIN gmeta gm ON gm.grid_key = c.grid_key
),
cinterp AS (
  SELECT q.cx, q.cy, q.region, q.region_ord, q.surface, q.sz,
    (1 - q.fx) * (1 - q.fy) * a.v + q.fx * (1 - q.fy) * b.v
      + (1 - q.fx) * q.fy * c.v + q.fx * q.fy * d.v AS val,
    (a.v IS NOT NULL AND b.v IS NOT NULL AND c.v IS NOT NULL AND d.v IS NOT NULL
     AND q.gx >= 0 AND q.gx <= q.nx - 1 AND q.gy >= 0 AND q.gy <= q.ny - 1) AS ok
  FROM csampq q
  LEFT JOIN gvals a ON a.grid_key = q.grid_key AND a.ix = q.ix0 AND a.iy = q.iy0
  LEFT JOIN gvals b ON b.grid_key = q.grid_key AND b.ix = q.ix0 + 1 AND b.iy = q.iy0
  LEFT JOIN gvals c ON c.grid_key = q.grid_key AND c.ix = q.ix0 AND c.iy = q.iy0 + 1
  LEFT JOIN gvals d ON d.grid_key = q.grid_key AND d.ix = q.ix0 + 1 AND d.iy = q.iy0 + 1
),
czr AS (
  SELECT cx, cy, region, region_ord, max(sz) AS sz,
    max(CASE WHEN surface = 'geoid' THEN val END) AS g_geoid,
    max(CASE WHEN surface = 'tss' THEN val END) AS g_tss,
    max(CASE WHEN surface = 'mllw' THEN val END) AS g_mllw,
    bool_and(ok) AS ok_all
  FROM cinterp GROUP BY cx, cy, region, region_ord
),
czwin AS (
  SELECT z.cx, z.cy,
    {_r3("-(((z.sz - z.g_geoid) + z.g_tss) - z.g_mllw)")} AS z_samp,
    gs.sigma + s.tss + s.mllw AS unc_samp,
    CAST(z.region_ord AS INTEGER) AS region_index,
    row_number() OVER (PARTITION BY z.cx, z.cy ORDER BY z.region_ord DESC) AS rn
  FROM czr z
  JOIN rcat rc ON rc.region = z.region
  JOIN sig s ON s.region = z.region
  JOIN gsig gs ON gs.geoid_name = rc.geoid_name
  WHERE z.ok_all
)
SELECT g.url,
  CAST(floor(g.lon / {d}) AS BIGINT) AS cx,
  CAST(floor(g.lat / {d}) AS BIGINT) AS cy,
  w.z_samp, w.unc_samp, w.region_index
FROM geo g
JOIN czwin w ON w.rn = 1
  AND w.cx = CAST(floor(g.lon / {d}) AS BIGINT)
  AND w.cy = CAST(floor(g.lat / {d}) AS BIGINT)"""


def q_knn_grid_node(fx: str) -> str:
    """Nearest geoid-grid node per geocoded point (J5, k=1 SQL-checkable
    case; rint half-even == DuckDB round-half-even on .5 grid coords is
    avoided by the 5-decimal coordinate lattice)."""
    return f"""WITH {_geo_cte(fx)},
gmeta AS (SELECT * FROM read_parquet('{fx}/grid_meta.parquet') WHERE grid_key = 'sgeoid12x')
SELECT g.url,
  CAST(LEAST(GREATEST(round_even((g.lon - gm.origin_x) / gm.dx, 0), 0), gm.nx - 1) AS BIGINT) AS node_ix,
  CAST(LEAST(GREATEST(round_even((g.lat - gm.origin_y) / gm.dy, 0), 0), gm.ny - 1) AS BIGINT) AS node_iy
FROM geo g CROSS JOIN gmeta gm"""


def q_spatial_order(fx: str) -> str:
    """Mirror of queries.q_spatial_order: same morton bit-interleave
    (pure integer ops after one float floor whose expression tree
    matches numpy exactly) and a window row_number for the global
    (morton, url) rank."""
    terms = " | ".join(
        f"(((vx >> {b}) & 1) << {2 * b}) | (((vy >> {b}) & 1) << {2 * b + 1})"
        for b in range(16))
    return f"""WITH {_geo_cte(fx)},
m0 AS (SELECT url,
  CAST(least(greatest(floor((lon - (-77.0)) / 5.0 * 65536.0), 0.0), 65535.0) AS BIGINT) AS vx,
  CAST(least(greatest(floor((lat - 33.0) / 5.0 * 65536.0), 0.0), 65535.0) AS BIGINT) AS vy
  FROM geo),
m1 AS (SELECT url, {terms} AS morton FROM m0)
SELECT url, morton,
  CAST(row_number() OVER (ORDER BY morton, url) - 1 AS BIGINT) AS rank
FROM m1"""
