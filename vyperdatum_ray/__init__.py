"""vyperdatum_ray — a Ray-Data-native vertical-datum transformation and
spatial-join engine.

A from-scratch re-expression of the capabilities of
``noaa-ocs-hydrography/vyperdatum`` (reference, read-only at
``/root/reference``) on top of ``ray.data.Dataset`` pipelines:

* geocode Common-Crawl-style web pages (``url, warc_ts, html, text, lang``)
  into lat/lon,
* index points into S2 level-13 and H3-style res-9 hex cells,
* point-in-polygon join against VDatum-style regional boundary polygons
  (per-region bbox and edge tables cached per worker process; every
  (point, region) pair is tested at once),
* bilinear grid interpolation of separation surfaces composed into
  regional datum pipelines (``ellipse -> geoid -> tss -> mllw`` etc.,
  semantics of ``reference/vyperdatum/pipeline.py:20-94`` and
  ``core.py:357-462``),
* per-point uncertainty composition (``core.py:313-355``) and
  catalog-order datum selection (``core.py:421-453``),
* per-tile Parquet output with lineage checkpoints.

Nothing here calls ``ray.init``; callers (bench.py, CLI, test fixtures)
own the Ray session.
"""

__version__ = "0.1.0"

from vyperdatum_ray.core.pipeline_algebra import (  # noqa: F401
    DATUM_DEFINITION,
    get_regional_pipeline,
    compare_datums,
    inverse_datum_def,
    parse_pipeline,
)


def __getattr__(name):  # lazy: avoid importing Ray at package import
    if name == "Catalog":
        from vyperdatum_ray.catalog import Catalog

        return Catalog
    if name == "transform_points":
        from vyperdatum_ray.points import transform_points

        return transform_points
    if name == "flagship_pipeline":
        from vyperdatum_ray.pipelines.flagship import flagship_pipeline

        return flagship_pipeline
    if name == "transform_raster":
        from vyperdatum_ray.pipelines.raster import raster_transform

        return raster_transform
    if name == "vertical_datum_to_wkt":
        from vyperdatum_ray.core.wkt import vertical_datum_to_wkt

        return vertical_datum_to_wkt
    if name == "parse_crs":
        from vyperdatum_ray.core.crs import parse_crs

        return parse_crs
    if name == "frame_hop":
        from vyperdatum_ray.core.helmert import frame_hop

        return frame_hop
    if name in ("utm_forward", "utm_inverse"):
        from vyperdatum_ray.core import projection

        return getattr(projection, name)
    raise AttributeError(name)
