"""Salted repartition exchanges: the one shuffle shape behind every
multi-join reshape and high-cardinality per-key reduce.

Native ``Dataset.join`` spawns a per-join aggregator-actor pool, and two
of them in one DAG deadlock at small CPU counts (see CLAUDE.md). A
multi-join is instead a UNION of legs plus one bounded-salt groupby (the
join over UNION ALL of Teradata, SIGMOD 2018): every leg emits rows keyed
by an int64 ``k``, ``salt = k mod 2^bits`` puts every copy of a key in
one group, and a vectorized pandas reduce inside each group performs the
join. Legs pre-reduce inside their own map task, so the shuffle carries
int partials, never text.

The salt width comes from parquet FOOTER metadata, the skew-aware sizing
of FP-Hadoop (VLDB 2015): the smallest width at or above a floor whose
expected per-group payload fits ``TARGET_GROUP_BYTES``, so each reduce
task stays block-sized at 100 TB. Every exchange, relational or text,
starts at the one floor ``JOIN_FLOOR``: below the byte target a wider
salt only adds near-empty groups, each one more map_groups Python call
(at sf0.1 on 4 CPUs, dedup_exact took 1.7–2.1 s at the old 1024-way text
width and 0.3–0.8 s at 16 groups). Correctness is
width-independent: every copy of a key shares its salt at any width.

One family stays off this primitive: ann's label propagation and
cluster assignment (``_lp_components``, ``_clusters_distributed``). Their
legs are per-round (node, label) state derived from other datasets, so
there is no footer to size them from; they keep a fixed 1024-way salt.
"""

from __future__ import annotations

import glob
import os
import weakref

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

JOIN_FLOOR = 4                    # width below the byte target
SALT_BITS_CAP = 26                # 64M groups; Ray groupby key space
TARGET_GROUP_BYTES = 128 << 20    # per-map_groups-task payload goal
_FOOTER_SAMPLE_FILES = 64

# exchange output -> its zero-row table, so an exchange's output can be
# a leg of the next (and collect typed) without executing it to learn
# its schema. Entries are written once, never mutated, and keyed by the
# Dataset object, so they go when it does.
_EMPTY: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def footer_stats(paths, columns=None) -> tuple[int, int]:
    """(estimated uncompressed bytes of ``columns``, estimated rows)
    across ``paths`` from parquet footers only. The first
    ``_FOOTER_SAMPLE_FILES`` footers (sorted order, deterministic) are
    read and extrapolated by file count, so driver cost is O(1) in
    corpus size — production layouts would serve the same numbers from
    a table catalog."""
    import pyarrow.parquet as pq

    if isinstance(paths, (str, bytes)):
        paths = [paths]
    # a "table" may be a DIRECTORY of row-group files (the sharded
    # layout every 100-TB table actually has; ray.data.read_parquet
    # accepts it transparently) — expand those to their footers
    expanded = []
    for p in paths:
        if isinstance(p, str) and os.path.isdir(p):
            expanded.extend(glob.glob(os.path.join(p, "**", "*.parquet"),
                                      recursive=True))
        else:
            expanded.append(p)
    paths = sorted(expanded)
    if not paths:
        return 0, 0
    sample = paths[:_FOOTER_SAMPLE_FILES]
    total = 0
    rows = 0
    for p in sample:
        md = pq.ParquetFile(p).metadata
        rows += md.num_rows
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for ci in range(g.num_columns):
                col = g.column(ci)
                if columns is None or col.path_in_schema in columns:
                    total += col.total_uncompressed_size
    scale = len(paths)
    n = max(len(sample), 1)
    return total * scale // n, rows * scale // n


def salt_bits(paths, columns) -> int:
    """Salt width for an exchange whose shuffle payload is the
    uncompressed bytes of ``columns`` in ``paths``: the smallest width
    >= ``JOIN_FLOOR`` with expected per-group payload <= ``TARGET_GROUP_BYTES``.
    Deliberately uncached: the footer sample is O(64) metadata reads,
    and a path-keyed cache would serve stale widths after an in-place
    fixture/corpus rewrite in a long-lived process."""
    total, _ = footer_stats(paths, list(columns) if columns else None)
    bits = JOIN_FLOOR
    while (total >> bits) > TARGET_GROUP_BYTES and bits < SALT_BITS_CAP:
        bits += 1
    return bits


def _zero_rows(ds: ray.data.Dataset) -> pa.Table:
    if ds in _EMPTY:
        return _EMPTY[ds]
    return ds.schema().base_schema.empty_table()


def _schema(t: pa.Table) -> pa.Schema:
    # an empty pandas object column has no Arrow type; text is the only
    # object payload an exchange carries
    return pa.schema([f.with_type(pa.string()) if f.type == pa.null() else f
                      for f in t.schema]).remove_metadata()


def exchange(legs, reduce, size) -> ray.data.Dataset:
    """Salted repartition exchange over ``legs``, a list of
    ``(dataset, fn)`` pairs: ``fn(batch) -> pa.Table`` (or ``None`` for
    the identity) runs in the leg's own map task and returns rows with
    an int64 key ``k``. Rows of one ``k`` from every leg meet in one
    group, where ``reduce(frame_0, frame_1, ...)`` gets one pandas frame
    per leg (that leg's columns only, possibly empty) and returns a
    DataFrame. ``size = (paths, columns)`` names the payload whose
    footer bytes set the salt width (``salt_bits``).

    Each leg's schema is learned by running ``fn`` on zero rows in the
    driver, and the reduce's by running it on those empties, so both
    must accept empty input. Every leg block is padded to one union
    schema (no mixed-schema blocks in the shuffle), a group missing a
    leg still hands ``reduce`` that leg's typed empty frame, and the
    output is Arrow blocks of one schema, fit to be a leg of the next
    exchange."""
    mask = pa.scalar((1 << salt_bits(*size)) - 1, pa.int64())
    empties = [_zero_rows(ds) if fn is None else fn(_zero_rows(ds))
               for ds, fn in legs]
    fields: dict[str, pa.DataType] = {}
    for t in empties:
        for f in _schema(t):
            if fields.setdefault(f.name, f.type) != f.type:
                raise TypeError(f"exchange legs disagree on {f.name!r}: "
                                f"{fields[f.name]} vs {f.type}")
    if fields.get("k") != pa.int64():
        raise TypeError(f"exchange key 'k' must be int64, got {fields.get('k')}")
    payload = pa.schema(list(fields.items()))
    union = pa.schema(list(payload) + [pa.field("salt", pa.int64()),
                                       pa.field("side", pa.int8())])
    names = [t.column_names for t in empties]
    out_schema = _schema(pa.Table.from_pandas(
        reduce(*(t.to_pandas() for t in empties)), preserve_index=False))

    def tag(fn, side: int):
        def run(batch: pa.Table) -> pa.Table:
            t = batch if fn is None else fn(batch)
            n = t.num_rows
            cols = [t.column(f.name).cast(f.type) if f.name in t.column_names
                    else pa.nulls(n, f.type) for f in payload]
            cols += [pc.bit_wise_and(t.column("k"), mask),
                     pa.array(np.full(n, side, np.int8))]
            return pa.Table.from_arrays(cols, schema=union)
        return run

    def group(g: pa.Table) -> pa.Table:
        side = g.column("side")
        frames = [g.filter(pc.equal(side, i)).select(cols).to_pandas()
                  for i, cols in enumerate(names)]
        return pa.Table.from_pandas(reduce(*frames), schema=out_schema,
                                    preserve_index=False).replace_schema_metadata()

    tagged = [ds.map_batches(tag(fn, i), batch_format="pyarrow")
              for i, (ds, fn) in enumerate(legs)]
    out = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    out = out.groupby("salt").map_groups(group, batch_format="pyarrow")
    _EMPTY[out] = out_schema.empty_table()
    return out


def collect(ds: ray.data.Dataset) -> pd.DataFrame:
    """``ds.to_pandas()`` that keeps an exchange output's columns and
    dtypes when no group produced a row (a groupby with no groups
    yields no blocks, which collect as a columnless frame)."""
    df = ds.to_pandas()
    if len(df.columns) == 0 and ds in _EMPTY:
        return _EMPTY[ds].to_pandas()
    return df


def map_typed(ds: ray.data.Dataset, fn) -> ray.data.Dataset:
    """``ds.map_batches(fn)`` over Arrow batches that stays typed like an
    exchange output: ``fn`` runs once on ``ds``'s zero rows in the
    driver, so ``collect`` keeps the columns when no block has a row (a
    map over an empty read yields no blocks at all)."""
    out = ds.map_batches(fn, batch_format="pyarrow")
    _EMPTY[out] = _schema(fn(_zero_rows(ds))).empty_table()
    return out


def materialize(ds: ray.data.Dataset) -> ray.data.Dataset:
    """``ds.materialize()`` that stays an exchange output: still a leg
    of the next exchange and collected typed when it has no rows."""
    out = ds.materialize()
    if ds in _EMPTY:
        _EMPTY[out] = _EMPTY[ds]
    return out


def from_arrow(t: pa.Table) -> ray.data.Dataset:
    """``ray.data.from_arrow(t)`` that collects typed when ``t`` has no
    rows."""
    out = ray.data.from_arrow(t)
    _EMPTY[out] = t.schema.empty_table()
    return out
