"""The engine's two merges of keyed partials. ``fold`` merges an
aggregate whose keys are bounded before the run (a schema's or a
catalog's values, a raster's cells) or global: each task's partial rows
are folded into one row per key on the driver as they arrive.
``exchange`` is the salted repartition behind every multi-join reshape
and every per-key reduce whose keys grow with the input.

A fold is FP-Hadoop's intermediate reduce (VLDB 2015): the partial runs
in the producing task, so a hot key adds one row per task and cannot
skew a reducer, and the driver holds one row per key plus the block in
hand. Ray's native ``groupby(key).aggregate`` over the same partials is
a partial map and an all-to-all sort (``Dataset.aggregate`` is
``groupby(None)``, a full shuffle too): on ``gridded_points``' partials
at sf0.1 on 4 CPUs it took 7.5-14.2 s against 0.57-0.81 s for one driver
merge.

Native ``Dataset.join`` spawns a per-join aggregator-actor pool, and two
of them in one DAG deadlock at small CPU counts (see CLAUDE.md). A
multi-join is instead a UNION of legs plus one bounded-salt groupby (the
join over UNION ALL of Teradata, SIGMOD 2018): every leg emits rows keyed
by an int64 ``k``, ``salt = k mod 2^bits`` puts every copy of a key in
one group, and a vectorized pandas reduce inside each group performs the
join. Legs pre-reduce inside their own map task, so the shuffle carries
int partials, never text.

Partitions are sized from the data (FP-Hadoop, VLDB 2015), by one
decision. Every engine read goes through ``read``, which asks Ray for
one block per parquet row group, counted from the footers; Ray's
default split cut each one-row-group pages file into 6 blocks, and a
sort-based groupby keeps its input's block count, so each exchange over
24 pages files sorted 144 map x 144 reduce partitions. An exchange then
takes its salt width from its legs' blocks, ``ceil(log2(sum of leg
blocks))`` clamped to [``JOIN_FLOOR``, ``SALT_BITS_CAP``], so salt
groups and the sort's reduce partitions are one count. A byte target
per block was measured and dropped: at sf0.1 on 4 CPUs it put all
~120 MiB of pages in one block and url_dedup took 32 s, against 13 s at
one block per row group. The floor keeps 16 groups at least; wider
salts than the blocks only add near-empty groups, each one more
map_groups Python call (dedup_exact took 1.7–2.1 s at a 1024-way width
and 0.3–0.8 s at 16 groups). Correctness is width-independent: every
copy of a key shares its salt at any width.

No other module groups rows by key across blocks: every keyed reduce,
joins and per-key sums alike, is a ``fold`` or an ``exchange`` here.
``fold`` and ``aggregate`` (an exchange whose groups merge per key) merge
a frame's rows with one ``groupby(keys).agg(how)``.
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
from ray.data.dataset import MaterializedDataset

JOIN_FLOOR = 4                    # the narrowest salt: 16 groups
SALT_BITS_CAP = 26                # 64M groups; Ray groupby key space
_FOOTER_SAMPLE_FILES = 64

# dataset -> (its zero-row table, its block count), so a read or an
# exchange output can be a leg of the next (and collect typed) without
# executing it to learn its schema, and sizes the next exchange's salt.
# Entries are written once, never mutated, and keyed by the Dataset
# object, so they go when it does.
_META: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _files(paths) -> list:
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
    return sorted(expanded)


def _footers(files, columns=None) -> tuple[int, int, int]:
    """(uncompressed bytes of ``columns``, rows, row groups) across
    ``files`` from parquet footers only. The first
    ``_FOOTER_SAMPLE_FILES`` footers (sorted order, deterministic) are
    read and extrapolated by file count, so driver cost is O(1) in
    corpus size — production layouts would serve the same numbers from
    a table catalog. Deliberately uncached: a path-keyed cache would
    serve stale figures after an in-place fixture/corpus rewrite in a
    long-lived process."""
    import pyarrow.parquet as pq

    sample = files[:_FOOTER_SAMPLE_FILES]
    total = rows = groups = 0
    for p in sample:
        md = pq.ParquetFile(p).metadata
        rows += md.num_rows
        groups += md.num_row_groups
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            for ci in range(g.num_columns):
                col = g.column(ci)
                if columns is None or col.path_in_schema in columns:
                    total += col.total_uncompressed_size
    scale = len(files)
    n = max(len(sample), 1)
    return total * scale // n, rows * scale // n, groups * scale // n


def footer_stats(paths, columns=None) -> tuple[int, int]:
    """(estimated uncompressed bytes of ``columns``, estimated rows)
    across ``paths``, from the sampled footer walk."""
    return _footers(_files(paths), columns)[:2]


def row_groups(paths) -> int:
    """The block count of a read of ``paths``: its row groups, from the
    sampled footer walk, never below 1."""
    return max(_footers(_files(paths))[2], 1)


def read(paths, columns=None) -> ray.data.Dataset:
    """``ray.data.read_parquet`` with one block per row group, the
    engine's only read. Its schema is the first footer's, projected to
    ``columns`` and stripped of metadata (the ``pandas`` key made Ray
    log a failed schema hash per block and skip its same-schema fast
    path); the zero-row table and block count are recorded so the read
    is typed and sized as an exchange leg without executing it."""
    import pyarrow.parquet as pq

    schema = pq.read_schema(_files(paths)[0]).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    n = row_groups(paths)
    ds = ray.data.read_parquet(paths, columns=columns, schema=schema,
                               override_num_blocks=n)
    _META[ds] = (schema.empty_table(), n)
    return ds


def _zero_rows(ds: ray.data.Dataset) -> pa.Table:
    if ds in _META:
        return _META[ds][0]
    return ds.schema().base_schema.empty_table()


def _blocks(ds: ray.data.Dataset) -> int:
    """A leg's block count: recorded for a read, an exchange output and
    what ``map_typed``/``materialize`` keep of them; a materialized
    dataset knows its own; anything else (a caller's lazy dataset)
    counts as one."""
    if ds in _META:
        return _META[ds][1]
    if isinstance(ds, MaterializedDataset):
        return ds.num_blocks()
    return 1


def _schema(t: pa.Table) -> pa.Schema:
    # an empty pandas object column has no Arrow type; text is the only
    # object payload an exchange carries
    return pa.schema([f.with_type(pa.string()) if f.type == pa.null() else f
                      for f in t.schema]).remove_metadata()


def exchange(legs, reduce) -> ray.data.Dataset:
    """Salted repartition exchange over ``legs``, a list of
    ``(dataset, fn)`` pairs: ``fn(batch) -> pa.Table`` (or ``None`` for
    the identity) runs in the leg's own map task and returns rows with
    an int64 key ``k``. Rows of one ``k`` from every leg meet in one
    group, where ``reduce(frame_0, frame_1, ...)`` gets one pandas frame
    per leg (that leg's columns only, possibly empty) and returns a
    DataFrame. The salt width is ``ceil(log2(sum of leg blocks))``,
    clamped to [``JOIN_FLOOR``, ``SALT_BITS_CAP``]; the output counts the
    same blocks, since the sort keeps its input's block count.

    Each leg's schema is learned by running ``fn`` on zero rows in the
    driver, and the reduce's by running it on those empties, so both
    must accept empty input. Every leg block is padded to one union
    schema (no mixed-schema blocks in the shuffle), a group missing a
    leg still hands ``reduce`` that leg's typed empty frame, and the
    output is Arrow blocks of one schema, fit to be a leg of the next
    exchange."""
    blocks = sum(_blocks(ds) for ds, _ in legs)
    bits = min(max((blocks - 1).bit_length(), JOIN_FLOOR), SALT_BITS_CAP)
    mask = pa.scalar((1 << bits) - 1, pa.int64())
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
    _META[out] = (out_schema.empty_table(), blocks)
    return out


def _merge(df: pd.DataFrame, keys: list[str], how: dict[str, str]) -> pd.DataFrame:
    """``df``'s rows merged into one row per ``keys`` value, each column
    of ``how`` by its ``"sum"``, ``"min"`` or ``"max"``, keys ascending
    (a null key is a group of its own): the one merge of ``fold`` and
    ``aggregate``. ``keys=[]`` gives the one global row, ``how={}`` the
    distinct keys."""
    if not keys:
        return pd.DataFrame({c: pd.Series([df[c].agg(f)], dtype=df[c].dtype)
                             for c, f in how.items()})
    if not how:
        return df[keys].drop_duplicates().sort_values(keys).reset_index(drop=True)
    return df.groupby(keys, as_index=False, dropna=False).agg(how)


def aggregate(legs, keys: list[str], how: dict[str, str], post=None) -> ray.data.Dataset:
    """``exchange(legs, reduce)`` for a per-key reduce whose keys grow
    with the input: each group's rows, from every leg, are merged per
    ``keys`` as ``fold`` merges them, and ``post(frame)`` (a per-group
    top-k, a count, a finalize) runs on the merged frame. Every copy of
    a key is in one group, so the merge is exact; the legs' ``k`` must
    be a function of ``keys``."""
    def reduce(*frames: pd.DataFrame) -> pd.DataFrame:
        rows = [f for f in frames if len(f)]
        df = _merge(pd.concat(rows, ignore_index=True) if rows else frames[0], keys, how)
        return df if post is None else post(df)

    return exchange(legs, reduce)


def fold(parts, keys: list[str], how: dict[str, str],
         empty: pa.Table | None = None) -> pd.DataFrame:
    """Partial tables folded into one row per ``keys`` value as they
    arrive: each column of ``how`` is merged by its ``"sum"``, ``"min"``
    or ``"max"``, and the keys come back ascending (a null key is a
    group of its own). ``keys=[]`` gives the one global row.

    ``parts`` is a Dataset whose blocks are the partials (``map_typed(ds,
    partial)``, so the partial runs in the producing task), read one
    block at a time, or an iterable of tables (``as_completed`` over
    shard tasks whose ``post`` is the partial). ``empty`` gives the
    columns' types: the Dataset's own zero rows by default, required for
    an iterable. With no partial row the result is those columns'
    typed zero rows, for ``keys=[]`` too: SQL's one row over empty input
    is the caller's to build.

    ``how={}`` gives the distinct keys. Only a bounded key set belongs
    here: the driver holds every key's row. Keys that grow with the
    input go through ``aggregate``."""
    if isinstance(parts, ray.data.Dataset):
        empty = _zero_rows(parts) if empty is None else empty
        parts = parts.iter_batches(batch_size=None, batch_format="pyarrow")
    cols = keys + list(how)
    acc = _schema(empty.select(cols)).empty_table().to_pandas()
    for part in parts:
        if not part.num_rows:
            continue
        df = part.select(cols).to_pandas()
        acc = _merge(pd.concat([acc, df], ignore_index=True) if len(acc) else df,
                     keys, how)
    return acc


def total(ds: ray.data.Dataset, col: str) -> int:
    """The sum of ``ds``'s integer ``col``: one partial row per block,
    folded on the driver (0 over no rows)."""
    def partial(t: pa.Table) -> pa.Table:
        return pa.table({col: pa.array([pc.sum(t.column(col)).as_py() or 0], pa.int64())})

    return int(fold(map_typed(ds, partial), [], {col: "sum"})[col].sum())


def collect(ds: ray.data.Dataset) -> pd.DataFrame:
    """``ds.to_pandas()`` that keeps an exchange output's columns and
    dtypes when no group produced a row (a groupby with no groups
    yields no blocks, which collect as a columnless frame)."""
    df = ds.to_pandas()
    if len(df.columns) == 0 and ds in _META:
        return _META[ds][0].to_pandas()
    return df


def map_typed(ds: ray.data.Dataset, fn) -> ray.data.Dataset:
    """``ds.map_batches(fn)`` over Arrow batches that stays typed like an
    exchange output: ``fn`` runs once on ``ds``'s zero rows in the
    driver, so ``collect`` keeps the columns when no block has a row (a
    map over an empty read yields no blocks at all). The ``pandas``
    schema metadata of a ``from_pandas`` output goes: Ray fails to hash
    a schema carrying it and logs so for every block."""
    def run(batch: pa.Table) -> pa.Table:
        return fn(batch).replace_schema_metadata()

    out = ds.map_batches(run, batch_format="pyarrow")
    _META[out] = (_schema(run(_zero_rows(ds))).empty_table(), _blocks(ds))
    return out


def materialize(ds: ray.data.Dataset) -> ray.data.Dataset:
    """``ds.materialize()`` that stays an exchange output: still a leg
    of the next exchange and collected typed when it has no rows."""
    out = ds.materialize()
    if ds in _META:
        _META[out] = _META[ds]
    return out


def sort_limit(ds: ray.data.Dataset, by: list[str], descending: list[bool],
               k: int) -> ray.data.Dataset:
    """``ds.sort(by, descending).limit(k)`` that stays typed like ``ds``:
    the head of an exchange output collects typed when it has no rows."""
    out = ds.sort(by, descending=descending).limit(k)
    if ds in _META:
        _META[out] = (_META[ds][0], 1)
    return out


def from_arrow(t: pa.Table) -> ray.data.Dataset:
    """``ray.data.from_arrow(t)`` that collects typed when ``t`` has no
    rows; a column of no type (a zero-row pandas text column) becomes
    text, and the ``pandas`` schema metadata goes."""
    t = t.cast(_schema(t))
    out = ray.data.from_arrow(t)
    _META[out] = (t.schema.empty_table(), 1)
    return out
