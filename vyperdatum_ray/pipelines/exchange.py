"""The engine's task substrate and its two merges of keyed partials.

Every read and every map runs as plain Ray tasks. ``read`` returns a
``Source``: the read's units (runs of parquet row-group slices, one per
row group) from the footers, its zero-row table and its unit count;
nothing is read on the driver. One task body (``run``) reads a unit,
or takes a block, runs a chain of per-batch functions on it and
returns the block with its metadata (``with_meta``), and
``from_blocks`` makes the blocks an already-executed Dataset, whose
schema and block count come from that metadata. On that body:

* ``map(x, *fns)`` runs the chain once per unit of a source or per
  block of an executed Dataset and holds the output;
* ``fold`` runs its partial in each task and merges the partials on the
  driver as the tasks finish (``lineage.as_completed``);
* ``sort_limit`` keeps each task's top k and merges them on the driver;
* ``exchange``'s split task reads its own unit.

The flagship's shard task (``flagship._fused_shard``) is one more use
of ``run``. Ray Data's streaming executor starts only at a query's
boundary operations (``write_csv``/``write_json``,
``read_csv``/``read_json``, and ``ann``'s ``repartition`` and
``from_items``).

``fold`` merges an aggregate whose keys are bounded before the run (a
schema's or a catalog's values, a raster's cells) or global: each
task's partial rows are folded into one row per key on the driver as
they arrive. ``exchange`` is the salted repartition behind every
multi-join reshape and every per-key reduce whose keys grow with the
input.

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
multi-join is instead a UNION of legs plus one bounded-salt exchange (the
join over UNION ALL of Teradata, SIGMOD 2018): every leg emits rows keyed
by an int64 ``k``, ``salt = k mod 2^bits`` puts every copy of a key in
one group, and a vectorized pandas reduce inside each group performs the
join. Legs pre-reduce inside their own split task, so the shuffle
carries int partials, never text.

The exchange runs on plain Ray tasks: one split task per leg unit or
block runs the leg fn and cuts its rows into R pieces by ``salt mod
R``, and R reduce tasks each take their piece from every split task and
call the reduce once per salt present; each reduce task returns its
block with the block's metadata, and ``from_blocks`` makes the output
an already-executed Dataset. Ray Data's sort-based groupby on the salt
kept its input's block count and emitted columnless blocks for the
partitions with no salt, so chained exchanges (the label propagation)
had to repartition every round to stop their block counts inflating.

Partitions are sized from the data (FP-Hadoop, VLDB 2015), by one
decision. A read has one unit per parquet row group, counted from the
footers; Ray Data's default split cut each one-row-group pages file
into 6 blocks (24 pages files, 144 blocks). An exchange takes its salt
width from its legs' blocks, ``ceil(log2(sum of leg blocks))`` clamped
to [``JOIN_FLOOR``, ``SALT_BITS_CAP``], and its R from the largest
leg's real block count, at most 2^width, so an exchange over exchange
outputs keeps R where its legs have it. A byte target per block was
measured and dropped: at sf0.1 on 4 CPUs it put all ~120 MiB of pages
in one block and url_dedup took 32 s, against 13 s at one block per row
group. The floor keeps 16 groups at least; wider salts than the blocks
only add near-empty groups, each one more Python reduce call
(dedup_exact took 1.7–2.1 s at a 1024-way width and 0.3–0.8 s at 16
groups). Correctness is width-independent: every copy of a key shares
its salt at any width.

No other module groups rows by key across blocks: every keyed reduce,
joins and per-key sums alike, is a ``fold`` or an ``exchange`` here.
``fold`` and ``aggregate`` (an exchange whose groups merge per key) merge
a frame's rows with one ``groupby(keys).agg(how)``.
"""

from __future__ import annotations

import glob
import os
from functools import partial
from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data
from ray.data.block import BlockExecStats, BlockMetadataWithSchema
from ray.data.dataset import MaterializedDataset

from vyperdatum_ray.state.lineage import as_completed

JOIN_FLOOR = 4                    # the narrowest salt: 16 groups
SALT_BITS_CAP = 26                # 64M groups; Ray groupby key space
_FOOTER_SAMPLE_FILES = 64
# rows per record batch of a read, the cut of Ray Data's parquet reader
# (its DEFAULT_PARQUET_READER_ROW_BATCH_SIZE): an exchange's leg fn runs
# once per batch, and a leg whose per-batch partial is not exact
# (top_hosts_sketch's local top-k candidates) depends on the cut
_READ_BATCH_ROWS = 10_000


def _files(paths) -> list:
    if isinstance(paths, (str, bytes)):
        paths = [paths]
    # a "table" may be a DIRECTORY of row-group files (the sharded
    # layout every 100-TB table actually has) — expand those to their
    # footers
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
    """The unit count of a read of ``paths``: its row groups, from the
    sampled footer walk, never below 1."""
    return max(_footers(_files(paths))[2], 1)


class Unit(NamedTuple):
    """One task's share of a read: ``(path, row group, start, stop)``
    slices, read in order, and the read's zero rows (its columns and
    types, and the rows of a unit with no slice)."""

    slices: tuple
    empty: pa.Table


class Source(NamedTuple):
    """A read not yet run: its ``units``, one task each, and its
    zero-row table. Nothing holds its rows: each consumer (``map``,
    ``fold``, ``exchange``, ``sort_limit``, ``collect``) reads the units
    again in its own tasks."""

    units: list
    empty: pa.Table

    def count(self) -> int:
        """The read's rows, from the footers."""
        return sum(b - a for u in self.units for _, _, a, b in u.slices)


def read(paths, columns=None) -> Source:
    """``paths``' parquet files, ``columns`` projected, as a ``Source``
    of one unit per row group (every footer is read on the driver;
    no row is). The schema is the first footer's, projected to
    ``columns`` and stripped of metadata (the ``pandas`` key made Ray
    log a failed schema hash per block). A file with no row group adds
    no unit, and a read with none at all is one unit of typed zero
    rows.

    The unit count is ``row_groups(paths)``; where that differs from
    the real row groups (past the footer sample, or patched by a test
    to force a block count) the rows are cut into that many contiguous
    ranges of near-equal size, so one row group can read as 8 units."""
    files = _files(paths)
    schema = pq.read_schema(files[0]).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    empty = schema.empty_table()
    groups = [(p, g, md.row_group(g).num_rows)
              for p in files for md in [pq.read_metadata(p)]
              for g in range(md.num_row_groups)]
    n = row_groups(paths)
    if n == len(groups):
        return Source([Unit(((p, g, 0, rows),), empty) for p, g, rows in groups], empty)
    starts = np.cumsum([0] + [rows for *_, rows in groups])
    total = int(starts[-1])
    units = []
    for i in range(n):
        lo, hi = total * i // n, total * (i + 1) // n
        units.append(Unit(tuple((p, g, max(lo - s, 0), min(hi - s, rows))
                                for (p, g, rows), s in zip(groups, starts.tolist())
                                if s < hi and s + rows > lo), empty))
    return Source(units, empty)


def _load(part) -> pa.Table:
    """A task's input rows: a block as it is, or a unit read, in record
    batches of ``_READ_BATCH_ROWS``."""
    if isinstance(part, pa.Table):
        return part
    cols = part.empty.column_names
    tables = []
    for path, g, a, b in part.slices:
        if a == b:  # a row group of no rows yields no batch
            continue
        t = pa.Table.from_batches(pq.ParquetFile(path).iter_batches(
            _READ_BATCH_ROWS, row_groups=[g], columns=cols)).replace_schema_metadata()
        tables.append(t if (a, b) == (0, t.num_rows) else t.slice(a, b - a))
    return pa.concat_tables(tables) if tables else part.empty


def _parts(x) -> list:
    """What ``x``'s tasks take, one each: a source's units, or an
    executed Dataset's block refs."""
    return x.units if isinstance(x, Source) else x.to_arrow_refs()


def _zero_rows(x) -> pa.Table:
    """``x``'s zero rows: a source's own; an executed Dataset's from
    its blocks' metadata (nothing runs)."""
    if isinstance(x, Source):
        return x.empty
    return x.schema().base_schema.empty_table()


def _blocks(x) -> int:
    """A leg's block count: a source's units, an executed Dataset's
    blocks."""
    return len(x.units) if isinstance(x, Source) else x.num_blocks()


def _schema(t: pa.Table) -> pa.Schema:
    # an empty pandas object column has no Arrow type; text is the only
    # object payload an exchange carries
    return pa.schema([f.with_type(pa.string()) if f.type == pa.null() else f
                      for f in t.schema]).remove_metadata()


class _Chain:
    """A map's step: a part's rows (``_load``) through ``fns`` in
    order, typed as an exchange output is (no ``pandas`` schema
    metadata, which Ray fails to hash and logs for every block; a
    column of no type is text)."""

    def __init__(self, fns):
        self.fns = fns

    def __call__(self, part) -> pa.Table:
        t = _load(part)
        for fn in self.fns:
            t = fn(t)
        return t.cast(_schema(t))


def run(parts, step):
    """The substrate's one task body: ``step`` over each of a task's
    ``parts`` in order. Tables come back concatenated, with their block
    metadata (``with_meta``), for ``from_blocks``; any other result
    (the sink's lineage records) comes back as the list of results,
    with ``None`` for the metadata. A zero-row table must carry the
    columns and types of a full one."""
    outs = [step(p) for p in parts]
    if not isinstance(outs[0], pa.Table):
        return outs, None
    return with_meta(pa.concat_tables(outs))


@ray.remote(num_returns=2)
def _task(step, part):
    """One unit or block through ``step``: ``run`` on one part."""
    return run([part], step)


def _submit(x, fns) -> list:
    """One ``_task`` per part of ``x`` through ``fns``: their (block,
    metadata) ref pairs, in ``x``'s order."""
    step = ray.put(_Chain(fns))
    return [_task.remote(step, part) for part in _parts(x)]


def map(x, *fns) -> MaterializedDataset:  # noqa: A001 - the substrate's map
    """``fns`` chained over every unit of a source (read in the task)
    or every block of an executed Dataset: one plain task each, its
    block returned with its metadata, made an executed Dataset by
    ``from_blocks``. Every part gives one block, typed zero rows too
    (each fn must accept zero rows), so the output keeps its schema and
    its input's block count.

    The output is held in the object store until the Dataset is dropped,
    with no streaming backpressure: it must fit the store's capacity
    (``ray.cluster_resources()["object_store_memory"]``, 30 % of the
    node's memory by Ray's default), past which Ray spills blocks to
    disk. A run larger than that goes through the checkpointed sink
    (``lineage.run_flagship_checkpointed``), which writes each unit
    from its own task; a consumer that only folds or exchanges the rows
    takes the source itself and reads it in its own tasks."""
    return from_blocks(_submit(x, fns))


def exchange(legs, reduce) -> MaterializedDataset:
    """Salted repartition exchange over ``legs``, a list of
    ``(x, fn)`` pairs, ``x`` a source or an executed Dataset:
    ``fn(batch) -> pa.Table`` (or ``None`` for the identity) runs in the
    leg's split tasks and returns rows with an
    int64 key ``k``. Rows of one ``k`` from every leg meet in one group,
    where ``reduce(frame_0, frame_1, ...)`` gets one pandas frame per leg
    (that leg's columns only, possibly empty) and returns a DataFrame.
    The salt width is ``ceil(log2(sum of leg blocks))``, clamped to
    [``JOIN_FLOOR``, ``SALT_BITS_CAP``].

    One split task per leg unit (read in the task) or block runs ``fn``
    once per record batch of its rows (a zero-row batch is skipped),
    tags ``salt`` and ``side`` and cuts the rows into R pieces by
    ``salt mod R``, where R is the largest leg's real block count, at
    most 2^width; R reduce tasks each call ``reduce`` once per salt
    present in their pieces. The output counts R blocks, so chained
    exchanges keep their legs' block count.

    Costs: the exchange is eager (its pieces and its output sit in the
    object store when it returns), M leg blocks make M x R pieces, and a
    retried split task re-reads its unit and re-runs its leg fn. Past
    some M x R a merge stage would pay (Exoshuffle, SIGCOMM 2023); no
    input here comes near it.

    Each leg's schema is learned by running ``fn`` on zero rows in the
    driver, and the reduce's by running it on those empties, so both
    must accept empty input. Every leg piece is padded to one union
    schema, a group missing a leg still hands ``reduce`` that leg's
    typed empty frame, and the output is Arrow blocks of one schema
    (typed zero rows from a reduce task with no salt), fit to be a leg
    of the next exchange."""
    bits = min(max((sum(_blocks(x) for x, _ in legs) - 1).bit_length(), JOIN_FLOOR),
               SALT_BITS_CAP)
    empties = [_zero_rows(x) if fn is None else fn(_zero_rows(x)) for x, fn in legs]
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
        def tagged(batch: pa.Table) -> pa.Table:
            t = batch if fn is None else fn(batch)
            n = t.num_rows
            cols = [t.column(f.name).cast(f.type) if f.name in t.column_names
                    else pa.nulls(n, f.type) for f in payload]
            cols += [pc.bit_wise_and(t.column("k"), (1 << bits) - 1),
                     pa.array(np.full(n, side, np.int8))]
            return pa.Table.from_arrays(cols, schema=union)
        return tagged

    def group(g: pa.Table) -> pa.Table:
        side = g.column("side")
        frames = [g.filter(pc.equal(side, i)).select(cols).to_pandas()
                  for i, cols in enumerate(names)]
        return pa.Table.from_pandas(reduce(*frames), schema=out_schema,
                                    preserve_index=False).replace_schema_metadata()

    parts = [_parts(x) for x, _ in legs]
    r = max(1, min(1 << bits, max(len(p) for p in parts)))
    tags = [ray.put(tag(fn, side)) for side, (_, fn) in enumerate(legs)]
    pieces = [_split.options(num_returns=r).remote(part, tagged, union, r)
              for tagged, leg in zip(tags, parts) for part in leg]
    group = ray.put(group)
    # num_returns=1 gives one ref per split task, not a list of one
    return from_blocks([_reduce.remote(group, union, out_schema, *p)
                        for p in (zip(*pieces) if r > 1 else [pieces])])


@ray.remote
def _split(part, tagged, union: pa.Schema, r: int):
    """One leg unit (read here) or block, tagged by ``tagged`` once per
    non-empty record batch (upstream zero-row blocks may have no
    columns) and cut into ``r`` pieces by ``salt mod r``, each piece's
    rows in block order."""
    t = pa.concat_tables([union.empty_table()] + [
        tagged(pa.Table.from_batches([b])) for b in _load(part).to_batches() if b.num_rows])
    cut = t.column("salt").to_numpy() % r
    order = np.argsort(cut, kind="stable")
    out = [t.take(i) for i in np.split(order, np.cumsum(np.bincount(cut, minlength=r))[:-1])]
    return out if r > 1 else out[0]


@ray.remote(num_returns=2)
def _reduce(group, union: pa.Schema, out: pa.Schema, *pieces: pa.Table):
    """``group`` once per salt present in ``pieces``, each salt's rows in
    piece order, concatenated (``out``'s zero rows when there is no
    salt), with its block metadata (``with_meta``)."""
    t = pa.concat_tables([union.empty_table(), *pieces]).sort_by("salt")
    lo = np.unique(t.column("salt").to_numpy(), return_index=True)[1]
    outs = [group(t.slice(a, b - a)) for a, b in zip(lo, np.r_[lo[1:], t.num_rows])]
    return with_meta(pa.concat_tables(outs).combine_chunks() if outs else out.empty_table())


def with_meta(t: pa.Table) -> tuple[pa.Table, BlockMetadataWithSchema]:
    """``t`` and its block metadata, for a task that returns both
    (``num_returns=2``) and whose refs go to ``from_blocks``: the call
    ``ray.data.from_arrow_refs``' metadata task makes on each block, made
    on the table as the task holds it, as Ray Data's own map tasks
    measure their blocks. So ``size_bytes`` still counts the validity
    bitmap of each column with no null, which Ray's Arrow serializer
    drops from the stored block (0.4% of a flagship block)."""
    return t, BlockMetadataWithSchema.from_block(t, stats=BlockExecStats.builder().build())


def from_blocks(pairs) -> MaterializedDataset:
    """A Dataset of the blocks behind ``pairs``, (block ref, metadata
    ref) as a ``with_meta`` task returns them, in order: the plan
    ``ray.data.from_arrow_refs`` builds, with no metadata task, and
    already executed. For a source that holds its output that execution
    runs nothing and sets the plan's snapshot, so ``iter_batches``,
    ``to_pandas``, ``to_arrow_refs``, ``count`` and ``schema`` over the
    Dataset start no Ray Data executor (``from_arrow_refs`` leaves the
    plan unexecuted, and every iteration built a streaming executor
    over the blocks it already had). The schema comes from the blocks'
    metadata, zero-row blocks' too. The engine's one use of
    ``ray.data._internal``."""
    from ray.data._internal.logical.interfaces import LogicalPlan
    from ray.data._internal.logical.operators.from_operators import FromArrow
    from ray.data._internal.plan import ExecutionPlan
    from ray.data._internal.stats import DatasetStats

    pairs = list(pairs)
    blocks = [b for b, _ in pairs]
    metas = ray.get([m for _, m in pairs])
    plan = ExecutionPlan(DatasetStats(metadata={"FromArrow": metas}, parent=None),
                         ray.data.DataContext.get_current().copy())
    ds = MaterializedDataset(plan, LogicalPlan(FromArrow(blocks, metas), plan._context))
    plan.execute()
    return ds


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


def aggregate(legs, keys: list[str], how: dict[str, str], post=None) -> MaterializedDataset:
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


def _first(step, part):
    return _task.remote(step, part)[0]


def fold(parts, keys: list[str], how: dict[str, str],
         empty: pa.Table | None = None, fn=None) -> pd.DataFrame:
    """Partial tables folded into one row per ``keys`` value as they
    arrive: each column of ``how`` is merged by its ``"sum"``, ``"min"``
    or ``"max"``, and the keys come back ascending (a null key is a
    group of its own). ``keys=[]`` gives the one global row.

    ``parts`` is a source or an executed Dataset, whose every unit or
    block becomes a partial in its own task (``fn``, the identity when
    None, so the partial runs in the producing task), taken as the
    tasks finish (``lineage.as_completed``); or an iterable of tables
    (``as_completed`` over shard tasks whose ``post`` is the partial).
    ``empty`` gives the columns' types: ``fn`` of the input's zero rows
    by default, required for an iterable. With no partial row the
    result is those columns' typed zero rows, for ``keys=[]`` too: SQL's
    one row over empty input is the caller's to build.

    ``how={}`` gives the distinct keys. Only a bounded key set belongs
    here: the driver holds every key's row. Keys that grow with the
    input go through ``aggregate``."""
    if isinstance(parts, (Source, ray.data.Dataset)):
        chain = _Chain(() if fn is None else (fn,))
        empty = chain(_zero_rows(parts)) if empty is None else empty
        step = ray.put(chain)
        parts = as_completed([partial(_first, step, p) for p in _parts(parts)])
    cols = keys + list(how)
    acc = _schema(empty.select(cols)).empty_table().to_pandas()
    for part in parts:
        if not part.num_rows:
            continue
        df = part.select(cols).to_pandas()
        acc = _merge(pd.concat([acc, df], ignore_index=True) if len(acc) else df,
                     keys, how)
    return acc


def total(x, col: str) -> int:
    """The sum of ``x``'s integer ``col``: one partial row per task,
    folded on the driver (0 over no rows)."""
    def one(t: pa.Table) -> pa.Table:
        return pa.table({col: pa.array([pc.sum(t.column(col)).as_py() or 0], pa.int64())})

    return int(fold(x, [], {col: "sum"}, fn=one)[col].sum())


def collect(x) -> pd.DataFrame:
    """``x``'s rows as one frame (a source is mapped first), keeping
    its columns and dtypes when no block has a row (Ray 2.49's
    ``to_pandas`` over typed zero-row blocks gives a columnless
    frame)."""
    if isinstance(x, Source):
        x = map(x)
    df = x.to_pandas()
    return df if len(df.columns) else _zero_rows(x).to_pandas()


def sort_limit(x, by: list[str], descending: list[bool], k: int) -> MaterializedDataset:
    """``x.sort(by, descending).limit(k)`` as a top-k per task, merged on
    the driver: each unit or block keeps its first ``k`` rows in that
    order (a stable sort, nulls last), and the driver keeps the first
    ``k`` of those, so it holds at most ``k`` rows a task."""
    order = [(c, "descending" if d else "ascending") for c, d in zip(by, descending)]

    def top(t: pa.Table) -> pa.Table:
        return t.sort_by(order).slice(0, k)

    heads = ray.get([b for b, _ in _submit(x, (top,))])
    return from_arrow(top(pa.concat_tables(heads)))


def from_arrow(t: pa.Table) -> MaterializedDataset:
    """``ray.data.from_arrow(t)``, built by ``from_blocks``, that
    collects typed when ``t`` has no rows; a column of no type (a
    zero-row pandas text column) becomes text, and the ``pandas``
    schema metadata goes."""
    return from_blocks([[ray.put(x) for x in with_meta(t.cast(_schema(t)))]])
