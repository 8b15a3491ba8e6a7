"""Similarity search over the ``embeddings`` table.

* ``q_ann_topk`` — brute-force cosine top-k: the query matrix is
  broadcast once (``ray.put``), each batch does one float64 matmul, emits
  its local top-k candidates, and a tiny final reduce picks the global
  top-k. Scale path: the per-batch candidate emission keeps the reduce
  input at O(queries * k * n_blocks), never O(n).
* ``q_ann_ivf`` — IVF-style bucketed variant: k-means-lite centroids
  (sampled, fixed seed) assign every vector to a list; probes search
  only the nearest ``nprobe`` lists. Approximate by design (rows-only
  check; recall asserted in tests).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from vyperdatum_ray.pipelines import exchange

K = 10
N_QUERIES = 10


def _emb(sf_dir: str) -> ray.data.Dataset:
    return exchange.read(f"{sf_dir}/embeddings.parquet")


def _query_matrix(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Read ONLY the query rows: the vec_id predicate is pushed into
    the parquet read so just the matching row-groups materialize on the
    driver, never the whole embeddings table."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
                      filters=[("vec_id", "<", N_QUERIES)])
    df = t.to_pandas().sort_values("vec_id")
    q = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    return df["vec_id"].to_numpy(), q


def _batch_to_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
    emb = batch.column("embedding")
    if isinstance(emb, pa.ChunkedArray):
        emb = emb.combine_chunks()
    flat = emb.values.to_numpy(zero_copy_only=False).astype(np.float64)
    mat = flat.reshape(len(ids), -1) if len(ids) else flat.reshape(0, EMB_DIM)
    return ids, mat


class TopKScorer:
    """Per-batch brute-force scorer: local top-k per query against the
    broadcast query matrix."""

    def __init__(self, qids_ref, qmat_ref, k: int = K):
        self.qids = ray.get(qids_ref) if isinstance(qids_ref, ray.ObjectRef) else qids_ref
        q = ray.get(qmat_ref) if isinstance(qmat_ref, ray.ObjectRef) else qmat_ref
        self.qnorm = np.linalg.norm(q, axis=1)
        self.q = q
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, mat = _batch_to_matrix(batch)
        norms = np.linalg.norm(mat, axis=1)
        sims = (self.q @ mat.T) / (self.qnorm[:, None] * norms[None, :])
        k = min(self.k, sims.shape[1])
        # local top-k per query (argpartition then exact sort of the head)
        part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        rows = []
        for qi in range(sims.shape[0]):
            cand = part[qi]
            rows.append(
                pd.DataFrame(
                    {
                        "query_id": self.qids[qi],
                        "neighbor_id": ids[cand],
                        "sim": sims[qi, cand],
                    }
                )
            )
        return pa.Table.from_pandas(pd.concat(rows), preserve_index=False)


def q_ann_topk(sf_dir: str) -> pd.DataFrame:
    """Global exact top-k (query_id, rank, neighbor_id); deterministic
    tie-break (sim desc, neighbor_id asc)."""
    qids, qmat = _query_matrix(sf_dir)
    refs = {"qids_ref": ray.put(qids), "qmat_ref": ray.put(qmat)}
    # stateless tasks (the "state" is broadcast refs, plasma-cached per
    # worker; the 10x64 query matrix's norms rebuild in µs) — an
    # autoscaling actor pool's startup dominated this whole query
    cand = _emb(sf_dir).map_batches(
        lambda t: TopKScorer(**refs)(t), batch_format="pyarrow",
        batch_size=4096,
    )
    # final reduce: O(queries * k * n_blocks) rows — tiny
    df = cand.to_pandas()
    df = df.sort_values(["query_id", "sim", "neighbor_id"], ascending=[True, False, True])
    top = df.groupby("query_id", as_index=False).head(K).copy()
    top["rank"] = top.groupby("query_id").cumcount() + 1
    return top[["query_id", "rank", "neighbor_id"]].reset_index(drop=True)


class IVFScorer:
    """IVF probe: score only vectors whose centroid list is among the
    query's nprobe nearest lists."""

    def __init__(self, qids_ref, qmat_ref, cents_ref, nprobe: int = 4, k: int = K):
        self.qids = ray.get(qids_ref) if isinstance(qids_ref, ray.ObjectRef) else qids_ref
        self.q = ray.get(qmat_ref) if isinstance(qmat_ref, ray.ObjectRef) else qmat_ref
        cents = ray.get(cents_ref) if isinstance(cents_ref, ray.ObjectRef) else cents_ref
        self.cents = cents / np.linalg.norm(cents, axis=1, keepdims=True)
        self.qnorm = np.linalg.norm(self.q, axis=1)
        qsims = (self.q / self.qnorm[:, None]) @ self.cents.T
        self.probe_lists = np.argsort(-qsims, axis=1)[:, :nprobe]  # (Q, nprobe)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, mat = _batch_to_matrix(batch)
        norms = np.linalg.norm(mat, axis=1)
        assign = np.argmax((mat / norms[:, None]) @ self.cents.T, axis=1)
        rows = []
        for qi in range(len(self.qids)):
            m = np.isin(assign, self.probe_lists[qi])
            if not m.any():
                continue
            sims = (mat[m] @ self.q[qi]) / (norms[m] * self.qnorm[qi])
            k = min(self.k, len(sims))
            cand = np.argpartition(-sims, k - 1)[:k]
            rows.append(pd.DataFrame({"query_id": self.qids[qi],
                                      "neighbor_id": ids[m][cand], "sim": sims[cand]}))
        if not rows:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             "neighbor_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        return pa.Table.from_pandas(pd.concat(rows), preserve_index=False)


TRAIN_SAMPLE = 65536  # IVF centroid-training sample cap

# Iterative algorithms (k-means) re-scan their input every pass; inputs
# whose footer-estimated bytes fit this budget are materialized once so
# passes scan object-store blocks instead of re-reading parquet. Sized
# well under a single worker's share of this box's object store; a
# cluster deployment would set it from per-node store capacity.
ITER_CACHE_BYTES = 2 << 30


def _train_centroids(sf_dir: str, nlist: int, sample_cap: int = TRAIN_SAMPLE) -> np.ndarray:
    """k-means-lite centroids trained on a BOUNDED sample (the first
    ``sample_cap`` vectors via a streamed ``Dataset.limit`` — only the
    needed leading blocks are read, never the full table; at 100 TB the
    sample is a fixed-size driver array while the corpus streams).
    Deterministic: fixed seed, fixed sample order."""
    sample = _emb(sf_dir).limit(sample_cap).to_pandas()
    emb = np.stack(sample["embedding"].to_numpy()).astype(np.float64)
    rng = np.random.default_rng(11)
    cents = emb[rng.choice(len(emb), size=min(nlist, len(emb)), replace=False)]
    normed = emb / np.linalg.norm(emb, axis=1, keepdims=True)
    # a few Lloyd iterations on the sample — sampled seeds alone give
    # lopsided lists and poor recall
    for _ in range(4):
        c = cents / np.linalg.norm(cents, axis=1, keepdims=True)
        assign = np.argmax(normed @ c.T, axis=1)
        for j in range(len(cents)):
            members = emb[assign == j]
            if len(members):
                cents[j] = members.mean(axis=0)
    return cents


def q_ann_ivf(sf_dir: str, nlist: int = 16, nprobe: int = 4) -> pd.DataFrame:
    """Approximate IVF top-k (rows-only check; tests assert recall vs
    brute force)."""
    qids, qmat = _query_matrix(sf_dir)
    cents = _train_centroids(sf_dir, nlist)
    refs = {
        "qids_ref": ray.put(qids),
        "qmat_ref": ray.put(qmat),
        "cents_ref": ray.put(cents),
        "nprobe": nprobe,
    }
    cand = _emb(sf_dir).map_batches(
        lambda t: IVFScorer(**refs)(t), batch_format="pyarrow",
        batch_size=4096,
    )
    df = cand.to_pandas()
    df = df.sort_values(["query_id", "sim", "neighbor_id"], ascending=[True, False, True])
    top = df.groupby("query_id", as_index=False).head(K).copy()
    top["rank"] = top.groupby("query_id").cumcount() + 1
    return top[["query_id", "rank", "neighbor_id"]].reset_index(drop=True)


class BlockPairScorer:
    """Scores one (block_i, block_j) pair of the exact all-pairs
    self-join: fetches the two normalized blocks zero-copy from the
    object store (no task ever sees more than two blocks — the full
    matrix is NEVER broadcast), does one matmul, emits (a < b, cosine
    >= tau) pairs. A tiny per-actor block cache avoids refetching the
    hot diagonal block."""

    def __init__(self, refs, tau: float):
        self.refs = refs  # list[ObjectRef[pa.Table]] — refs only, not data
        self.tau = tau
        self.cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _block(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k not in self.cache:
            if len(self.cache) >= 4:  # bound per-actor memory
                self.cache.pop(next(iter(self.cache)))
            t = ray.get(self.refs[k])
            ids, mat = _batch_to_matrix(t)
            self.cache[k] = (ids, mat / np.linalg.norm(mat, axis=1, keepdims=True))
        return self.cache[k]

    def __call__(self, batch: pa.Table) -> pa.Table:
        a_out, b_out = [], []
        for bi, bj in zip(batch.column("bi").to_pylist(), batch.column("bj").to_pylist()):
            ids_i, mi = self._block(bi)
            ids_j, mj = self._block(bj)
            sims = mi @ mj.T
            ai, aj = np.nonzero(sims >= self.tau)
            a, b = ids_i[ai], ids_j[aj]
            if bi == bj:
                keep = a < b  # diagonal: each unordered pair appears twice
            else:
                # off-diagonal: each cross-block pair appears exactly once
                # and ids need NOT be ascending across blocks (Ray does
                # not guarantee block order) — emit (min, max), drop only
                # self-pairs
                keep = a != b
                a, b = np.minimum(a, b), np.maximum(a, b)
            a_out.append(a[keep])
            b_out.append(b[keep])
        return pa.table({
            "vec_id_a": pa.array(np.concatenate(a_out) if a_out else [], pa.int64()),
            "vec_id_b": pa.array(np.concatenate(b_out) if b_out else [], pa.int64()),
        })


BLOCK_ROWS = 65536  # ~32 MB per normalized 64-dim float64 block


def q_neardup_embedding(sf_dir: str, tau: float = 0.4,
                        n_blocks: int | None = None) -> ray.data.Dataset:
    """EXACT embedding-cosine near-duplicate pairs as a distributed
    block self-join: normalize into B blocks held once in the object
    store, then fan the B*(B+1)/2 block pairs out as a Dataset — each
    task touches exactly two blocks. B scales with the corpus
    (``ceil(n / BLOCK_ROWS)``, floor 8 so small corpora still fan out
    to 36 pair tasks) so per-task memory stays bounded at ~2 x
    BLOCK_ROWS rows regardless of input size; total work is the
    inherent O(n^2) of the exact op (the sub-quadratic scale path is
    ``q_neardup_embedding_lsh``)."""
    emb = _emb(sf_dir)
    if n_blocks is None:
        # Dataset.count() on a parquet read is metadata-only
        n_blocks = max(8, -(-emb.count() // BLOCK_ROWS))
    blocks = emb.repartition(n_blocks).materialize()
    refs = blocks.to_arrow_refs()
    pairs = [{"bi": i, "bj": j} for i in range(len(refs)) for j in range(i, len(refs))]
    # stateless per-pair tasks: block fetches are zero-copy plasma gets
    # cached per worker, so the per-actor block cache bought nothing an
    # actor pool's startup didn't cost back
    return ray.data.from_items(pairs).map_batches(
        lambda t: BlockPairScorer(refs=refs, tau=tau)(t),
        batch_format="pyarrow", batch_size=1,
    )


DEDUP_PAIR_DRIVER_CAP = 2_000_000  # edges the driver union-find may hold
LP_MAX_ROUNDS = 64                 # >= component diameter; dup graphs are shallow


def _lp_components(pairs_ds: ray.data.Dataset) -> ray.data.Dataset:
    """Distributed min-label propagation: connected-component labels
    (min vec_id per component) for every node touched by an edge,
    without ever collecting the edge list to the driver.

    Join-free: each round is two exchanges (``Dataset.join`` is avoided
    per the two-joins-deadlock pitfall). Round = (1) an exchange keyed
    by the SOURCE id whose legs are the edges and the current labels
    (each with its label shortcut), emitting (dst, label_of_src)
    messages; (2) an exchange keyed by the receiving node that takes
    the per-node min of the messages and its current label, carrying
    the old label so the round's change count is a folded sum. Labels
    shrink monotonically to the component min, so the fixed point (0
    changes) is exact; rounds ~ log of the component diameter. All
    state stays in the object store as (node, label) rows — nothing is
    O(edges) or O(nodes) on the driver. An exchange's output counts its
    largest leg's blocks, so the label table keeps the edge dataset's
    block count round over round."""

    def symmetrize(t: pa.Table) -> pa.Table:
        a = t.column("vec_id_a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("vec_id_b").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"k": pa.array(np.concatenate([a, b]), pa.int64()),
                         "dst": pa.array(np.concatenate([b, a]), pa.int64())})

    edges = pairs_ds.map_batches(symmetrize, batch_format="pyarrow").materialize()

    def init_labels(t: pa.Table) -> pa.Table:
        # per-block distinct endpoints (every endpoint is a source of
        # the symmetrized edges); labels start as the node id
        n = pa.array(np.unique(t.column("k").to_numpy(zero_copy_only=False)), pa.int64())
        return pa.table({"k": n, "node": n, "label": n})

    def label_rows(t: pa.Table) -> pa.Table:
        # each (node, label) row keyed by its node and, where they
        # differ, by its label too: a hash-to-min SHORTCUT edge from
        # the label to the node, so the node learns its label's label
        # (labels double as links, and convergence is O(log diameter)
        # rounds instead of O(diameter): a 64-round cap would otherwise
        # crash on 65+-link template-drift chains, the exact regime this
        # past-the-cap path exists for). Label and node are always in
        # the same component, so the shortcuts never merge separate
        # components; the reverse edge would only send a label its own
        # id, which no label is below.
        n = t.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
        lab = t.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        short = lab != n
        return pa.table({"k": pa.array(np.concatenate([n, lab[short]]), pa.int64()),
                         "node": pa.array(np.concatenate([n, n[short]]), pa.int64()),
                         "label": pa.array(np.concatenate([lab, lab[short]]), pa.int64())})

    def send_messages(e: pd.DataFrame, lab: pd.DataFrame) -> pd.DataFrame:
        # a group holds each of its nodes' label row (keyed by the node)
        # with the node's outgoing edges and shortcuts
        own = lab["node"] == lab["k"]
        dst = pd.concat([e, lab.loc[~own, ["k", "node"]].rename(columns={"node": "dst"})],
                        ignore_index=True)
        m = dst.merge(lab.loc[own, ["k", "label"]], on="k")
        node = m["dst"].to_numpy(np.int64)
        return pd.DataFrame({"k": node, "node": node,
                             "label": m["label"].to_numpy(np.int64),
                             "old": np.full(len(m), np.iinfo(np.int64).max)})

    def self_rows(t: pa.Table) -> pa.Table:
        # the node's current label as `old`; messages carry
        # old=INT64_MAX, so min(old) is the true previous label (every
        # touched node has exactly one self row)
        return pa.table({"k": t.column("node"), "node": t.column("node"),
                         "label": t.column("label"), "old": t.column("label")})

    def changed(g: pd.DataFrame) -> pd.DataFrame:
        g["changed"] = (g["label"] != g["old"]).astype(np.int64)
        return g[["node", "label", "changed"]]

    labels = exchange.aggregate([(edges, init_labels)], ["node"], {"label": "min"})
    for _round in range(LP_MAX_ROUNDS):
        msgs = exchange.exchange([(edges, None), (labels, label_rows)], send_messages)
        labels = exchange.aggregate([(msgs, None), (labels, self_rows)], ["node"],
                                    {"label": "min", "old": "min"}, post=changed)
        if exchange.total(labels, "changed") == 0:
            return labels.drop_columns(["changed"]).materialize()
    raise RuntimeError(
        f"label propagation did not converge in {LP_MAX_ROUNDS} rounds")


def _clusters_distributed(pairs_ds: ray.data.Dataset,
                          ids_ds: ray.data.Dataset,
                          id_col: str) -> ray.data.Dataset:
    """Past-the-cap path: component labels via distributed label
    propagation, then cluster assignment as one two-leg exchange keyed
    by id (corpus rows probe the label map inside each group) — neither
    the edge list nor the label map ever sits on the driver or
    broadcasts whole. Generic over the id stream (``ids_ds[id_col]``);
    pairs must carry vec_id_a/vec_id_b."""
    labels = _lp_components(pairs_ds)

    def label_side(t: pa.Table) -> pa.Table:
        return pa.table({"k": t.column("node"), "label": t.column("label")})

    def probe_side(t: pa.Table) -> pa.Table:
        return pa.table({"k": pc.cast(t.column(id_col), pa.int64())})

    def assign(lab: pd.DataFrame, probe: pd.DataFrame) -> pd.DataFrame:
        # int-exact searchsorted lookup (a pandas left-merge would float
        # the root column on misses and lose exactness past 2^53)
        lab = lab.sort_values("k")
        keys = lab["k"].to_numpy(np.int64)
        roots = lab["label"].to_numpy(np.int64)
        ids = probe["k"].to_numpy(np.int64)
        cluster = ids.copy()  # default: own cluster
        if len(keys):
            pos = np.minimum(np.searchsorted(keys, ids), len(keys) - 1)
            hit = keys[pos] == ids
            cluster[hit] = roots[pos[hit]]
        return pd.DataFrame({
            id_col: ids,
            "cluster_id": cluster,
            "is_canonical": (ids == cluster).astype(np.int64),
        })

    return exchange.exchange([(labels, label_side), (ids_ds, probe_side)], assign)


def clusters_from_pairs(pairs_ds: ray.data.Dataset,
                        ids_ds: ray.data.Dataset,
                        a_col: str, b_col: str, id_col: str,
                        pair_cap: int) -> ray.data.Dataset:
    """Generic keep-one dedup clustering: connected components of the
    (a_col, b_col) pair graph assigned over the ``ids_ds[id_col]``
    stream -> (id_col, cluster_id, is_canonical). Dual-path on the
    measured pair count exactly as q_dedup_clusters_embedding
    describes: driver union-find + broadcast root map under
    ``pair_cap`` edges, distributed min-label propagation past it."""
    pairs_ds = pairs_ds.materialize()
    n_pairs = pairs_ds.count()
    if n_pairs > pair_cap:
        if a_col != "vec_id_a":  # _lp_components' expected edge schema
            pairs_ds = pairs_ds.map_batches(
                lambda t, _a=a_col, _b=b_col: pa.table(
                    {"vec_id_a": t.column(_a), "vec_id_b": t.column(_b)}),
                batch_format="pyarrow")
        return _clusters_distributed(pairs_ds, ids_ds, id_col)
    pairs = pairs_ds.to_pandas()
    a = pairs[a_col].to_numpy(np.int64)
    b = pairs[b_col].to_numpy(np.int64)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for x, y in zip(a, b):
        rx, ry = find(int(x)), find(int(y))
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    touched = np.array(sorted(parent), dtype=np.int64)
    roots = np.array([find(int(t)) for t in touched], dtype=np.int64)
    lut_ref = ray.put((touched, roots))

    def assign(batch: pa.Table) -> pa.Table:
        from vyperdatum_ray.core.nputil import isin_sorted

        keys, rts = ray.get(lut_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        cluster = ids.copy()
        hit = isin_sorted(ids, keys)
        if hit.any():
            cluster[hit] = rts[np.searchsorted(keys, ids[hit])]
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "cluster_id": pa.array(cluster, pa.int64()),
            "is_canonical": pa.array((ids == cluster).astype(np.int64), pa.int64()),
        })

    return ids_ds.map_batches(assign, batch_format="pyarrow")


def q_dedup_clusters_embedding(sf_dir: str, tau: float = 0.4,
                               pair_cap: int = DEDUP_PAIR_DRIVER_CAP,
                               ) -> ray.data.Dataset:
    """Near-dup DEDUP (keep-one) over the embedding-cosine graph:
    connected components of the exact pair graph, canonical = min
    vec_id per component; every vector gets (cluster_id, is_canonical).

    Scale shape, dual-path on the measured pair count: the pair set is
    normally bounded by near-dup density, so under ``pair_cap`` edges
    the union-find runs driver-side, the root map broadcasts once, and
    the corpus STREAMS through a vectorized searchsorted lookup. Past
    the cap (template-spam corpora with dense dup graphs) the driver
    never sees the edges: ``_lp_components`` runs distributed min-label
    propagation (iterated exchanges taking per-node mins) to the exact
    fixed point, and cluster assignment happens through one more
    exchange (a repartition join) instead of a broadcast. Both paths live in the
    generic ``clusters_from_pairs`` (shared with the text near-dup
    clusters, textops.q_neardup_clusters_text)."""
    return clusters_from_pairs(q_neardup_embedding(sf_dir, tau=tau),
                               _emb(sf_dir), "vec_id_a", "vec_id_b",
                               "vec_id", pair_cap)


def dedup_clusters_oracle_sql(tau: float = 0.4) -> str:
    """Recursive-CTE mirror: exact pair graph + transitive min-root."""
    return f"""
WITH RECURSIVE
e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) v FROM embeddings),
pairs AS (
  SELECT a.vec_id AS pa_, b.vec_id AS pb
  FROM e a JOIN e b ON a.vec_id < b.vec_id
  WHERE list_cosine_similarity(a.v, b.v) >= {tau}
),
edges AS (SELECT pa_ AS s, pb AS d FROM pairs UNION ALL SELECT pb, pa_ FROM pairs),
walk(id, root) AS (
  SELECT vec_id, vec_id FROM e
  UNION
  SELECT ed.s, w.root FROM walk w JOIN edges ed ON ed.d = w.id
)
SELECT id AS vec_id, min(root) AS cluster_id,
  CAST(CASE WHEN id = min(root) THEN 1 ELSE 0 END AS BIGINT) AS is_canonical
FROM walk GROUP BY id"""


EMB_DIM = 64  # embeddings table vector width
N_PLANES = 64  # LSH hyperplanes -> 64-bit sign codes (independent of EMB_DIM)
N_LSH_BANDS = 16  # band the code into 16x4 bits
LSH_BUCKET_GUARD = 1024  # max members per (band, bucket) scored


def q_neardup_embedding_lsh(sf_dir: str, tau: float = 0.4) -> ray.data.Dataset:
    """Sub-quadratic near-dup: random-hyperplane (SimHash-for-vectors)
    bucketing. Each vector gets a 64-bit sign code from fixed seeded
    hyperplanes, banded 16x4; vectors sharing any 4-bit band bucket are
    candidates, scored exactly within the bucket. One exchange keyed by
    the (band, bucket) pair carries the vectors, mega-buckets are
    guarded, and the full matrix is never assembled anywhere. Short
    4-bit bands are tuned for the low tau=0.4 regime (P[bit agree] ~
    0.63 -> per-band recall 0.16, OR over 16 bands ~ 0.94); at larger
    corpora raise bits_per_band with n to keep buckets bounded.
    Approximate by design (rows-only; recall vs the exact block-pair
    join asserted in tests)."""
    rng = np.random.default_rng(23)
    planes = rng.normal(size=(EMB_DIM, N_PLANES))
    planes_ref = ray.put(planes)
    bits_per_band = N_PLANES // N_LSH_BANDS
    mask = np.uint64((1 << bits_per_band) - 1)

    class CodeStage:
        def __init__(self, ref):
            p = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            self.planes = p
            self.weights = (np.uint64(1) << np.arange(N_PLANES, dtype=np.uint64))

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids, mat = _batch_to_matrix(batch)
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
            bits = ((mat @ self.planes) > 0).astype(np.uint64)
            code = (bits * self.weights[None, :]).sum(axis=1, dtype=np.uint64)
            n = len(ids)
            band_id = np.tile(np.arange(N_LSH_BANDS, dtype=np.int32), n)
            shifts = np.arange(N_LSH_BANDS, dtype=np.uint64) * np.uint64(bits_per_band)
            vals = ((code[:, None] >> shifts[None, :]) & mask).reshape(-1)
            emb = np.repeat(mat, N_LSH_BANDS, axis=0)
            return pa.table({
                "band_id": pa.array(band_id, pa.int32()),
                "bucket": pa.array(vals, pa.uint64()),
                "id": pa.array(np.repeat(ids, N_LSH_BANDS), pa.int64()),
                "vec": pa.FixedSizeListArray.from_arrays(
                    pa.array(emb.reshape(-1), pa.float64()), EMB_DIM),
            })

    def score_group(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["id"].to_numpy()
        mat = (np.stack(df["vec"].to_numpy()) if len(df)
               else np.zeros((0, EMB_DIM)))
        bv = df["bucket"].to_numpy().astype(np.uint64)
        band = df["band_id"].to_numpy()
        order = np.lexsort((bv, band))
        ids, mat, bv, band = ids[order], mat[order], bv[order], band[order]
        starts = np.flatnonzero(np.r_[True, (bv[1:] != bv[:-1]) | (band[1:] != band[:-1])])
        ends = np.r_[starts[1:], len(bv)]
        a_parts, b_parts = [], []
        for st, en in zip(starts, ends):
            m = en - st
            if m < 2 or m > LSH_BUCKET_GUARD:  # mega-bucket guard
                continue
            seg_ids = ids[st:en]
            sims = mat[st:en] @ mat[st:en].T
            ai, aj = np.nonzero(sims >= tau)
            keep = seg_ids[ai] < seg_ids[aj]
            a_parts.append(seg_ids[ai][keep])
            b_parts.append(seg_ids[aj][keep])
        if not a_parts:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"id_a": np.concatenate(a_parts),
                             "id_b": np.concatenate(b_parts)})

    from vyperdatum_ray.pipelines.textops import _band_key, _dedup_pair_ds

    cand = exchange.exchange(
        [(_emb(sf_dir), lambda t: _band_key(CodeStage(planes_ref)(t), "bucket"))],
        score_group)
    out = _dedup_pair_ds(cand)
    return out.map_batches(
        lambda t: pa.table({"vec_id_a": t.column("id_a"), "vec_id_b": t.column("id_b")}),
        batch_format="pyarrow",
    )


def q_kmeans_embeddings(sf_dir: str, k: int = 16,
                        iters: int = 6) -> ray.data.Dataset:
    """Distributed Lloyd's k-means over the FULL embeddings table — the
    iterative-algorithm pattern the Dataset API doesn't ship: each
    iteration is one streaming pass (per-batch partial centroid sums)
    whose fixed-shape k x (dim+1) partials merge through a fan-in-8
    TREE of raw Ray tasks (classic treeAggregate — the one reduce shape
    Dataset's sort-based groupby can't do cheaply: its per-exchange
    fixed cost was ~2.5 s per iteration for 33 KB of partials), and the
    driver holds only the k x dim centroid matrix and broadcasts it
    back. Nothing corpus-sized ever materializes; wall time is
    iters x (scan + log8(blocks) merge rounds). Deterministic: seeded init from a
    bounded sample (``_train_centroids``'s sample discipline), ties
    break to the lowest centroid index via argmin.

    Output: (vec_id, cluster, dist2) from a final assignment pass with
    the converged centroids. Rows-only (k-means isn't SQL-expressible);
    tests assert determinism, non-increasing inertia per iteration, and
    that every row's cluster is the true argmin of the final centroids.
    """
    sample = _emb(sf_dir).limit(4096).to_pandas()
    emb0 = np.stack(sample["embedding"].to_numpy()).astype(np.float64)
    rng = np.random.default_rng(7)
    cents = emb0[rng.choice(len(emb0), size=min(k, len(emb0)), replace=False)]
    dim = cents.shape[1]
    width = k * (dim + 1)

    # iters+1 passes re-execute the same read plan; when the table fits
    # a bounded object-store budget, materialize ONCE so every pass
    # scans in-memory blocks instead of re-reading parquet. Past the
    # budget (the 100-TB case) it falls through to the streaming
    # re-scan — the memory-safe shape — so this is a bounded cache,
    # not a corpus materialization.
    emb_bytes, _ = exchange.footer_stats(f"{sf_dir}/embeddings.parquet")
    ds_emb = _emb(sf_dir)
    if emb_bytes <= ITER_CACHE_BYTES:
        ds_emb = ds_emb.materialize()

    @ray.remote
    def _merge(*tabs):
        acc = np.zeros(width, np.float64)
        for tb in tabs:
            arr = tb.column("m").to_numpy(zero_copy_only=False)
            # a block may hold several concatenated fixed-width partials
            acc += arr.reshape(-1, width).sum(0)
        return pa.table({"m": pa.array(acc, pa.float64())})

    for _ in range(iters):
        cref = ray.put(cents)

        def partial(t: pa.Table) -> pa.Table:
            c = ray.get(cref)
            _ids, mat = _batch_to_matrix(t)
            d2 = ((mat * mat).sum(1)[:, None] - 2.0 * (mat @ c.T)
                  + (c * c).sum(1)[None, :])
            assign = np.argmin(d2, axis=1)
            n = np.bincount(assign, minlength=len(c)).astype(np.int64)
            # per-dim weighted bincount: ~10x np.add.at (which is an
            # unbuffered per-element loop) in this per-batch hot path
            sums = np.stack(
                [np.bincount(assign, weights=mat[:, j], minlength=len(c))
                 for j in range(mat.shape[1])], axis=1)
            # fixed-shape flat partial: k x dim sums then k counts —
            # every block yields the identical vector, so the merge is
            # pure elementwise addition
            flat = np.concatenate([sums.ravel(), n.astype(np.float64)])
            return pa.table({"m": pa.array(flat, pa.float64())})

        refs = list(ds_emb.map_batches(partial, batch_format="pyarrow")
                    .to_arrow_refs())
        while len(refs) > 1:
            refs = [_merge.remote(*refs[i:i + 8])
                    for i in range(0, len(refs), 8)]
        stats = ray.get(refs[0]).column("m").to_numpy(zero_copy_only=False)
        sums = stats[:k * dim].reshape(k, dim)
        n = stats[k * dim:]
        nz = n > 0
        new = cents.copy()
        new[nz] = sums[nz] / n[nz, None]
        cents = new

    cref = ray.put(cents)

    def assign_final(t: pa.Table) -> pa.Table:
        c = ray.get(cref)
        ids, mat = _batch_to_matrix(t)
        d2 = ((mat * mat).sum(1)[:, None] - 2.0 * (mat @ c.T)
              + (c * c).sum(1)[None, :])
        a = np.argmin(d2, axis=1)
        return pa.table({
            "vec_id": pa.array(ids.astype(np.int64), pa.int64()),
            "cluster": pa.array(a.astype(np.int64), pa.int64()),
            "dist2": pa.array(d2[np.arange(len(a)), a], pa.float64()),
        })

    return ds_emb.map_batches(assign_final, batch_format="pyarrow")


PCA_K = 4


def q_pca_embeddings(sf_dir: str, k: int = PCA_K) -> ray.data.Dataset:
    """Distributed PCA over the full embeddings table (the dimension
    reducer feeding visualization / clustering / whitening stages):
    one streaming pass collects fixed-width Gram partials
    (sum x, sum x x^T, n — dim + dim^2 + 1 doubles per block) merged
    through the same fan-in-8 tree of raw Ray tasks as k-means; the
    driver eigendecomposes the (dim x dim) covariance — 64 x 64, a
    constant — and broadcasts the top-k components; a second pass
    projects every vector. Nothing corpus-sized materializes; the
    driver holds O(dim^2) regardless of corpus size. Deterministic:
    each component's sign is fixed so its max-|coefficient| entry is
    positive. Rows-only (eigendecomposition isn't SQL); tests assert
    exact agreement with single-process numpy PCA."""
    import numpy.linalg as la

    sample = _emb(sf_dir).limit(4).to_pandas()
    if len(sample) == 0:
        # empty corpus: a typed empty projection, not an IndexError in
        # the dim sniff / merge tree / n=0 mean. Caveat: with zero rows
        # there is no embedding dim to cap against, so this emits
        # exactly k pc columns while a non-empty corpus emits
        # min(k, dim) — callers asking k > dim see a wider (still
        # empty) schema in the degenerate case.
        return ray.data.from_arrow(pa.table(
            {"vec_id": pa.array([], pa.int64()),
             **{f"pc{j}": pa.array([], pa.float64()) for j in range(k)}}))
    dim = len(sample["embedding"].iloc[0])
    width = dim + dim * dim + 1

    @ray.remote
    def _merge(*tabs):
        acc = np.zeros(width, np.float64)
        for tb in tabs:
            arr = tb.column("m").to_numpy(zero_copy_only=False)
            acc += arr.reshape(-1, width).sum(0)
        return pa.table({"m": pa.array(acc, pa.float64())})

    def partial(t: pa.Table) -> pa.Table:
        _ids, mat = _batch_to_matrix(t)
        flat = np.concatenate([
            mat.sum(0), (mat.T @ mat).ravel(),
            np.array([len(mat)], np.float64),
        ])
        return pa.table({"m": pa.array(flat, pa.float64())})

    refs = list(_emb(sf_dir).map_batches(partial, batch_format="pyarrow")
                .to_arrow_refs())
    while len(refs) > 1:
        refs = [_merge.remote(*refs[i:i + 8]) for i in range(0, len(refs), 8)]
    stats = ray.get(refs[0]).column("m").to_numpy(zero_copy_only=False)
    s1 = stats[:dim]
    s2 = stats[dim:dim + dim * dim].reshape(dim, dim)
    n = stats[-1]
    mu = s1 / n
    cov = (s2 - n * np.outer(mu, mu)) / max(n - 1.0, 1.0)
    w, v = la.eigh(cov)  # ascending eigenvalues
    order = np.argsort(w)[::-1][:k]
    comps = v[:, order].T  # (k, dim)
    # deterministic sign: the max-|coeff| entry of each component > 0
    for j in range(len(comps)):
        i = np.argmax(np.abs(comps[j]))
        if comps[j, i] < 0:
            comps[j] = -comps[j]
    pref = ray.put((mu, comps))

    def project(t: pa.Table) -> pa.Table:
        m, c = ray.get(pref)
        ids, mat = _batch_to_matrix(t)
        proj = (mat - m) @ c.T
        cols = {"vec_id": pa.array(ids.astype(np.int64), pa.int64())}
        for j in range(c.shape[0]):
            cols[f"pc{j}"] = pa.array(proj[:, j], pa.float64())
        return pa.table(cols)

    return _emb(sf_dir).map_batches(project, batch_format="pyarrow")


# exact power-of-two scale for the centroid's order-independent sums:
# float32 -> float64 conversion is exact and multiplying by 2^40 only
# shifts the exponent, so round(v * 2^40) is computed on IDENTICAL
# doubles by numpy and DuckDB — the int64 sums are then exact and
# partition-order independent (the same discipline as integer-cents
# money, extended to float32 payloads)
CENTROID_SCALE = 2.0 ** 40


def q_embedding_centroid(sf_dir: str) -> ray.data.Dataset:
    """Per-label element-wise embedding centroid (vector-column
    aggregation): each batch reduces to (label, dim, scaled-int sum,
    count) partials — labels x dims rows per block, never vectors —
    folded per (label, dim) on the driver. Output
    is LONG format (label, dim, centroid, n_vecs) so the SQL mirror
    can express the same element-wise mean with a range cross-join."""
    import pyarrow.parquet as pq

    # fixed dim from one row-group's first row (footer-adjacent read)
    first = pq.ParquetFile(f"{sf_dir}/embeddings.parquet").read_row_group(
        0, columns=["embedding"]).column(0)
    dim = len(first[0])

    def partial(batch: pa.Table) -> pa.Table:
        labels = batch.column("label").to_numpy(zero_copy_only=False)
        emb = batch.column("embedding")
        if isinstance(emb, pa.ChunkedArray):
            emb = emb.combine_chunks()
        flat = emb.values.to_numpy(zero_copy_only=False).astype(np.float64)
        scaled = np.rint(flat * CENTROID_SCALE).astype(np.int64).reshape(
            len(labels), dim)
        uniq, inv = np.unique(labels, return_inverse=True)
        sums = np.zeros((len(uniq), dim), np.int64)
        np.add.at(sums, inv, scaled)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table({
            "label": pa.array(np.repeat(uniq, dim).astype(np.int64), pa.int64()),
            "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(uniq)),
                            pa.int64()),
            "p_sum": pa.array(sums.reshape(-1), pa.int64()),
            "p_n": pa.array(np.repeat(counts, dim), pa.int64()),
        })

    g = exchange.fold(exchange.map_typed(_emb(sf_dir), partial), ["label", "dim"],
                      {"p_sum": "sum", "p_n": "sum"})
    return exchange.from_arrow(pa.Table.from_pandas(pd.DataFrame({
        "label": g["label"],
        "dim": g["dim"],
        "centroid": g["p_sum"].to_numpy(np.float64) / (g["p_n"].to_numpy() * CENTROID_SCALE),
        "n_vecs": g["p_n"],
    }), preserve_index=False))


def embedding_centroid_oracle_sql(sf_dir: str) -> str:
    import pyarrow.parquet as pq

    first = pq.ParquetFile(f"{sf_dir}/embeddings.parquet").read_row_group(
        0, columns=["embedding"]).column(0)
    dim = len(first[0])
    return f"""
SELECT CAST(label AS BIGINT) AS label, CAST(d.i AS BIGINT) AS dim,
  CAST(sum(CAST(round(CAST(embedding[d.i + 1] AS DOUBLE)
                      * 1099511627776.0, 0) AS BIGINT)) AS DOUBLE)
    / (count(*) * 1099511627776.0) AS centroid,
  CAST(count(*) AS BIGINT) AS n_vecs
FROM embeddings, (SELECT unnest(range({dim})) AS i) d
GROUP BY label, d.i"""
