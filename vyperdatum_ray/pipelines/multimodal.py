"""Multimodal column plumbing: treat ``html`` (and by extension image /
audio / video payloads) as opaque binary columns processed by actor-pool
``map_batches`` stages.

The compressed-format decoders (PIL / libsndfile / ffmpeg) are NOT in
this container, so those kernels are clearly-marked deterministic fakes
(``FakeDecoder.decode``) — the Ray-side plumbing (schema, small batch
size for wide binary rows, actor signature, fixed-width feature output
layout) is real and tested. ``decode_ppm`` / ``resize_bilinear`` below
ARE real: a from-scratch binary P6 PPM decoder and resampler in pure
numpy, so uncompressed-image payloads take a genuine decode path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data

from vyperdatum_ray.pipelines import exchange

FEATURE_DIM = 8


def decode_ppm(buf: bytes) -> np.ndarray | None:
    """REAL decoder for binary P6 PPM (the uncompressed RGB format):
    header 'P6 <w> <h> <maxval>' with whitespace/comments, then raw
    RGB bytes. Returns an (h, w, 3) uint8 array, or None when the
    payload is not a (complete, maxval<=255) P6 image."""
    if not buf or not buf.startswith(b"P6"):
        return None
    pos = 2
    fields = []
    while len(fields) < 3 and pos < len(buf):
        while pos < len(buf) and buf[pos:pos + 1].isspace():
            pos += 1
        if buf[pos:pos + 1] == b"#":  # comment to end-of-line
            while pos < len(buf) and buf[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos:pos + 1].isspace():
            pos += 1
        if pos == start:
            return None
        try:
            fields.append(int(buf[start:pos]))
        except ValueError:
            return None
    if len(fields) < 3 or pos >= len(buf):
        return None
    w, h, maxval = fields
    pos += 1  # single whitespace after maxval
    if maxval <= 0 or maxval > 255 or w <= 0 or h <= 0:
        return None
    need = w * h * 3
    if len(buf) - pos < need:
        return None
    img = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos).reshape(h, w, 3)
    if maxval != 255:  # legal low-maxval P6: rescale samples to 0..255
        img = np.clip(np.rint(img.astype(np.float64) * (255.0 / maxval)),
                      0, 255).astype(np.uint8)
    return img


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """REAL bilinear resampler (align-corners=False convention), pure
    numpy — the resize stage of an image-featurize pipeline."""
    h, w = img.shape[:2]
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    fx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    f = img.astype(np.float64)
    top = f[y0][:, x0] * (1 - fx) + f[y0][:, x1] * fx
    bot = f[y1][:, x0] * (1 - fx) + f[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


class FakeDecoder:
    """Actor-pool 'decode + featurize' stage over a binary column.

    decode(): deterministic stand-in — an 8-bin byte histogram (density
    per bin) standing in for decoded-image features. Raises
    NotImplementedError when a real decode is requested.
    """

    def __init__(self, binary_col: str = "html", real_decode: bool = False):
        if real_decode:
            raise NotImplementedError(
                "real image/audio decoding requires PIL/ffmpeg, absent in "
                "this environment — the deterministic fake exercises the "
                "distributed plumbing"
            )
        self.binary_col = binary_col

    @staticmethod
    def decode(payloads: list[bytes]) -> np.ndarray:
        feats = np.zeros((len(payloads), FEATURE_DIM), dtype=np.float64)
        for i, buf in enumerate(payloads):
            if not buf:
                continue
            img = decode_ppm(buf)
            if img is not None:
                # REAL path: PPM decode -> bilinear 2 x FEATURE_DIM/2
                # thumbnail -> channel-mean grid as the feature vector
                thumb = resize_bilinear(img, 2, FEATURE_DIM // 2)
                feats[i] = (thumb.mean(axis=2) / 255.0).reshape(-1)
                continue
            b = np.frombuffer(buf, dtype=np.uint8)
            hist = np.bincount(b >> 5, minlength=FEATURE_DIM)[:FEATURE_DIM]
            feats[i] = hist / len(b)
        return feats

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.binary_col).to_pylist()
        feats = self.decode(payloads)
        return pa.table(
            {
                "url": batch.column("url"),
                "n_bytes": pa.array([len(p or b"") for p in payloads], pa.int64()),
                "feature": pa.array(list(feats), pa.list_(pa.float64(), FEATURE_DIM)),
            }
        )


def q_multimodal_decode(sf_dir: str) -> ray.data.Dataset:
    """Binary decode/featurize pipeline (rows-only check: the fake
    features are engine-defined). Small batch_size: binary payload rows
    are wide, so batch x concurrency must fit worker heaps."""
    from vyperdatum_ray.fixtures import pages_paths

    ds = exchange.read(pages_paths(sf_dir), ["url", "html"])
    return ds.map_batches(
        FakeDecoder,
        batch_format="pyarrow",
        batch_size=1024,
        concurrency=(1, 4),
        num_cpus=1,
    )


def q_html_extract(sf_dir: str) -> ray.data.Dataset:
    """Real (non-stub) html -> text extraction: strip tags with a
    vectorized Arrow regex over the binary column. The heavy-payload
    pattern: small batches, html pruned everywhere else."""
    import pyarrow.compute as pc

    from vyperdatum_ray.fixtures import pages_paths

    def extract(batch: pa.Table) -> pa.Table:
        html = pc.cast(batch.column("html"), pa.string())
        text = pc.replace_substring_regex(html, "<[^>]*>", "")
        return pa.table({"url": batch.column("url"), "extracted": text})

    ds = exchange.read(pages_paths(sf_dir), ["url", "html"])
    return ds.map_batches(extract, batch_format="pyarrow", batch_size=2048)


N_FRAMES = 4


class FrameSampler:
    """Video-style frame sampling over an opaque binary column:
    k evenly-spaced windows ('frames') per payload, one feature per
    frame (mean byte value — deterministic stand-in for a real frame
    decode, which needs ffmpeg; the windowing/batching/output layout is
    the production shape)."""

    def __init__(self, binary_col: str = "html", n_frames: int = N_FRAMES):
        self.binary_col = binary_col
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.binary_col).to_pylist()
        feats = np.zeros((len(payloads), self.n_frames), dtype=np.float64)
        for i, buf in enumerate(payloads):
            if not buf:
                continue
            b = np.frombuffer(buf, dtype=np.uint8)
            bounds = np.linspace(0, len(b), self.n_frames + 1).astype(np.int64)
            for f in range(self.n_frames):
                win = b[bounds[f]:bounds[f + 1]]
                feats[i, f] = float(win.mean()) if len(win) else 0.0
        return pa.table(
            {
                "url": batch.column("url"),
                "frame_feature": pa.array(
                    list(np.round(feats, 6)), pa.list_(pa.float64(), self.n_frames)
                ),
            }
        )


def q_frame_sample(sf_dir: str) -> ray.data.Dataset:
    from vyperdatum_ray.fixtures import pages_paths

    ds = exchange.read(pages_paths(sf_dir), ["url", "html"])
    return ds.map_batches(
        FrameSampler, batch_format="pyarrow", batch_size=1024,
        concurrency=(1, 4), num_cpus=1,
    )


# ------------------------------------------------ image near-dup ---

_POPCNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                        axis=1).sum(1).astype(np.int64)


def dhash64(img: np.ndarray) -> np.uint64:
    """64-bit difference hash of a decoded RGB image: grayscale ->
    bilinear 9x8 -> row-wise gradient sign. Invariant to uniform
    brightness shifts (it compares neighbors) and robust to sparse
    per-pixel noise (each 9x8 cell averages many source pixels)."""
    gray = img.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    small = resize_bilinear(gray[:, :, None] if gray.ndim == 2 else gray, 8, 9)
    g = small[:, :, 0] if small.ndim == 3 else small
    bits = (g[:, 1:] > g[:, :-1]).ravel()
    return np.uint64(np.packbits(bits).view(">u8")[0])


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized Hamming distance between uint64 hash arrays."""
    x = (a ^ b).view(np.uint8).reshape(len(a), 8)
    return _POPCNT[x].sum(1)


# 28 band-PAIR buckets (each pair of the hash's 8 bytes, 16-bit key):
# a pair with hamming <= 6 has flips in at most 6 of the 8 bands, so at
# least TWO bands are identical on both sides — the pair co-occurs in
# that two-band combo's bucket exactly. Recall at the default threshold
# is therefore exact by pigeonhole (single-byte bands gave the same
# guarantee only below hamming 8 but needed a recall-breaking skip
# guard on their much coarser 256-value buckets).
_BAND_COMBOS = [(i, j) for i in range(8) for j in range(i + 1, 8)]


def q_image_neardup(sf_dir: str, max_hamming: int = 6) -> ray.data.Dataset:
    """Perceptual image near-duplicate detection over REAL pixels: the
    P6 PPM payloads decode with the from-scratch numpy decoder, hash to
    64-bit dHashes in the exchange's split tasks (no
    per-call actor pool, see CLAUDE.md), and pair up through a banded
    exact-match exchange: each hash emits its 28 two-byte band combos,
    an exchange keyed by the packed (combo, value) forms candidate
    buckets carrying the full hashes, pairs verify ``hamming <=
    max_hamming`` in-bucket (vectorized popcount), and the shared
    ``textops._dedup_pair_ds`` drops cross-combo repeats — no broadcast
    of any id->hash map. Recall at hamming <= 6 is exact by pigeonhole (see
    ``_BAND_COMBOS``). Undecodable payloads are EXCLUDED (hashing them
    to a sentinel would pair every corrupt row with every other).
    Rows-only (perceptual hashing isn't SQL); tests assert banded
    output == brute-force thresholded pairs."""
    import pandas as pd

    from vyperdatum_ray.fixtures import ensure_image_fixtures
    from vyperdatum_ray.pipelines.textops import _dedup_pair_ds

    path = ensure_image_fixtures(sf_dir)

    def phash_bands(t: pa.Table) -> pa.Table:
        """The leg: one row per (decodable image, band combo), keyed by
        the packed (combo, value) bucket."""
        all_ids = t.column("img_id").to_numpy(zero_copy_only=False)
        ids, hashes = [], []
        for i, buf in enumerate(t.column("payload").to_pylist()):
            img = decode_ppm(buf)
            if img is not None:
                ids.append(all_ids[i])
                hashes.append(dhash64(img))
        h = np.array(hashes, dtype=np.uint64)
        ids = np.array(ids, dtype=np.int64)
        bands = h.view(np.uint8).reshape(len(h), 8).astype(np.int64)
        n = len(ids)
        combo_ids, vals = [], []
        for c, (bi, bj) in enumerate(_BAND_COMBOS):
            combo_ids.append(np.full(n, c, np.int64))
            vals.append(bands[:, bi] * 256 + bands[:, bj])
        k = len(_BAND_COMBOS)
        band, val = np.concatenate(combo_ids), np.concatenate(vals)
        return pa.table({
            "k": pa.array((band << 16) | val),  # val < 2^16
            "img_id": pa.array(np.tile(ids, k)),
            "phash": pa.array(np.tile(h, k).view(np.int64)),
        })

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized bucket detection (the textops._pairs_grouped run
        # pattern, carrying hashes): one packed-key sort per salt group,
        # contiguous-slice runs instead of a pandas groupby object per
        # (band, val) bucket
        key = df["k"].to_numpy(np.int64)
        all_ids = df["img_id"].to_numpy().astype(np.int64)
        all_hs = df["phash"].to_numpy().view(np.uint64)
        order = np.argsort(key, kind="stable")
        key, all_ids, all_hs = key[order], all_ids[order], all_hs[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(key)]
        out_a, out_b, out_h = [], [], []
        for st, en in zip(starts, ends):
            ids = all_ids[st:en]
            hs = all_hs[st:en]
            if len(ids) < 2:
                continue
            if len(ids) > 4096:
                # degenerate bucket (e.g. thousands of identical 16-bit
                # combos — near-uniform images). All-pairs here would be
                # O(B^2); dedup the EXACT-equal hashes instead (emit
                # each distinct hash's id chain) so exact duplicates
                # survive even in degenerate buckets, and log the skip
                # of the cross-hash comparisons.
                import logging

                logging.getLogger(__name__).warning(
                    "image_neardup: bucket of %d images — comparing "
                    "only exact-equal hashes within it", len(ids))
                order = np.argsort(hs, kind="stable")
                hs_s, ids_s = hs[order], ids[order]
                same = hs_s[1:] == hs_s[:-1]
                a, b = ids_s[:-1][same], ids_s[1:][same]
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                out_a.append(lo); out_b.append(hi)
                out_h.append(np.zeros(len(lo), np.int64))
                continue
            ai, bj = np.triu_indices(len(ids), k=1)
            hd = hamming64(hs[ai], hs[bj])
            keep = hd <= max_hamming
            a, b = ids[ai[keep]], ids[bj[keep]]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            out_a.append(lo); out_b.append(hi); out_h.append(hd[keep])
        if not out_a:
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64),
                                 "hamming": pd.Series(dtype=np.int64)})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b),
                             "hamming": np.concatenate(out_h)})

    cand = exchange.exchange([(exchange.read(path), phash_bands)], bucket_pairs)
    return _dedup_pair_ds(cand)
