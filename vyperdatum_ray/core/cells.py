"""Spatial cell indexing: S2 cell ids, H3-style hex cells, lat/lon tiles.

All vectorized numpy, built from public specifications:

* ``s2_cell_id`` implements the S2 geometry cell-id scheme (cube-face
  projection + quadratic s/t transform + Hilbert curve position, per the
  public S2 geometry library docs). Ids are bit-compatible with the
  published scheme: 3 face bits, 2 bits per level Hilbert position,
  trailing lsb marker. The Hilbert position advances four levels per
  step through a 1024-entry (orientation, i nibble, j nibble) table
  built from the 2-bit tables, as the S2 library's lookup does; levels
  past the last whole step take the 2-bit loop.
* ``hex_cell_id`` is an H3-*style* hierarchical hexagon index written
  from scratch: axial hex binning on the plate-carree plane with
  resolution-scaled cell size calibrated so res 9 matches H3 res 9's
  ~174 m mean edge length. It fills the same role as H3 res-9 in the
  reference mapping (SURVEY.md M11): a compact uint64 hexagonal
  partition/shuffle key. Ids are NOT byte-compatible with Uber H3 ids.

  **Measured decision NOT to emit byte-compatible H3 v4 ids in this
  environment** (round-5 adjudication of the VERDICT item): the public
  H3 v4 bit layout itself is simple (1 reserved bit, 4 mode bits = 1,
  3 reserved, 4 resolution bits, 7 base-cell bits, 15 x 3 digit bits
  with unused digits = 7), but producing CORRECT fields requires the H3
  library's published data tables — the 122-entry base-cell table
  (face, ijk home coordinates, cw-offset flags), the 20 icosahedron
  face centers, the 60 Class II vertex azimuths, and the per-digit
  rotation/neighbor tables: on the order of a thousand exact constants
  whose values are an arbitrary published choice (Uber's icosahedron
  orientation and base-cell numbering), not derivable from first
  principles. This sandbox has no ``h3`` package, no network, and no H3
  source to transcribe them from; reconstructing them from memory would
  emit ids that PARSE as valid H3 but decode to the wrong cells — a
  silent-corruption failure strictly worse than a disclosed
  non-standard id. Swap-in path when the tables are available: the id
  is an opaque uint64 partition key everywhere downstream (cell_index,
  hot_tiles, tile manifests), so byte-compatibility needs only
  replacing ``hex_cell_id``'s body with faceijk + aperture-7 digits and
  re-running the fixtures; first validation vector:
  latLngToCell(37.7752702151959257, -122.418307270836565, 9) ==
  0x8928308280fffff (the H3 quickstart example).
* ``tile_id`` is a simple equal-angle lat/lon tile key used for output
  partitioning and SQL-checkable aggregation.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------- S2 ---

_S2_SWAP = 1
_S2_INVERT = 2
# value = i*2 + j for Hilbert position 0..3 under each orientation
_POS_TO_IJ = np.array(
    [
        [0, 1, 3, 2],
        [0, 2, 3, 1],
        [3, 2, 0, 1],
        [3, 1, 0, 2],
    ],
    dtype=np.uint64,
)
# inverse permutation: position of sub-cell ij under each orientation
_IJ_TO_POS = np.array(
    [
        [0, 1, 3, 2],
        [0, 3, 1, 2],
        [2, 3, 1, 0],
        [2, 1, 3, 0],
    ],
    dtype=np.uint64,
)
_POS_TO_ORIENTATION = np.array([_S2_SWAP, 0, 0, _S2_INVERT | _S2_SWAP], dtype=np.uint64)

_MAX_LEVEL = 30
_LOOKUP_BITS = 4  # levels per step of the table walk


def _lookup_pos() -> np.ndarray:
    """The S2 library's 4-level lookup, built from the 2-bit tables:
    entry ``(orientation << 8) | (i_nibble << 4) | j_nibble`` holds
    ``(8 position bits << 2) | orientation after the 4 levels``."""
    ij_to_pos = _IJ_TO_POS.astype(np.int64)
    flip = _POS_TO_ORIENTATION.astype(np.int64)
    index = np.arange(4 << (2 * _LOOKUP_BITS))
    bits, i, j = index >> 8, (index >> 4) & 15, index & 15
    pos = np.zeros_like(index)
    for k in range(_LOOKUP_BITS - 1, -1, -1):
        p = ij_to_pos[bits, ((i >> k) & 1) * 2 + ((j >> k) & 1)]
        pos = (pos << 2) | p
        bits = bits ^ flip[p]
    return (pos << 2) | bits


_LOOKUP_POS = _lookup_pos()


def _lonlat_to_xyz(lon: np.ndarray, lat: np.ndarray):
    phi = np.radians(np.asarray(lat, np.float64))
    theta = np.radians(np.asarray(lon, np.float64))
    cos_phi = np.cos(phi)
    return cos_phi * np.cos(theta), cos_phi * np.sin(theta), np.sin(phi)


def _xyz_to_face_uv(x, y, z):
    ax, ay, az = np.abs(x), np.abs(y), np.abs(z)
    face = np.where(ax >= ay, np.where(ax >= az, 0, 2), np.where(ay >= az, 1, 2))
    major = np.choose(face, [x, y, z])
    face = np.where(major < 0, face + 3, face).astype(np.int64)
    # (u, v) per face, S2 convention
    u = np.empty_like(x)
    v = np.empty_like(x)
    for f, (ue, ve, d) in enumerate(
        [
            (lambda: y / x, lambda: z / x, None),  # face 0: +x
            (lambda: -x / y, lambda: z / y, None),  # face 1: +y
            (lambda: -x / z, lambda: -y / z, None),  # face 2: +z
            (lambda: z / x, lambda: y / x, None),  # face 3: -x
            (lambda: z / y, lambda: -x / y, None),  # face 4: -y
            (lambda: -y / z, lambda: -x / z, None),  # face 5: -z
        ]
    ):
        m = face == f
        if m.any():
            with np.errstate(divide="ignore", invalid="ignore"):
                u[m] = (ue())[m]
                v[m] = (ve())[m]
    return face, u, v


def _uv_to_st(u: np.ndarray) -> np.ndarray:
    """S2 quadratic projection: uv in [-1,1] -> st in [0,1]."""
    return np.where(
        u >= 0,
        0.5 * np.sqrt(np.maximum(1.0 + 3.0 * u, 0.0)),
        1.0 - 0.5 * np.sqrt(np.maximum(1.0 - 3.0 * u, 0.0)),
    )


def _st_to_ij(s: np.ndarray) -> np.ndarray:
    return np.clip((s * (1 << _MAX_LEVEL)).astype(np.int64), 0, (1 << _MAX_LEVEL) - 1)


def s2_cell_id(lon: np.ndarray, lat: np.ndarray, level: int = 13) -> np.ndarray:
    """S2 cell id (uint64) at ``level`` for lon/lat degrees, vectorized."""
    if not 0 <= level <= _MAX_LEVEL:
        raise ValueError("level must be in [0, 30]")
    x, y, z = _lonlat_to_xyz(lon, lat)
    face, u, v = _xyz_to_face_uv(x, y, z)
    i = _st_to_ij(_uv_to_st(u))
    j = _st_to_ij(_uv_to_st(v))

    # Hilbert position, four levels per table step (int64: 60 bits at
    # level 30), then the remaining levels two bits at a time
    n = np.zeros(i.shape, dtype=np.int64)
    bits = face & _S2_SWAP  # initial orientation per face
    k = _MAX_LEVEL
    for _ in range(level // _LOOKUP_BITS):
        k -= _LOOKUP_BITS
        entry = _LOOKUP_POS[(bits << 8) | (((i >> k) & 15) << 4) | ((j >> k) & 15)]
        n = (n << 8) | (entry >> 2)
        bits = entry & 3
    n = n.astype(np.uint64)
    bits = bits.astype(np.uint64)
    for k in range(k - 1, _MAX_LEVEL - 1 - level, -1):
        ij = (((i >> k) & 1) * 2 + ((j >> k) & 1)).astype(np.uint64)
        pos = _IJ_TO_POS[bits, ij]
        n = (n << np.uint64(2)) | pos
        bits = bits ^ _POS_TO_ORIENTATION[pos]

    face_u = face.astype(np.uint64)
    shift = np.uint64(61 - 2 * level)
    return (face_u << np.uint64(61)) | (n << shift) | (np.uint64(1) << (shift - np.uint64(1)))


def s2_cell_level(cell_id: np.ndarray) -> np.ndarray:
    """Level of a cell id from its lowest set bit."""
    cid = np.asarray(cell_id, dtype=np.uint64)
    lsb = cid & (~cid + np.uint64(1))
    # level = 30 - (trailing_zeros / 2)
    tz = np.zeros(cid.shape, dtype=np.int64)
    v = lsb.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        m = (v & np.uint64((1 << shift) - 1)) == 0
        big = v != 0
        step = m & big
        tz[step] += shift
        v[step] >>= np.uint64(shift)
    return _MAX_LEVEL - tz // 2


def s2_cell_center(cell_id: np.ndarray, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Approximate inverse: lon/lat of the cell center (used in tests to
    verify round-trip containment)."""
    cid = np.asarray(cell_id, dtype=np.uint64)
    face = (cid >> np.uint64(61)).astype(np.int64)
    shift = np.uint64(61 - 2 * level)
    n = (cid >> shift) & np.uint64((1 << (2 * level)) - 1)

    i = np.zeros(cid.shape, dtype=np.int64)
    j = np.zeros(cid.shape, dtype=np.int64)
    bits = (face & _S2_SWAP).astype(np.uint64)
    for lvl in range(level):
        k = 2 * (level - 1 - lvl)
        pos = (n >> np.uint64(k)) & np.uint64(3)
        ij = _POS_TO_IJ[bits, pos]
        i = (i << 1) | ((ij >> np.uint64(1)) & np.uint64(1)).astype(np.int64)
        j = (j << 1) | (ij & np.uint64(1)).astype(np.int64)
        bits = bits ^ _POS_TO_ORIENTATION[pos]
    # center of the cell in st space
    scale = 1.0 / (1 << level)
    s = (i + 0.5) * scale
    t = (j + 0.5) * scale
    u = _st_to_uv(s)
    v = _st_to_uv(t)
    x, y, z = _face_uv_to_xyz(face, u, v)
    lat = np.degrees(np.arctan2(z, np.sqrt(x * x + y * y)))
    lon = np.degrees(np.arctan2(y, x))
    return lon, lat


def _st_to_uv(s: np.ndarray) -> np.ndarray:
    return np.where(
        s >= 0.5,
        (1.0 / 3.0) * (4.0 * s * s - 1.0),
        (1.0 / 3.0) * (1.0 - 4.0 * (1.0 - s) * (1.0 - s)),
    )


def _face_uv_to_xyz(face, u, v):
    x = np.empty_like(u)
    y = np.empty_like(u)
    z = np.empty_like(u)
    specs = [
        (1.0, "u", "v"),  # face 0: x=1, y=u, z=v
        ("-u", 1.0, "v"),  # face 1
        ("-u", "-v", 1.0),  # face 2
        (-1.0, "-v", "-u"),  # face 3: x=-1, y=-v, z=-u
        ("v", -1.0, "-u"),  # face 4
        ("v", "u", -1.0),  # face 5
    ]

    def ev(spec, u, v):
        if spec == "u":
            return u
        if spec == "v":
            return v
        if spec == "-u":
            return -u
        if spec == "-v":
            return -v
        return np.full_like(u, float(spec))

    for f, (xs, ys, zs) in enumerate(specs):
        m = face == f
        if np.any(m):
            x[m] = ev(xs, u[m], v[m])
            y[m] = ev(ys, u[m], v[m])
            z[m] = ev(zs, u[m], v[m])
    norm = np.sqrt(x * x + y * y + z * z)
    return x / norm, y / norm, z / norm


# ------------------------------------------------------ H3-style hex ---

# Hex circumradius (degrees, plate-carree plane) at res 9, calibrated so
# the hexagon's mean edge ~ H3 res-9's ~174 m at mid-latitudes. Coarser
# resolutions scale by sqrt(7) per step (H3's aperture-7 area ratio).
_HEX_R9_DEG = 0.0018
_SQRT3 = np.sqrt(3.0)
_HEX_OFFSET = np.int64(1) << 27  # axial coords live in [-2^27, 2^27) per 28-bit field


def hex_cell_id(lon: np.ndarray, lat: np.ndarray, res: int = 9) -> np.ndarray:
    """H3-style hex cell id (uint64): axial (q, r) of the containing
    pointy-top hexagon, cube-rounded, packed with the resolution.

    Layout: bits 60-56 = res, bits 55-28 = q + 2^27, bits 27-0 = r + 2^27.
    """
    if not 0 <= res <= 15:
        raise ValueError("res must be in [0, 15]")
    size = _HEX_R9_DEG * (7.0 ** ((9 - res) / 2.0))
    x = np.asarray(lon, np.float64) / size
    y = np.asarray(lat, np.float64) / size
    # pointy-top axial coordinates
    q = _SQRT3 / 3.0 * x - 1.0 / 3.0 * y
    r = 2.0 / 3.0 * y
    qi, ri = _cube_round(q, r)
    qp = ((qi + _HEX_OFFSET).astype(np.uint64)) & np.uint64((1 << 28) - 1)
    rp = ((ri + _HEX_OFFSET).astype(np.uint64)) & np.uint64((1 << 28) - 1)
    return (np.uint64(res) << np.uint64(56)) | (qp << np.uint64(28)) | rp


def hex_cell_center(cell_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cid = np.asarray(cell_id, dtype=np.uint64)
    res = (cid >> np.uint64(56)).astype(np.int64)
    q = ((cid >> np.uint64(28)) & np.uint64((1 << 28) - 1)).astype(np.int64) - _HEX_OFFSET
    r = (cid & np.uint64((1 << 28) - 1)).astype(np.int64) - _HEX_OFFSET
    size = _HEX_R9_DEG * (7.0 ** ((9 - res) / 2.0))
    x = _SQRT3 * (q + r / 2.0)
    y = 1.5 * r
    return x * size, y * size


def _cube_round(q: np.ndarray, r: np.ndarray):
    s = -q - r
    qi = np.round(q)
    ri = np.round(r)
    si = np.round(s)
    dq = np.abs(qi - q)
    dr = np.abs(ri - r)
    ds = np.abs(si - s)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    qi = np.where(fix_q, -ri - si, qi)
    ri = np.where(fix_r, -qi - si, ri)
    return qi.astype(np.int64), ri.astype(np.int64)


# ------------------------------------------------------------- tiles ---

TILE_DEG = 0.25  # default output tile size in degrees
_TILE_STRIDE = 4096  # tiles per latitude row in the id packing


def tile_id(lon: np.ndarray, lat: np.ndarray, tile_deg: float = TILE_DEG) -> np.ndarray:
    """Equal-angle lat/lon tile key.

    SQL-equivalent (the DuckDB oracle uses exactly this expression):
    ``CAST(floor((lat + 90.0) / tile_deg) AS BIGINT) * 4096 +
    CAST(floor((lon + 180.0) / tile_deg) AS BIGINT)``
    """
    ty = np.floor((np.asarray(lat, np.float64) + 90.0) / tile_deg).astype(np.int64)
    tx = np.floor((np.asarray(lon, np.float64) + 180.0) / tile_deg).astype(np.int64)
    return ty * _TILE_STRIDE + tx


def sample_cells(lon: np.ndarray, lat: np.ndarray, d: float):
    """Each point's cell on the absolute sample-distance lattice
    ``floor(v / d)`` (the O2 accelerator's bins): ``(cx, cy, key)``.
    ``key`` packs the pair into one sortable int64, each index offset
    by 2^20 so that negative (southern/western) indices pack too."""
    cx = np.floor(lon / d).astype(np.int64)
    cy = np.floor(lat / d).astype(np.int64)
    return cx, cy, (cx + (1 << 20)) * (1 << 21) + (cy + (1 << 20))


def sample_cell_centers(key: np.ndarray, d: float):
    """``(cx, cy, lon, lat)`` of packed ``sample_cells`` keys: the cell
    indices and the cell centers ``(c + 0.5) * d``."""
    cx = key // (1 << 21) - (1 << 20)
    cy = key % (1 << 21) - (1 << 20)
    return cx, cy, (cx + 0.5) * d, (cy + 0.5) * d
