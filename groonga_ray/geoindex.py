"""Index-accelerated geo search: a z-order (interleaved-bit geohash)
ordered Parquet geo index with mesh-cover range scans.

Reference: Groonga's geo index is a TABLE_PAT_KEY whose WGS84GeoPoint
keys are bit-interleaved by ``grn_gton`` (lib/grn.h:657-676 — latitude
in the odd/high bits, longitude in the even bits) so that patricia-trie
range cursors walk spatial meshes; ``grn_geo_select_in_rectangle``
(lib/geo.c:687-1016) covers the query rectangle with a small set of
meshes (``in_rectangle_data_prepare`` computes the mesh level from the
rectangle diagonal) and opens one ``grn_pat_cursor`` per mesh,
verifying candidates exactly (``grn_geo_cursor_entry_next``,
lib/geo.c:1297-1489).

Ray-native rebuild: the index is a Parquet dataset of
``(docid, lat, lon, zkey)`` rows sorted by ``zkey`` — the sorted key
column replaces the patricia trie exactly as the lexicon replaces it
for terms. The mesh cover is a recursive quadtree decomposition of the
query rectangle into ≤ ``max_cells`` aligned z-order cells, each of
which is one *contiguous* ``zkey`` range; row groups are pruned with
Parquet min/max statistics, so a query reads only the row groups whose
zkey span intersects the cover (bytes-read counters prove it). The
candidate rows are verified with the exact kernels from ``geo.py``.

Ordering note: we interleave *sign-flipped* coordinates
(``v XOR 0x80000000``) so the int32 order is monotonic in the uint64
key — the reference instead walks raw-cast meshes in a hemisphere-aware
order (lib/geo.c:420-686). Our choice only affects internal sort order;
results are identical because candidates are exactly verified.

At 100 TB scale the build is one distributed ``Dataset.sort`` by zkey
(the only shuffle) and the query path is pure metadata + pruned range
reads, served from any node.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .cache import BoundedCache, file_stamp
from .geo import GEO_RESOLUTION, geo_in_circle, geo_in_rectangle, parse_geopoint

LAT_MAX = 90 * GEO_RESOLUTION    # 324_000_000 ms
LON_MAX = 180 * GEO_RESOLUTION   # 648_000_000 ms

_M16 = np.uint64(0x0000FFFF0000FFFF)
_M8 = np.uint64(0x00FF00FF00FF00FF)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_M2 = np.uint64(0x3333333333333333)
_M1 = np.uint64(0x5555555555555555)


def _spread(v: np.ndarray) -> np.ndarray:
    """uint32 -> uint64 with the 32 bits spread to even positions
    (grn_gton's shift-or cascade, lib/grn.h:662-672)."""
    v = v.astype(np.uint64)
    v = (v | (v << np.uint64(16))) & _M16
    v = (v | (v << np.uint64(8))) & _M8
    v = (v | (v << np.uint64(4))) & _M4
    v = (v | (v << np.uint64(2))) & _M2
    v = (v | (v << np.uint64(1))) & _M1
    return v


def zkey(lat_ms: np.ndarray, lon_ms: np.ndarray) -> np.ndarray:
    """Interleaved-bit geo key: latitude odd bits, longitude even bits
    (grn_gton), over sign-flipped coordinates so int32 order is
    monotonic in the key."""
    lat_u = (np.asarray(lat_ms, np.int64).astype(np.int32).view(np.uint32)
             ^ np.uint32(0x80000000))
    lon_u = (np.asarray(lon_ms, np.int64).astype(np.int32).view(np.uint32)
             ^ np.uint32(0x80000000))
    return (_spread(lat_u) << np.uint64(1)) | _spread(lon_u)


def _zkey1(lat_u: int, lon_u: int) -> int:
    """Scalar zkey over already-sign-flipped uint32 coordinates."""
    out = 0
    for i in range(32):
        out |= ((lat_u >> i) & 1) << (2 * i + 1)
        out |= ((lon_u >> i) & 1) << (2 * i)
    return out


def _flip(ms: int) -> int:
    return (ms & 0xFFFFFFFF) ^ 0x80000000


def zranges(
    lat_min: int, lat_max: int, lon_min: int, lon_max: int, max_cells: int = 128
) -> list[tuple[int, int]]:
    """Cover the inclusive rectangle with ≤ max_cells aligned z-order
    cells, returned as merged inclusive (lo, hi) zkey ranges — the
    analogue of the reference's mesh list (in_rectangle_data_fill,
    lib/geo.c:422-686). Cells that would exceed the budget are emitted
    whole (a safe over-approximation; candidates are exactly verified).
    """
    qla0, qla1 = _flip(lat_min), _flip(lat_max)
    qlo0, qlo1 = _flip(lon_min), _flip(lon_max)
    out: list[tuple[int, int]] = []
    # level-synchronous refinement: every surviving cell at a level is
    # the same size, so when the budget runs out the whole frontier is
    # emitted at ONE granularity — over-approximation bounded by the
    # frontier cell size, never a near-root cell (the reference picks
    # one mesh level for the whole rectangle the same way,
    # in_rectangle_data_prepare lib/geo.c:422-540)
    frontier: list[tuple[int, int]] = [(0, 0)]  # (lat0, lon0) at `bits`
    bits = 32
    while frontier:
        size = 1 << bits
        keep: list[tuple[int, int]] = []
        for la0, lo0 in frontier:
            la1, lo1 = la0 + size - 1, lo0 + size - 1
            if la1 < qla0 or la0 > qla1 or lo1 < qlo0 or lo0 > qlo1:
                continue
            if qla0 <= la0 and la1 <= qla1 and qlo0 <= lo0 and lo1 <= qlo1:
                # an aligned power-of-two cell is one contiguous z range
                out.append((_zkey1(la0, lo0), _zkey1(la1, lo1)))
            else:
                keep.append((la0, lo0))
        if bits == 0 or len(out) + 4 * len(keep) > max_cells:
            for la0, lo0 in keep:
                out.append((_zkey1(la0, lo0), _zkey1(la0 + size - 1, lo0 + size - 1)))
            break
        h = 1 << (bits - 1)
        frontier = [
            child
            for la0, lo0 in keep
            for child in ((la0, lo0), (la0, lo0 + h), (la0 + h, lo0), (la0 + h, lo0 + h))
        ]
        bits -= 1
    out.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


# ------------------------------------------------------------------ build

def build_geo_index(
    source_files: list[str],
    out_dir: str,
    column: str,
    docid_column: str = "_id",
    rows_per_group: int = 4096,
) -> None:
    """Build the zkey-sorted geo index Parquet dataset from the source
    table's GeoPoint column (text ``"<lat_ms>x<lon_ms>"`` or
    ``struct<lat,lon>``). One distributed sort is the only shuffle; the
    output is written with small row groups so min/max statistics give
    fine-grained pruning (the mesh granularity of the scan side)."""
    def _encode(batch: pa.Table) -> pa.Table:
        col = batch.column(column)
        docids = batch.column(docid_column).cast(pa.uint32())
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            # vector GeoPoint column: one index entry per element,
            # docid repeated (grn_ii over a vector source)
            import pyarrow.compute as pc2

            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            parents = pc2.list_parent_indices(col)
            docids = docids.take(parents)
            col = pc2.list_flatten(col)
        lat, lon = parse_geopoint(col)
        keys = zkey(lat, lon)
        return pa.table({
            "docid": docids,
            "lat": pa.array(lat.astype(np.int32)),
            "lon": pa.array(lon.astype(np.int32)),
            "zkey": pa.array(keys),
        })

    os.makedirs(out_dir, exist_ok=True)
    total = sum(pq.ParquetFile(f).metadata.num_rows for f in source_files)
    if total <= 1_000_000:
        # small input: encode + sort in-process (no Ray job) — the
        # command-surface / fixture path. The distributed sort below is
        # the corpus-scale path.
        tbl = pa.concat_tables(
            pq.read_table(f, columns=[docid_column, column]) for f in source_files
        )
        enc = _encode(tbl)
        order = np.argsort(enc.column("zkey").to_numpy(), kind="stable")
        pq.write_table(
            enc.take(pa.array(order)),
            os.path.join(out_dir, "part-0.parquet"),
            row_group_size=rows_per_group,
        )
    else:
        import ray.data

        ds = ray.data.read_parquet(source_files, columns=[docid_column, column])
        ds = ds.map_batches(_encode, batch_format="pyarrow")
        ds = ds.sort("zkey")
        ds.write_parquet(
            out_dir,
            min_rows_per_file=1 << 20,
            row_group_size=rows_per_group,
        )
    n = 0
    files = sorted(
        f for f in os.listdir(out_dir) if f.endswith(".parquet")
    )
    for f in files:
        n += pq.ParquetFile(os.path.join(out_dir, f)).metadata.num_rows
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump({"column": column, "n_rows": n, "files": files}, fh)


# ------------------------------------------------------------------ query

class GeoIndexReader:
    """Mesh-cover range scans over the zkey-sorted index with row-group
    pruning; every read is counted so tests can assert the index path
    touches ≪ the corpus (``bytes_read`` / ``bytes_total``)."""

    def __init__(self, index_dir: str):
        with open(os.path.join(index_dir, "meta.json")) as fh:
            self.meta = json.load(fh)
        self._files = [os.path.join(index_dir, f) for f in self.meta["files"]]
        self._pf = [pq.ParquetFile(f) for f in self._files]
        # row-group zkey spans: metadata only, no data read
        self._spans: list[tuple[int, int, int, int]] = []  # (file, rg, lo, hi)
        self.bytes_total = 0
        for fi, pf in enumerate(self._pf):
            md = pf.metadata
            zi = md.schema.to_arrow_schema().get_field_index("zkey")
            for rg in range(md.num_row_groups):
                g = md.row_group(rg)
                st = g.column(zi).statistics
                self._spans.append((fi, rg, int(st.min), int(st.max)))
                self.bytes_total += g.total_byte_size
        self.bytes_read = 0

    def _candidates(self, ranges: list[tuple[int, int]]) -> pa.Table | None:
        """Read only row groups whose zkey span intersects the cover.
        ``ranges`` is sorted and disjoint; each row-group span is tested
        with one binary search (spans need not be globally ordered)."""
        if not ranges:
            return None
        r_lo = np.array([r[0] for r in ranges], np.uint64)
        r_hi = np.array([r[1] for r in ranges], np.uint64)
        hit: list[tuple[int, int]] = []
        for fi, rg, lo, hi in self._spans:
            # first range whose hi >= span.lo; intersects iff its lo <= span.hi
            i = int(np.searchsorted(r_hi, np.uint64(lo), side="left"))
            if i < len(ranges) and int(r_lo[i]) <= hi:
                hit.append((fi, rg))
        if not hit:
            return None
        tables = []
        for fi, grp in _group_by_file(hit):
            pf = self._pf[fi]
            tables.append(pf.read_row_groups(grp))
            for rg in grp:
                self.bytes_read += pf.metadata.row_group(rg).total_byte_size
        return pa.concat_tables(tables)

    def search_rectangle(self, top_left, bottom_right) -> np.ndarray:
        """docids inside [top_left, bottom_right] (inclusive), longitude
        wrap split into two covers (GRN_GEO_LONGITUDE_IS_WRAPPED,
        lib/geo.c:2151-2178); candidates verified exactly."""
        from .geo import validate_rectangle

        tl_lat, tl_lon = (int(v[0]) for v in parse_geopoint(top_left))
        br_lat, br_lon = (int(v[0]) for v in parse_geopoint(bottom_right))
        validate_rectangle(tl_lat, tl_lon, br_lat, br_lon)
        lat_lo, lat_hi = min(br_lat, tl_lat), max(br_lat, tl_lat)
        if tl_lon > br_lon:  # crosses the antimeridian
            lon_boxes = [(tl_lon, LON_MAX), (-LON_MAX, br_lon)]
        else:
            lon_boxes = [(tl_lon, br_lon)]
        ranges: list[tuple[int, int]] = []
        for lo, hi in lon_boxes:
            ranges.extend(zranges(lat_lo, lat_hi, lo, hi))
        ranges.sort()
        cand = self._candidates(ranges)
        if cand is None:
            return np.empty(0, np.uint32)
        lat = cand.column("lat").to_numpy()
        lon = cand.column("lon").to_numpy()
        ok_lat = (lat >= lat_lo) & (lat <= lat_hi)
        if tl_lon > br_lon:
            ok_lon = (lon >= tl_lon) | (lon <= br_lon)
        else:
            ok_lon = (lon >= tl_lon) & (lon <= br_lon)
        docids = cand.column("docid").to_numpy()[ok_lat & ok_lon]
        return np.sort(docids).astype(np.uint32)

    def search_circle(self, center, radius_m, approx: str = "rectangle") -> np.ndarray:
        """docids within radius of center: bounding-rectangle cover +
        exact distance verify (grn_geo_select_in_circle's mesh walk +
        distance check, lib/geo.c:731-830). ``radius_m`` is meters or a
        rim GeoPoint."""
        from .geo import geo_radius

        radius_m = geo_radius(center, radius_m, approx)
        c_lat, c_lon = (int(v[0]) for v in parse_geopoint(center))
        # conservative bounding box in ms-of-degree: radius → angular
        # spans; latitude scale is ~111.1 km/deg, longitude shrinks by
        # cos(lat) (guard against poles)
        m_per_deg = 2 * np.pi * 6378137.0 / 360.0
        dlat = int(radius_m / m_per_deg * GEO_RESOLUTION) + 2
        coslat = max(0.01, float(np.cos(c_lat * np.pi / (GEO_RESOLUTION * 180.0))))
        dlon = int(radius_m / (m_per_deg * coslat) * GEO_RESOLUTION) + 2
        lat_lo = max(-LAT_MAX, c_lat - dlat)
        lat_hi = min(LAT_MAX, c_lat + dlat)
        lon_lo, lon_hi = c_lon - dlon, c_lon + dlon
        if lon_lo < -LON_MAX or lon_hi > LON_MAX:
            lon_boxes = [(-LON_MAX, LON_MAX)] if dlon >= LON_MAX else [
                ((lon_lo + 2 * LON_MAX) if lon_lo < -LON_MAX else lon_lo, LON_MAX),
                (-LON_MAX, (lon_hi - 2 * LON_MAX) if lon_hi > LON_MAX else lon_hi),
            ]
        else:
            lon_boxes = [(lon_lo, lon_hi)]
        ranges: list[tuple[int, int]] = []
        for lo, hi in lon_boxes:
            ranges.extend(zranges(lat_lo, lat_hi, lo, hi))
        ranges.sort()
        cand = self._candidates(ranges)
        if cand is None:
            return np.empty(0, np.uint32)
        pts = [f"{la}x{lo}" for la, lo in
               zip(cand.column("lat").to_pylist(), cand.column("lon").to_pylist())]
        ok = geo_in_circle(pts, center, radius_m, approx)
        docids = cand.column("docid").to_numpy()[ok]
        return np.sort(docids).astype(np.uint32)


def _group_by_file(hits: list[tuple[int, int]]) -> list[tuple[int, list[int]]]:
    out: dict[int, list[int]] = {}
    for fi, rg in hits:
        out.setdefault(fi, []).append(rg)
    return sorted(out.items())


_READERS = BoundedCache(max_items=8)        # index dir -> reader at its stamp


def open_geo_index(index_dir: str) -> GeoIndexReader:
    """The process's reader of the geo index as it is on disk now (a
    rebuild rewrites ``meta.json``, which opens a new one)."""
    stamp = file_stamp(os.path.join(index_dir, "meta.json"))
    return _READERS.get_or_load(index_dir, GeoIndexReader, stamp=stamp)
