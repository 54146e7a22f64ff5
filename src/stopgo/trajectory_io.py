"""Trajectory dataset ingestion, leader-follower pairing and serialization.

Raw vehicle trajectory exports (NGSIM-style CSV) are parsed into a
TrajectoryTable: one numpy array per column, one entry per vehicle-frame row.
build_trajectories keeps each vehicle's longest gap-free run, sampled at a
fixed 0.1 s interval, as one block of a table in (vehicle, frame) order.
Follower vehicles are paired with the vehicle ahead of them over windows
where the leader link is unambiguous, which is what the car-following
calibration consumes.  pair_leader_follower returns each window as a
pairs.json entry (leader_id, follower_id, overlap_start, overlap_len), and
pairs_from_index finds each entry's window again as two row ranges of the
grouped table, the form calibration reads: nothing is copied out of it.

Stages store tables, the simulated platoon among them, as uncompressed .npz
files, one array per column keyed by field name (np.load(path) gives them),
which read back bit for bit.  An NGSIM file is parsed by one np.loadtxt
call on the open stream; a second, line-filtered pass runs only when that
call fails.  Pairing tests every follower frame in numpy and loops only
over windows.
"""
from __future__ import annotations

import csv
import itertools
import math
import tokenize
import warnings
import zipfile
from dataclasses import dataclass, fields

import numpy as np

from .errors import DataError

DT = 0.1  # s between consecutive frames in the source datasets
FEET_TO_METERS = 0.3048
MIN_CALIBRATION_SAMPLES = 600  # shorter pairs are flagged, not dropped

# Source column names, matched case-insensitively, in TrajectoryTable order.
_REQUIRED_COLUMNS = (
    "vehicle_id",
    "frame_id",
    "local_y",
    "v_vel",
    "v_acc",
    "lane_id",
    "preceding",
    "v_length",
)

_INT_COLUMNS = frozenset({"vehicle_id", "frame_id", "lane_id", "preceding_id"})
_EXACT_INT = 2.0**53  # integer columns must hold exactly in a float64


@dataclass(eq=False)
class TrajectoryTable:
    """Vehicle-frame samples of one trajectory file, one numpy array per column.

    Every column has one entry per row, so len() is the row count.  The
    integer columns are int64 and the others float64, always in meter units.
    This is the only in-memory form of a trajectory file: the readers return
    it, write_canonical_csv stores it, and build_trajectories returns the
    grouped form that pairing reads: one block of consecutive frames per vehicle.
    """

    vehicle_id: np.ndarray
    frame_id: np.ndarray
    local_y: np.ndarray  # m, longitudinal position
    speed: np.ndarray  # m/s
    accel: np.ndarray  # m/s^2
    lane_id: np.ndarray
    preceding_id: np.ndarray  # 0 when no vehicle ahead
    vehicle_length: np.ndarray  # m

    def __len__(self) -> int:
        return len(self.vehicle_id)


@dataclass
class Trajectory:
    """Contiguous kinematic series for one vehicle.

    Frames run start_frame, start_frame+1, ... with spacing dt seconds.
    """

    start_frame: int
    positions: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray
    dt: float = DT

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.speeds = np.asarray(self.speeds, dtype=float)
        self.accels = np.asarray(self.accels, dtype=float)
        if not (len(self.positions) == len(self.speeds) == len(self.accels)):
            raise ValueError("kinematic series must share a length")

    @property
    def n(self) -> int:
        return len(self.positions)


def _header(fh) -> list[str]:
    """The normalized column names of fh's first line."""
    line = fh.readline()
    if not line:
        raise DataError("no header row")
    return [h.strip().lower() for h in next(csv.reader([line]), [])]


def _is_blank(line: str) -> bool:
    return not line.replace(",", "").strip()


def _valid(cell: str, integral: bool) -> bool:
    try:
        v = float(cell)
    except ValueError:
        return False
    return math.isfinite(v) and (not integral or (v.is_integer() and abs(v) < _EXACT_INT))


def _loadtxt(rows, usecols) -> np.ndarray:
    """np.loadtxt of the CSV rows, empty lines skipped; no rows give 0 rows."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(rows, delimiter=",", quotechar='"', comments=None, usecols=usecols, ndmin=2)


def _read_table(fh, usecols, names, scale: float = 1.0) -> TrajectoryTable:
    """Parse the CSV rows left in fh into a table, file column usecols[j]
    (called names[j]) into table column j, positional columns times scale.

    Rows of only blanks and commas are skipped.  A field that does not parse,
    is not finite, or is not an exact integer in an integer column raises a
    DataError whose message names the first such field by 1-based data row
    (skipped rows counted) and column.

    The stream itself goes to one np.loadtxt call, which skips empty lines.
    Only if that call fails is the stream parsed again from the same place,
    rows of blanks and commas filtered out line by line.
    """
    start = fh.tell()
    integral = [f.name in _INT_COLUMNS for f in fields(TrajectoryTable)]
    try:
        try:
            block = _loadtxt(fh, usecols)
        except ValueError:  # a row of blanks and commas, or a bad field
            fh.seek(start)
            block = _loadtxt(itertools.filterfalse(_is_blank, fh), usecols)
    except ValueError as err:
        failure = str(err)
    else:
        if not len(block):
            raise DataError("no data rows")
        ints = block[:, integral]
        if np.isfinite(block).all() and np.all((np.trunc(ints) == ints) & (abs(ints) < _EXACT_INT)):
            return TrajectoryTable(*(
                block[:, j].astype(np.int64) if is_int else block[:, j] * scale
                for j, is_int in enumerate(integral)
            ))
        failure = "a field is not finite or not an integer"
    # name the first bad field
    fh.seek(start)
    for row_no, line in enumerate(fh, start=1):
        if _is_blank(line):
            continue
        cells = next(csv.reader([line]))
        for idx, name, is_int in zip(usecols, names, integral):
            if idx >= len(cells) or not _valid(cells[idx], is_int):
                raise DataError(f"unparsable value in data row {row_no}, column {name}")
    raise DataError(f"unparsable data: {failure}")


def parse_ngsim_csv(fh, units: str = "meters") -> TrajectoryTable:
    """Parse an NGSIM-style CSV export, read from the seekable text stream fh,
    into a table.

    Header names are matched case-insensitively; extra columns are ignored.
    With units="feet" the positional quantities are converted to meters.

    Raises:
        ValueError: units is neither "meters" nor "feet".
        DataError: no header row, a required column missing, no data rows, undecodable bytes,
            or a field that does not parse; the message names the row and column (see _read_table).
    """
    if units not in ("meters", "feet"):
        raise ValueError("units must be 'meters' or 'feet'")
    scale = FEET_TO_METERS if units == "feet" else 1.0

    try:
        col = {h: i for i, h in enumerate(_header(fh))}
        for name in _REQUIRED_COLUMNS:
            if name not in col:
                raise DataError(f"required column missing: {name}")
        return _read_table(fh, [col[name] for name in _REQUIRED_COLUMNS], _REQUIRED_COLUMNS, scale)
    except UnicodeDecodeError as err:
        raise DataError(f"{getattr(fh, 'name', 'input')} is not {err.encoding} text: {err.reason}") from None


_TABLE_DTYPES = {f.name: np.dtype("i8" if f.name in _INT_COLUMNS else "f8") for f in fields(TrajectoryTable)}


def write_canonical_csv(records: TrajectoryTable, path) -> None:
    """Store a table as an uncompressed .npz of its columns by field name, its
    bytes set by the columns alone (zip entries carry a fixed 1980 date).
    ingest, smooth and simulate write their tables so.  The name stays while
    perfbench/tracer.py wraps it, until ROADMAP Direction 22."""
    np.savez(path, **{name: getattr(records, name) for name in _TABLE_DTYPES})


def read_canonical_csv(path) -> TrajectoryTable:
    """The table file at path, bit for bit as write_canonical_csv stored it (the
    name stays until Direction 22).  NpzFile reads it: np.load would return a
    .npy file's array or unpickle.

    Raises:
        DataError naming the file: not a readable zip of .npy members without
        pickles, a column missing, extra, not 1-D, not of its _TABLE_DTYPES
        dtype or not of vehicle_id's length, no rows, or a nonfinite float.
    """
    try:
        with np.lib.npyio.NpzFile(path, allow_pickle=False) as npz:
            columns = {name: npz[name] for name in npz.files}
    except (zipfile.BadZipFile, NotImplementedError, RuntimeError, OSError,  # a bad or unsupported archive
            ValueError, tokenize.TokenError) as err:  # a member that is no .npy array, or a pickle
        raise DataError(f"{path}: not a table file: {err}") from None
    if columns.keys() != _TABLE_DTYPES.keys():
        raise DataError(f"{path}: holds columns {sorted(columns)}, not {list(_TABLE_DTYPES)}")
    n = np.size(columns["vehicle_id"])
    for name, dtype in _TABLE_DTYPES.items():
        col = columns[name]
        if not (isinstance(col, np.ndarray) and col.dtype == dtype and col.shape == (n,)):
            raise DataError(f"{path}: column {name} is not a 1-D {dtype} array of {n} rows")
        if dtype.kind == "f" and not np.isfinite(col).all():
            raise DataError(f"{path}: column {name} is not finite at row {np.argmin(np.isfinite(col))}")
    if not n:
        raise DataError(f"{path}: no data rows")
    return TrajectoryTable(**columns)


def build_trajectories(records: TrajectoryTable) -> tuple[TrajectoryTable, int]:
    """Keep each vehicle's longest gap-free run of a table.

    Returns the kept rows as a table in (vehicle, frame) order and the count
    of discarded fragments (runs separated by missing frames).  Of runs of
    equal length the earliest is kept, and each kept row carries its run's
    first vehicle length, so grouping the result again changes nothing.
    A vehicle with a frame twice raises a DataError naming the vehicle and frame.
    """
    order = np.lexsort((records.frame_id, records.vehicle_id))
    vid = records.vehicle_id[order]
    frame = records.frame_id[order]
    same_vehicle = vid[1:] == vid[:-1]
    dup = np.flatnonzero(same_vehicle & (frame[1:] == frame[:-1]))
    if dup.size:
        raise DataError(f"vehicle {vid[dup[0]]} has duplicate frame {frame[dup[0]]}")

    # runs of consecutive frames; per vehicle the longest, the earliest on ties
    is_start = np.ones(len(vid), dtype=bool)
    is_start[1:] = ~same_vehicle | (frame[1:] != frame[:-1] + 1)
    starts = np.flatnonzero(is_start)
    lengths = np.diff(np.append(starts, len(vid)))
    by_vehicle = np.lexsort((-lengths, vid[starts]))  # stable: ties keep frame order
    kept = by_vehicle[np.unique(vid[starts[by_vehicle]], return_index=True)[1]]

    keep = np.zeros(len(starts), dtype=bool)
    keep[kept] = True
    rows = order[np.repeat(keep, lengths)]
    columns = {f.name: getattr(records, f.name)[rows] for f in fields(TrajectoryTable)}
    columns["vehicle_length"] = np.repeat(records.vehicle_length[order[starts[kept]]], lengths[kept])
    return TrajectoryTable(**columns), len(starts) - len(kept)


def vehicle_starts(table: TrajectoryTable) -> np.ndarray:
    """The first row of each vehicle's block in a table build_trajectories returned."""
    return np.flatnonzero(np.r_[True, table.vehicle_id[1:] != table.vehicle_id[:-1]])


def pair_leader_follower(
    table: TrajectoryTable,
    lane_filter: int | None = None,
    min_samples: int = MIN_CALIBRATION_SAMPLES,
):
    """Find leader-follower windows: maximal unambiguous shared windows of a
    table build_trajectories returned.

    A window requires the follower's leader link to stay constant, the leader
    trajectory to cover every frame, and both vehicles to occupy the same lane.
    Windows with a nonpositive headway anywhere are rejected into the
    diagnostics instead of being returned.  Windows shorter than min_samples
    are flagged in the diagnostics but still returned.

    Every follower row is tested at once on the table's columns; Python runs
    once per window.

    Returns:
        (windows, diagnostics) as pairs.json holds them, every number a Python
        int: windows sorted by descending overlap_len, then leader and follower
        id; diagnostics' rejected_nonpositive lists [leader, follower, first
        nonpositive frame] and short_pairs [leader, follower, overlap_len].
    """
    windows = []
    diagnostics = {"rejected_nonpositive": [], "short_pairs": []}
    if not len(table):
        return windows, diagnostics
    vid, frame, pre, lane = table.vehicle_id, table.frame_id, table.preceding_id, table.lane_id
    offset = vehicle_starts(table)
    ids = vid[offset]
    ns = np.diff(np.append(offset, len(table)))
    first = frame[offset]

    # the leader link is valid, the leader covers the frame and is in its lane
    lead = np.minimum(np.searchsorted(ids, pre), len(ids) - 1)
    usable = (pre != 0) & (pre != vid) & (ids[lead] == pre)
    usable &= (first[lead] <= frame) & (frame < first[lead] + ns[lead])
    lead_row = np.where(usable, offset[lead] + frame - first[lead], 0)
    usable &= lane[lead_row] == lane
    if lane_filter is not None:
        usable &= lane == lane_filter

    # windows: maximal runs of one follower and one leader link over usable rows
    edge = np.ones(len(table) + 1, dtype=bool)
    edge[1:-1] = (vid[1:] != vid[:-1]) | (pre[1:] != pre[:-1]) | (usable[1:] != usable[:-1])
    bounds = np.flatnonzero(edge)
    runs = usable[bounds[:-1]]
    y = table.local_y
    for s, e in zip(bounds[:-1][runs].tolist(), bounds[1:][runs].tolist()):
        ls = int(lead_row[s])
        lid, fid, start, length = int(vid[ls]), int(vid[s]), int(frame[s]), e - s
        head = y[ls : ls + length] - y[s:e]
        if np.any(head <= 0):
            diagnostics["rejected_nonpositive"].append([lid, fid, start + int(np.argmax(head <= 0))])
        else:
            windows.append({"leader_id": lid, "follower_id": fid,
                            "overlap_start": start, "overlap_len": length})
            if length < min_samples:
                diagnostics["short_pairs"].append([lid, fid, length])

    windows.sort(key=lambda w: (-w["overlap_len"], w["leader_id"], w["follower_id"]))
    return windows, diagnostics


def pairs_from_index(index, table: TrajectoryTable) -> np.ndarray:
    """Each pairs.json entry's window as rows of a table build_trajectories
    returned: a (P, 3) int64 array of (leader_row, follower_row, length),
    each vehicle's window being the length rows from its row.

    Raises:
        DataError: an entry's overlap_len is not positive, it names a vehicle
            the table does not hold, its window lies outside either vehicle's
            frames, or its headway is nonpositive at some frame.
    """
    pairs = []
    for entry in index:
        lid, fid = entry["leader_id"], entry["follower_id"]
        start, length = entry["overlap_start"], entry["overlap_len"]
        window = f"pair of leader {lid} and follower {fid}, {length} frames from frame {start}"
        if length <= 0:
            raise DataError(f"{window}: overlap_len must be positive")
        rows = []
        for vid in (lid, fid):
            lo, hi = table.vehicle_id.searchsorted(vid), table.vehicle_id.searchsorted(vid, "right")
            if lo == hi:
                raise DataError(f"{window}: vehicle {vid} is not in the trajectory file")
            first, last = int(table.frame_id[lo]), int(table.frame_id[hi - 1])
            if not (first <= start and start + length - 1 <= last):
                raise DataError(f"{window}: vehicle {vid} has only frames {first}-{last}")
            rows.append(int(lo) + start - first)
        head = table.local_y[rows[0] : rows[0] + length] - table.local_y[rows[1] : rows[1] + length]
        if np.any(head <= 0):
            raise DataError(f"{window}: pair ({lid}, {fid}) has nonpositive headway "
                            f"at frame {start + int(np.argmax(head <= 0))}")
        pairs.append((*rows, length))
    return np.array(pairs, dtype=np.int64).reshape(-1, 3)
