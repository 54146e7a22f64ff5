"""Trajectory dataset ingestion, leader-follower pairing and serialization.

Raw vehicle trajectory exports (NGSIM-style CSV) are parsed into a
TrajectoryTable: one numpy array per column, one entry per vehicle-frame row.
build_trajectories regroups a table into per-vehicle kinematic series sampled
at a fixed 0.1 s interval.  Follower vehicles are paired with the vehicle
ahead of them over windows where the leader link is unambiguous, which is
what the car-following calibration consumes; a pair's window is stored as an
index entry (pair_index) and sliced back out of the trajectories
(pairs_from_index).  Synthetic pairs, simulated from the driver model, are
made in carfollowing (generate_synthetic_pair).

Tables are written and read as the canonical CSV one column at a time, with
no Python code run per row.  A file is parsed by one np.loadtxt call on the
open stream; a second, line-filtered pass runs only when that call fails.
Every float is written as its repr, the shortest decimal that parses back to
the same double, so a written table reads back bit for bit and rewriting it
reproduces the file byte for byte; repr runs once per distinct value.
Pairing tests every follower frame in numpy and loops only over windows.
"""
from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError, DuplicateFrame, UnparsableField

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

CANONICAL_HEADER = [
    "vehicle_id",
    "frame_id",
    "t",
    "local_y_m",
    "v_mps",
    "a_mps2",
    "lane_id",
    "preceding_id",
    "length_m",
]

_INT_COLUMNS = frozenset({"vehicle_id", "frame_id", "lane_id", "preceding_id"})
_EXACT_INT = 2.0**53  # integer columns must hold exactly in a float64
_WRITE_CHUNK_ROWS = 4096  # about 1 MB of Python objects for 9 columns


@dataclass(eq=False)
class TrajectoryTable:
    """Vehicle-frame samples of one trajectory file, one numpy array per column.

    Every column has one entry per row, so len() is the row count.  The
    integer columns are int64 and the others float64, always in meter units.
    This is the only in-memory form of a trajectory file: the readers return
    it, write_canonical_csv writes it and build_trajectories groups it.
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

    vehicle_id: int
    start_frame: int
    positions: np.ndarray
    speeds: np.ndarray
    accels: np.ndarray
    vehicle_length: float = 0.0
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

    @property
    def end_frame(self) -> int:
        # inclusive
        return self.start_frame + self.n - 1

    def times(self) -> np.ndarray:
        return (self.start_frame + np.arange(self.n)) * self.dt

    def slice(self, start_frame: int, length: int) -> "Trajectory":
        i0 = start_frame - self.start_frame
        if i0 < 0 or i0 + length > self.n:
            raise ValueError("slice outside trajectory")
        return Trajectory(
            self.vehicle_id,
            start_frame,
            self.positions[i0 : i0 + length].copy(),
            self.speeds[i0 : i0 + length].copy(),
            self.accels[i0 : i0 + length].copy(),
            self.vehicle_length,
            self.dt,
        )


@dataclass
class TrajectorySet:
    """Trajectories plus the frame-aligned lane/leader links needed for pairing."""

    trajectories: dict[int, Trajectory]
    lanes: dict[int, np.ndarray]  # int lane id per frame of the trajectory
    preceding: dict[int, np.ndarray]  # leader vehicle id per frame, 0 = none
    fragments_discarded: int = 0


@dataclass
class VehiclePair:
    """A follower and its leader trimmed to their shared window."""

    leader: Trajectory
    follower: Trajectory
    overlap_start: int
    overlap_len: int

    def __post_init__(self):
        for tr in (self.leader, self.follower):
            if tr.start_frame != self.overlap_start or tr.n != self.overlap_len:
                raise ValueError("pair trajectories must be trimmed to the window")
        if np.any(self.headways() <= 0):
            raise DataError(
                f"pair ({self.leader.vehicle_id}, {self.follower.vehicle_id}) "
                "has nonpositive headway"
            )

    def headways(self) -> np.ndarray:
        return self.leader.positions - self.follower.positions


@dataclass
class PairDiagnostics:
    rejected_nonpositive: list = field(default_factory=list)  # (leader, follower, frame)
    short_pairs: list = field(default_factory=list)  # (leader, follower, overlap_len)


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
    is not finite, or is not an exact integer in an integer column raises
    UnparsableField, naming the first such field by 1-based data row (skipped
    rows counted) and column.

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
                raise UnparsableField(row_no, name)
    raise DataError(f"unparsable data: {failure}")


def parse_ngsim_csv(fh, units: str = "meters") -> TrajectoryTable:
    """Parse an NGSIM-style CSV export, read from the seekable text stream fh,
    into a table.

    Header names are matched case-insensitively; extra columns are ignored.
    With units="feet" the positional quantities are converted to meters.

    Raises:
        ValueError: units is neither "meters" nor "feet".
        UnparsableField: a field does not parse (see _read_table).
        DataError: no header row, a required column missing, or no data rows.
    """
    if units not in ("meters", "feet"):
        raise ValueError("units must be 'meters' or 'feet'")
    scale = FEET_TO_METERS if units == "feet" else 1.0

    col = {h: i for i, h in enumerate(_header(fh))}
    for name in _REQUIRED_COLUMNS:
        if name not in col:
            raise DataError(f"required column missing: {name}")
    return _read_table(fh, [col[name] for name in _REQUIRED_COLUMNS], _REQUIRED_COLUMNS, scale)


def _reprs(column: np.ndarray) -> list[str]:
    """The repr of every value of a numpy column, repr called once per
    distinct value.  Floats are told apart by bit pattern, so -0.0 and 0.0
    keep their own texts."""
    bits = column.view(f"u{column.itemsize}") if column.dtype.kind == "f" else column
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(column.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


def write_columns(path, header, columns) -> None:
    """Write equal-length numpy columns, one per header name, as CSV rows,
    every value as its repr.

    Rows are converted _WRITE_CHUNK_ROWS at a time, so the Python objects
    alive at once stay few on long files; each chunk is joined into one
    string and written in one call.  Lines end in CRLF, as csv.writer's
    default dialect writes them.

    Raises:
        ValueError: the columns differ in length or do not match the header.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    k = len(columns)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, _WRITE_CHUNK_ROWS):
            rows = min(_WRITE_CHUNK_ROWS, n - lo)
            parts = [","] * (2 * k * rows)  # value, separator, value, ... per row
            for j, c in enumerate(columns):
                parts[2 * j :: 2 * k] = _reprs(c[lo : lo + rows])
            parts[2 * k - 1 :: 2 * k] = ["\r\n"] * rows
            fh.write("".join(parts))


def write_canonical_csv(records: TrajectoryTable, path) -> None:
    """Write a table in the canonical meter-unit CSV schema."""
    write_columns(path, CANONICAL_HEADER, [
        records.vehicle_id,
        records.frame_id,
        records.frame_id * DT,
        records.local_y,
        records.speed,
        records.accel,
        records.lane_id,
        records.preceding_id,
        records.vehicle_length,
    ])


def read_canonical_csv(path) -> TrajectoryTable:
    """Read back the canonical CSV written by write_canonical_csv.

    The t column is derived from frame_id, so it is not read.
    """
    with open(path) as fh:
        if _header(fh) != CANONICAL_HEADER:
            raise DataError("required column missing: canonical header mismatch")
        usecols = [i for i, name in enumerate(CANONICAL_HEADER) if name != "t"]
        return _read_table(fh, usecols, [CANONICAL_HEADER[i] for i in usecols])


def table_from_set(tset: TrajectorySet) -> TrajectoryTable:
    """Flatten a trajectory set into a table, vehicles in ascending id order."""
    vids = sorted(tset.trajectories)
    trs = [tset.trajectories[v] for v in vids]
    lengths = [tr.n for tr in trs]
    return TrajectoryTable(
        vehicle_id=np.repeat(np.array(vids, dtype=np.int64), lengths),
        frame_id=np.concatenate([tr.start_frame + np.arange(tr.n) for tr in trs]),
        local_y=np.concatenate([tr.positions for tr in trs]),
        speed=np.concatenate([tr.speeds for tr in trs]),
        accel=np.concatenate([tr.accels for tr in trs]),
        lane_id=np.concatenate([tset.lanes[v] for v in vids]),
        preceding_id=np.concatenate([tset.preceding[v] for v in vids]),
        vehicle_length=np.repeat([tr.vehicle_length for tr in trs], lengths),
    )


def build_trajectories(records: TrajectoryTable) -> TrajectorySet:
    """Group a table by vehicle and keep each vehicle's longest gap-free run.

    Duplicate frames for a vehicle are an error.  Shorter fragments (runs
    separated by missing frames) are discarded; the count of discarded
    fragments is reported on the returned set.  Of runs of equal length the
    earliest is kept, and a kept run's vehicle length is its first row's.
    """
    order = np.lexsort((records.frame_id, records.vehicle_id))
    vid = records.vehicle_id[order]
    frame = records.frame_id[order]
    same_vehicle = vid[1:] == vid[:-1]
    dup = np.flatnonzero(same_vehicle & (frame[1:] == frame[:-1]))
    if dup.size:
        raise DuplicateFrame(int(vid[dup[0]]), int(frame[dup[0]]))

    # runs of consecutive frames; per vehicle the longest, the earliest on ties
    is_start = np.ones(len(vid), dtype=bool)
    is_start[1:] = ~same_vehicle | (frame[1:] != frame[:-1] + 1)
    starts = np.flatnonzero(is_start)
    lengths = np.diff(np.append(starts, len(vid)))
    by_vehicle = np.lexsort((-lengths, vid[starts]))  # stable: ties keep frame order
    kept = by_vehicle[np.unique(vid[starts[by_vehicle]], return_index=True)[1]]

    trajectories, lanes, preceding = {}, {}, {}
    for s, e in zip(starts[kept].tolist(), (starts[kept] + lengths[kept]).tolist()):
        rows = order[s:e]
        key = int(vid[s])
        trajectories[key] = Trajectory(
            vehicle_id=key,
            start_frame=int(frame[s]),
            positions=records.local_y[rows],
            speeds=records.speed[rows],
            accels=records.accel[rows],
            vehicle_length=float(records.vehicle_length[rows[0]]),
        )
        lanes[key] = records.lane_id[rows]
        preceding[key] = records.preceding_id[rows]
    return TrajectorySet(trajectories, lanes, preceding, len(starts) - len(kept))


def pair_leader_follower(
    tset: TrajectorySet,
    lane_filter: int | None = None,
    min_samples: int = MIN_CALIBRATION_SAMPLES,
):
    """Extract leader-follower pairs over maximal unambiguous shared windows.

    A window requires the follower's leader link to stay constant, the leader
    trajectory to cover every frame, and both vehicles to occupy the same lane.
    Pairs with a nonpositive headway anywhere in the window are rejected into
    the diagnostics instead of being returned.  Pairs shorter than min_samples
    are flagged in the diagnostics but still returned.

    Every follower frame is tested at once over the flattened set; Python
    runs once per window.

    Returns:
        (pairs sorted by descending overlap length, PairDiagnostics)
    """
    pairs = []
    diag = PairDiagnostics()
    vids = sorted(tset.trajectories)
    if not vids:
        return pairs, diag
    trs = [tset.trajectories[v] for v in vids]
    ns = np.array([tr.n for tr in trs])
    first = np.array([tr.start_frame for tr in trs])
    offset = np.cumsum(ns) - ns  # row of each vehicle's first frame
    owner = np.repeat(np.arange(len(vids)), ns)
    frame = first[owner] + np.arange(len(owner)) - offset[owner]
    pre = np.concatenate([tset.preceding[v] for v in vids])
    lane = np.concatenate([tset.lanes[v] for v in vids])

    # the leader link is valid, the leader covers the frame and is in its lane
    ids = np.array(vids, dtype=np.int64)
    lead = np.minimum(np.searchsorted(ids, pre), len(ids) - 1)
    usable = (pre != 0) & (pre != ids[owner]) & (ids[lead] == pre)
    usable &= (first[lead] <= frame) & (frame < first[lead] + ns[lead])
    lead_row = np.where(usable, offset[lead] + frame - first[lead], 0)
    usable &= lane[lead_row] == lane
    if lane_filter is not None:
        usable &= lane == lane_filter

    # windows: maximal runs of one follower and one leader link over usable rows
    edge = np.ones(len(owner) + 1, dtype=bool)
    edge[1:-1] = (owner[1:] != owner[:-1]) | (pre[1:] != pre[:-1]) | (usable[1:] != usable[:-1])
    bounds = np.flatnonzero(edge)
    runs = usable[bounds[:-1]]
    for s, e in zip(bounds[:-1][runs].tolist(), bounds[1:][runs].tolist()):
        i = owner[s]
        fid, lid = vids[i], int(pre[s])
        start_frame, length = int(frame[s]), e - s
        leader = tset.trajectories[lid].slice(start_frame, length)
        follower = trs[i].slice(start_frame, length)
        head = leader.positions - follower.positions
        if np.any(head <= 0):
            bad = int(np.argmax(head <= 0))
            diag.rejected_nonpositive.append((lid, fid, start_frame + bad))
        else:
            pairs.append(VehiclePair(leader, follower, start_frame, length))
            if length < min_samples:
                diag.short_pairs.append((lid, fid, length))

    pairs.sort(key=lambda p: (-p.overlap_len, p.leader.vehicle_id, p.follower.vehicle_id))
    return pairs, diag


def pair_index(pairs) -> list[dict]:
    """JSON-ready index of pairs; pairs_from_index rebuilds them from it."""
    return [
        {
            "leader_id": p.leader.vehicle_id,
            "follower_id": p.follower.vehicle_id,
            "overlap_start": p.overlap_start,
            "overlap_len": p.overlap_len,
        }
        for p in pairs
    ]


def pairs_from_index(index, tset: TrajectorySet) -> list[VehiclePair]:
    """Rebuild pairs by slicing the trajectory set per a stored pair index.

    Raises:
        DataError: an entry names a vehicle the set does not hold, or a
            window outside either vehicle's frames.
    """
    pairs = []
    for entry in index:
        lid, fid = entry["leader_id"], entry["follower_id"]
        start, length = entry["overlap_start"], entry["overlap_len"]
        window = f"pair of leader {lid} and follower {fid}, {length} frames from frame {start}"
        for vid in (lid, fid):
            tr = tset.trajectories.get(vid)
            if tr is None:
                raise DataError(f"{window}: vehicle {vid} is not in the trajectory file")
            if not (length > 0 and tr.start_frame <= start and start + length - 1 <= tr.end_frame):
                raise DataError(f"{window}: vehicle {vid} has only frames {tr.start_frame}-{tr.end_frame}")
        leader, follower = (tset.trajectories[v].slice(start, length) for v in (lid, fid))
        pairs.append(VehiclePair(leader, follower, start, length))
    return pairs

