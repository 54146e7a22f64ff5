"""Trajectory dataset ingestion, leader-follower pairing and serialization.

Raw vehicle trajectory exports (NGSIM-style CSV) are parsed into a
TrajectoryTable: one numpy array per column, one entry per vehicle-frame row.
build_trajectories keeps each vehicle's longest gap-free run, sampled at a
fixed 0.1 s interval, as one block of a table in (vehicle, frame) order.
Follower vehicles are paired with the vehicle ahead of them over windows
where the leader link is unambiguous, which is what the car-following
calibration consumes.  pair_leader_follower returns each window as a
pairs.json entry (leader_id, follower_id, overlap_start, overlap_len), and
pairs_from_index cuts the entries back out of the grouped table as
VehiclePairs, the form calibration reads.

Tables are written and read as the canonical CSV one column at a time, with
no Python code run per row.  A file is parsed by one np.loadtxt call on the
open stream; a second, line-filtered pass runs only when that call fails.
Every value is written as its repr, and a float's repr is the shortest
decimal that parses back to the same double, so a written table reads back
bit for bit and rewriting it reproduces the file byte for byte.  The texts
are laid out by numpy, not by repr: Schubfach (Giulietti, 2020) finds each
float's digits on uint64 arrays, once per distinct value, and repr itself
runs only for zeros, subnormals, inf, nan and the exponent form (below 1e-4
or from 1e16 on).
Pairing tests every follower frame in numpy and loops only over windows.
"""
from __future__ import annotations

import csv
import functools
import itertools
import math
import warnings
from contextlib import contextmanager
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
_WRITE_CHUNK_ROWS = 8192  # rows laid out and written at once: 64 KB per uint64 temporary


@dataclass(eq=False)
class TrajectoryTable:
    """Vehicle-frame samples of one trajectory file, one numpy array per column.

    Every column has one entry per row, so len() is the row count.  The
    integer columns are int64 and the others float64, always in meter units.
    This is the only in-memory form of a trajectory file: the readers return
    it, write_canonical_csv writes it, and build_trajectories returns the
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
class VehiclePair:
    """A follower and its leader over the same frames, the leader ahead at every one."""

    leader: Trajectory
    follower: Trajectory

    def __post_init__(self):
        if (self.leader.start_frame, self.leader.n) != (self.follower.start_frame, self.follower.n):
            raise ValueError("pair trajectories must cover the same frames")
        head = self.headways()
        if np.any(head <= 0):
            raise DataError(
                f"pair ({self.leader.vehicle_id}, {self.follower.vehicle_id}) has nonpositive "
                f"headway at frame {self.leader.start_frame + int(np.argmax(head <= 0))}"
            )

    def headways(self) -> np.ndarray:
        return self.leader.positions - self.follower.positions


def _header(fh) -> list[str]:
    """The normalized column names of fh's first line."""
    line = fh.readline()
    if not line:
        raise DataError("no header row")
    return [h.strip().lower() for h in next(csv.reader([line]), [])]


@contextmanager
def _decoded(fh):
    """Raise a DataError naming fh's file for bytes it cannot decode."""
    try:
        yield
    except UnicodeDecodeError as err:
        raise DataError(f"{getattr(fh, 'name', 'input')} is not {err.encoding} text: {err.reason}") from None


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

    with _decoded(fh):
        col = {h: i for i, h in enumerate(_header(fh))}
        for name in _REQUIRED_COLUMNS:
            if name not in col:
                raise DataError(f"required column missing: {name}")
        return _read_table(fh, [col[name] for name in _REQUIRED_COLUMNS], _REQUIRED_COLUMNS, scale)


# ---------------------------------------------------------------- CSV text
#
# A value's text is laid out as one row of a uint8 matrix: its repr's ASCII
# bytes, with NUL bytes (which no repr holds) as padding anywhere in the row.
# A float64 gets its digits from Schubfach (R. Giulietti, "The Schubfach way
# to render doubles", 2020), run on uint64 arrays: the shortest decimal that
# parses back to the same double and, of those, the nearest to it, which is
# what repr prints.  The names below follow Giulietti's Java code.

_LOW32 = np.uint64(0xFFFFFFFF)
_LOW63 = np.uint64(2**63 - 1)
_U1, _U2, _U10, _U32, _U52, _U63, _U64 = (np.uint64(n) for n in (1, 2, 10, 32, 52, 63, 64))
_P10 = np.uint64(10) ** np.arange(20, dtype=np.uint64)  # 10^0 .. 10^19
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k a double's digits can take
_ZERO, _DOT, _MINUS = 48, 46, 45  # ASCII "0", ".", "-"
_PLACE = np.arange(18, dtype=np.uint8)[:, None]


@functools.cache
def _pow10_halves() -> tuple[np.ndarray, np.ndarray]:
    """For each k in [_K_MIN, _K_MAX], g = floor(10^-k 2^-r) + 1 for the r that
    puts it in [2^125, 2^126], as its 63-bit halves g1, g0 (g = g1 2^63 + g0).

    Built from Python ints on first use, not at import."""
    gs = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10**-k
            shift = p.bit_length() - 126
            gs.append((p >> shift if shift >= 0 else p << -shift) + 1)
        else:  # 10^k is no power of 2, so the quotient stays below 2^126
            p = 10**k
            gs.append((1 << (125 + p.bit_length())) // p + 1)
    return (np.array([g >> 63 for g in gs], dtype=np.uint64),
            np.array([g & (2**63 - 1) for g in gs], dtype=np.uint64))


def _mul(a, b):
    """The 128-bit products a b as (high, low) uint64 words.  numpy has no
    wider integer, so the high word is summed from 32-bit halves."""
    al, ah = a & _LOW32, a >> _U32
    bl, bh = b & _LOW32, b >> _U32
    lh, hl = al * bh, ah * bl
    mid = ((al * bl) >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    return ah * bh + (lh >> _U32) + (hl >> _U32) + (mid >> _U32), a * b


def _offset(words, g, e, up: bool):
    """The words of g cp + g 2^e (up) or g cp - g 2^e, from those of g cp."""
    hi, lo = words
    dh, dl = g >> (_U64 - e), g << e
    if up:
        lo = lo + dl
        return hi + dh + (lo < dl), lo
    return hi - dh - (lo < dl), lo - dl


def _rop(x, y):
    """Giulietti's rop, g cp 2^-127 rounded to odd, from the words x of
    g0 cp and y of g1 cp (g = g1 2^63 + g0)."""
    z = (y[1] >> _U1) + x[0]
    return (y[0] + (z >> _U63)) | (((z & _LOW63) + _LOW63) >> _U63)


def _scaled(bits: np.ndarray):
    """Schubfach's first step on the bit patterns of positive normal doubles
    v: the decimal exponent k and vb, vbl, vbr, four times v 10^-k and the
    ends of the interval of reals that read back as v, rounded to odd."""
    g1t, g0t = _pow10_halves()
    t = bits & np.uint64(2**52 - 1)
    bq = (bits >> _U52).astype(np.int64)
    q = bq - 1075  # v is c 2^q
    c = t | np.uint64(2**52)
    regular = (t != 0) | (bq == 1)  # else c is a power of 2 with a closer lower neighbour
    k = (q * 661_971_961_083 - np.where(regular, 0, 274_743_187_321)) >> 41
    h = (q + ((k * -913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1, g0 = g1t[k - _K_MIN], g0t[k - _K_MIN]
    out = c & _U1  # odd c: the interval is open
    cp = c << (h + _U2)
    x, y = _mul(g0, cp), _mul(g1, cp)
    # the interval's ends: cp + 2^(h+1) and cp - 2^(h+1) (cp - 2^h when not regular)
    up, down = h + _U1, h + regular
    vbr = _rop(_offset(x, g0, up, True), _offset(y, g1, up, True)) - out
    vbl = _rop(_offset(x, g0, down, False), _offset(y, g1, down, False)) + out
    return k, _rop(x, y), vbl, vbr


def _shortest_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach on the bit patterns of positive normal doubles: the shortest
    decimals f 10^k (uint64 f below 10^17, int64 k) that read back as them."""
    k, vb, vbl, vbr = _scaled(bits)
    s = vb >> _U2
    sp = s // _U10 * _U10  # one digit fewer: sp or sp + 10, if only one lies inside
    upin, wpin = vbl <= sp << _U2, (sp + _U10) << _U2 <= vbr
    uin, win = vbl <= s << _U2, (s + _U1) << _U2 <= vbr
    mid = (s << _U2) + _U2  # 4 (s + 1/2): the nearer of s and s + 1
    f = s + ((vb > mid) | ((vb == mid) & (s & _U1 == _U1)))
    f = np.where(uin != win, s + win, f)
    return np.where(upin != wpin, sp + _U10 * wpin, f), k


def _digit_rows(u: np.ndarray, width: int) -> np.ndarray:
    """The last width decimal digits of uint64 values, most significant
    first, one row per place: (width, len(u)) uint8."""
    rows = np.empty((width, len(u)), np.uint8)
    for i in range(width - 1, -1, -1):
        q = u // _U10
        rows[i] = u - q * _U10
        u = q
    return rows


def _text_rows(places: np.ndarray) -> np.ndarray:
    """Text rows from a (place, value) uint8 matrix, places that are NUL for
    every value dropped."""
    return np.ascontiguousarray(places[places.any(axis=1)].T)


def _repr_rows(values: np.ndarray) -> np.ndarray:
    """Text rows of any values, from repr."""
    texts = np.array([repr(v) for v in values.tolist()], dtype=bytes)
    return texts.view(np.uint8).reshape(len(texts), texts.itemsize)


def _with_reprs(rows: np.ndarray, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """rows, with the rows at the indices at replaced by the repr of values."""
    if not len(at):
        return rows
    reprs = _repr_rows(values)
    width = max(rows.shape[1], reprs.shape[1])
    rows = np.pad(rows, ((0, 0), (0, width - rows.shape[1])))
    rows[at] = 0
    rows[at, : reprs.shape[1]] = reprs
    return rows


def _int_rows(values: np.ndarray) -> np.ndarray:
    """Text rows of integers: an optional "-", then the digits."""
    neg = values < 0
    mag = values.astype(np.uint64)
    mag = np.where(neg, -mag, mag)  # |value| in uint64, int64's minimum included
    width = int(_P10.searchsorted(mag.max(initial=0), side="right")) or 1
    digits = _digit_rows(mag, width)
    places = np.empty((width + 1, len(values)), np.uint8)
    places[0] = np.where(neg, _MINUS, 0)
    lead = np.arange(width)[:, None] < width - np.maximum(_P10.searchsorted(mag, side="right"), 1)
    places[1:] = np.where(lead, 0, digits + _ZERO)  # zero prints "0"
    return _text_rows(places)


def _float_rows(x: np.ndarray) -> np.ndarray:
    """Text rows of float64 values, repr's own texts.

    repr writes a finite nonzero double whose decimal point falls after
    digit decpt of its shortest digits (x = 0.d1d2... 10^decpt) in fixed
    point when -4 < decpt <= 16, and in exponent form otherwise.  Fixed point
    is laid out here, one run of equal decpt at a time: x sorted by bit
    pattern, as np.unique gives it, holds few runs.  Zeros, subnormals, inf,
    nan and exponent form, rare in trajectory data, take repr itself."""
    n = len(x)
    bits = x.view(np.uint64)
    mag = bits & _LOW63
    biased = mag >> _U52
    normal = (biased != 0) & (biased != 0x7FF)
    f, k = _shortest_digits(np.where(normal, mag, np.uint64(2**52)))  # 2^52: any normal stands in
    nd = _P10.searchsorted(f, side="right")  # digits of f
    decpt = np.where(normal, nd + k, 99)  # 99: not laid out here
    digits = _digit_rows(f * _P10[17 - nd], 17)  # left-aligned, zero-filled
    # trailing zeros become NUL, but each digit before the point and one after it stays
    last = ((digits != 0) * _PLACE[1:]).max(axis=0)
    chars = (digits + _ZERO) * (_PLACE[:17] < np.maximum(last, decpt + 1))
    places = np.zeros((23, n), np.uint8)
    places[0] = np.where(bits >> _U63 == _U1, _MINUS, 0)
    edge = np.ones(n, dtype=bool)
    edge[1:] = decpt[1:] != decpt[:-1]
    starts = np.flatnonzero(edge)
    for a, b, d in zip(starts.tolist(), [*starts[1:].tolist(), n], decpt[starts].tolist()):
        if 0 < d <= 16:  # ddd.ddd
            places[1 : d + 1, a:b] = chars[:d, a:b]
            places[d + 1, a:b] = _DOT
            places[d + 2 : 19, a:b] = chars[d:, a:b]
        elif -4 < d <= 0:  # 0.000ddd
            places[1, a:b] = _ZERO
            places[2, a:b] = _DOT
            places[3 : 3 - d, a:b] = _ZERO
            places[3 - d : 20 - d, a:b] = chars[:, a:b]
    other = np.flatnonzero((decpt <= -4) | (decpt > 16))
    return _with_reprs(_text_rows(places), other, x[other])


def _texts(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The repr of each distinct value of a numpy column, as rows of ASCII
    bytes padded with NUL anywhere in the row, and the index of each value's
    row.  Floats are told apart by bit pattern, so -0.0 and 0.0 keep their
    own texts."""
    kind = column.dtype.kind
    is_float = kind == "f" and column.itemsize <= 8
    if is_float:
        column = column.astype(np.float64, copy=False).view(np.uint64)
    distinct, inverse = np.unique(column, return_inverse=True)
    if is_float:
        return _float_rows(distinct.view(np.float64)), inverse
    return (_int_rows(distinct) if kind in "iu" else _repr_rows(distinct)), inverse


def write_columns(path, header, columns) -> None:
    """Write equal-length numpy columns, one per header name, as CSV rows,
    every value as its repr, in bytes laid out by numpy.

    A float64's repr is its shortest round-trip decimal, so a written float
    reads back as the same double.  Each column's distinct values are laid
    out once per _WRITE_CHUNK_ROWS rows, so the memory in use does not grow
    with the file.  Each chunk's rows are one uint8 matrix of NUL-padded
    cells and separators, written without its NUL bytes in one call.  Lines
    end in CRLF, as csv.writer's default dialect writes them.

    Raises:
        ValueError: the columns differ in length or do not match the header.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for lo in range(0, n, _WRITE_CHUNK_ROWS):
            texts = [_texts(c[lo : lo + _WRITE_CHUNK_ROWS]) for c in columns]
            width = sum(t.shape[1] + 1 for t, _ in texts) + 1
            lines = np.empty((len(texts[0][1]), width), np.uint8)
            at = 0
            for t, inverse in texts:
                # every index is in range; take in "clip" mode gathers faster than indexing
                lines[:, at : at + t.shape[1]] = t.take(inverse, axis=0, mode="clip")
                lines[:, at + t.shape[1]] = ord(",")
                at += t.shape[1] + 1
            lines[:, -2:] = (ord("\r"), ord("\n"))  # in place of the last ","
            fh.write(lines.tobytes().translate(None, b"\0"))


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
    with open(path) as fh, _decoded(fh):
        if _header(fh) != CANONICAL_HEADER:
            raise DataError(f"{path}: header is not {','.join(CANONICAL_HEADER)}")
        usecols = [i for i, name in enumerate(CANONICAL_HEADER) if name != "t"]
        return _read_table(fh, usecols, [CANONICAL_HEADER[i] for i in usecols])


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


def _trajectory(table: TrajectoryTable, lo: int, hi: int) -> Trajectory:
    """Rows lo to hi of a table build_trajectories returned, one vehicle's
    consecutive frames, as a Trajectory of copied arrays."""
    return Trajectory(
        vehicle_id=int(table.vehicle_id[lo]),
        start_frame=int(table.frame_id[lo]),
        positions=table.local_y[lo:hi].copy(),
        speeds=table.speed[lo:hi].copy(),
        accels=table.accel[lo:hi].copy(),
        vehicle_length=float(table.vehicle_length[lo]),
    )


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
    offset = np.flatnonzero(np.r_[True, vid[1:] != vid[:-1]])  # row of each vehicle's first frame
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


def pairs_from_index(index, table: TrajectoryTable) -> list[VehiclePair]:
    """Cut each pairs.json entry's window out of a table build_trajectories
    returned, as a VehiclePair.

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
        try:
            pairs.append(VehiclePair(*(_trajectory(table, r, r + length) for r in rows)))
        except DataError as err:
            raise DataError(f"{window}: {err}") from None
    return pairs
