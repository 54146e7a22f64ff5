"""Trajectory dataset ingestion, leader-follower pairing and serialization.

Raw vehicle trajectory exports (NGSIM-style CSV) are parsed into per-vehicle
kinematic series sampled at a fixed 0.1 s interval.  Follower vehicles are
paired with the vehicle ahead of them over windows where the leader link is
unambiguous, which is what the car-following calibration consumes.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateFrame,
    EmptyInput,
    InfeasibleInitialState,
    MissingColumn,
    NonpositiveHeadway,
    UnparsableField,
)

DT = 0.1  # s between consecutive frames in the source datasets
FEET_TO_METERS = 0.3048
MIN_CALIBRATION_SAMPLES = 600  # shorter pairs are flagged, not dropped

# Source column names, matched case-insensitively.
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


@dataclass(frozen=True)
class TrajectoryRecord:
    """One vehicle-frame sample, always in meter units."""

    vehicle_id: int
    frame_id: int
    local_y: float  # m, longitudinal position
    speed: float  # m/s
    accel: float  # m/s^2
    lane_id: int
    preceding_id: int  # 0 when no vehicle ahead
    vehicle_length: float  # m


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
            raise NonpositiveHeadway(
                f"pair ({self.leader.vehicle_id}, {self.follower.vehicle_id}) "
                "has nonpositive headway"
            )

    def headways(self) -> np.ndarray:
        return self.leader.positions - self.follower.positions

    @property
    def meets_min_samples(self) -> bool:
        return self.overlap_len >= MIN_CALIBRATION_SAMPLES


@dataclass
class PairDiagnostics:
    rejected_nonpositive: list = field(default_factory=list)  # (leader, follower, frame)
    short_pairs: list = field(default_factory=list)  # (leader, follower, overlap_len)


def _normalize(name: str) -> str:
    return name.strip().lower()


def parse_ngsim_csv(text: str, units: str = "meters") -> list[TrajectoryRecord]:
    """Parse an NGSIM-style CSV export into records.

    Header names are matched case-insensitively; extra columns are ignored.
    With units="feet" the positional quantities are converted to meters.

    Raises:
        MissingColumn, UnparsableField, EmptyInput.
    """
    if units not in ("meters", "feet"):
        raise ValueError("units must be 'meters' or 'feet'")
    scale = FEET_TO_METERS if units == "feet" else 1.0

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInput("no header row") from None
    col = {_normalize(h): i for i, h in enumerate(header)}
    for name in _REQUIRED_COLUMNS:
        if name not in col:
            raise MissingColumn(name)

    records = []
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not c.strip() for c in row):
            continue

        def grab(name: str) -> float:
            try:
                return float(row[col[name]])
            except (ValueError, IndexError):
                raise UnparsableField(row_no, name) from None

        records.append(
            TrajectoryRecord(
                vehicle_id=int(grab("vehicle_id")),
                frame_id=int(grab("frame_id")),
                local_y=grab("local_y") * scale,
                speed=grab("v_vel") * scale,
                accel=grab("v_acc") * scale,
                lane_id=int(grab("lane_id")),
                preceding_id=int(grab("preceding")),
                vehicle_length=grab("v_length") * scale,
            )
        )
    if not records:
        raise EmptyInput("no data rows")
    return records


def write_canonical_csv(records, path) -> None:
    """Write records in the canonical meter-unit CSV schema.

    Floats are written with repr so a read-back reproduces them bit-exactly.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CANONICAL_HEADER)
        for r in records:
            w.writerow(
                [
                    r.vehicle_id,
                    r.frame_id,
                    repr(r.frame_id * DT),
                    repr(r.local_y),
                    repr(r.speed),
                    repr(r.accel),
                    r.lane_id,
                    r.preceding_id,
                    repr(r.vehicle_length),
                ]
            )


def read_canonical_csv(path) -> list[TrajectoryRecord]:
    """Read back the canonical CSV written by write_canonical_csv."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptyInput("no header row")
        if [_normalize(h) for h in header] != CANONICAL_HEADER:
            raise MissingColumn("canonical header mismatch")
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            try:
                records.append(
                    TrajectoryRecord(
                        vehicle_id=int(row[0]),
                        frame_id=int(row[1]),
                        local_y=float(row[3]),
                        speed=float(row[4]),
                        accel=float(row[5]),
                        lane_id=int(row[6]),
                        preceding_id=int(row[7]),
                        vehicle_length=float(row[8]),
                    )
                )
            except (ValueError, IndexError):
                raise UnparsableField(row_no, "canonical row") from None
    if not records:
        raise EmptyInput("no data rows")
    return records


def build_trajectories(records) -> TrajectorySet:
    """Group records by vehicle and keep each vehicle's longest gap-free run.

    Duplicate frames for a vehicle are an error.  Shorter fragments (runs
    separated by missing frames) are discarded; the count of discarded
    fragments is reported on the returned set.
    """
    by_vehicle: dict[int, list[TrajectoryRecord]] = {}
    for r in records:
        by_vehicle.setdefault(r.vehicle_id, []).append(r)

    trajectories = {}
    lanes = {}
    preceding = {}
    discarded = 0
    for vid in sorted(by_vehicle):
        recs = sorted(by_vehicle[vid], key=lambda r: r.frame_id)
        for a, b in zip(recs, recs[1:]):
            if a.frame_id == b.frame_id:
                raise DuplicateFrame(vid, a.frame_id)

        # split into contiguous frame runs
        runs = [[recs[0]]]
        for r in recs[1:]:
            if r.frame_id == runs[-1][-1].frame_id + 1:
                runs[-1].append(r)
            else:
                runs.append([r])
        runs.sort(key=lambda run: (-len(run), run[0].frame_id))
        best = runs[0]
        discarded += len(runs) - 1

        trajectories[vid] = Trajectory(
            vehicle_id=vid,
            start_frame=best[0].frame_id,
            positions=np.array([r.local_y for r in best]),
            speeds=np.array([r.speed for r in best]),
            accels=np.array([r.accel for r in best]),
            vehicle_length=best[0].vehicle_length,
        )
        lanes[vid] = np.array([r.lane_id for r in best], dtype=int)
        preceding[vid] = np.array([r.preceding_id for r in best], dtype=int)

    return TrajectorySet(trajectories, lanes, preceding, discarded)


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

    Returns:
        (pairs sorted by descending overlap length, PairDiagnostics)
    """
    pairs = []
    diag = PairDiagnostics()
    for fid, ftr in sorted(tset.trajectories.items()):
        pre = tset.preceding[fid]
        flane = tset.lanes[fid]

        i = 0
        while i < ftr.n:
            lid = int(pre[i])
            if lid == 0 or lid == fid or lid not in tset.trajectories:
                i += 1
                continue
            ltr = tset.trajectories[lid]
            llane = tset.lanes[lid]

            def usable(j: int) -> bool:
                frame = ftr.start_frame + j
                if not (ltr.start_frame <= frame <= ltr.end_frame):
                    return False
                if llane[frame - ltr.start_frame] != flane[j]:
                    return False
                if lane_filter is not None and flane[j] != lane_filter:
                    return False
                return True

            j = i
            while j < ftr.n and int(pre[j]) == lid and usable(j):
                j += 1
            if j == i:
                i += 1
                continue

            start_frame = ftr.start_frame + i
            length = j - i
            leader = ltr.slice(start_frame, length)
            follower = ftr.slice(start_frame, length)
            head = leader.positions - follower.positions
            if np.any(head <= 0):
                bad = int(np.argmax(head <= 0))
                diag.rejected_nonpositive.append((lid, fid, start_frame + bad))
            else:
                pair = VehiclePair(leader, follower, start_frame, length)
                pairs.append(pair)
                if length < min_samples:
                    diag.short_pairs.append((lid, fid, length))
            i = j

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
    """Rebuild pairs by slicing the trajectory set per a stored pair index."""
    pairs = []
    for entry in index:
        leader = tset.trajectories[entry["leader_id"]].slice(
            entry["overlap_start"], entry["overlap_len"]
        )
        follower = tset.trajectories[entry["follower_id"]].slice(
            entry["overlap_start"], entry["overlap_len"]
        )
        pairs.append(VehiclePair(leader, follower, entry["overlap_start"], entry["overlap_len"]))
    return pairs


def records_from_trajectory(tr: Trajectory, lane_id: int = 1, preceding_id: int = 0):
    """Flatten a trajectory back into records (synthetic data, CLI output)."""
    return [
        TrajectoryRecord(
            vehicle_id=tr.vehicle_id,
            frame_id=tr.start_frame + k,
            local_y=float(tr.positions[k]),
            speed=float(tr.speeds[k]),
            accel=float(tr.accels[k]),
            lane_id=lane_id,
            preceding_id=preceding_id,
            vehicle_length=tr.vehicle_length,
        )
        for k in range(tr.n)
    ]


def generate_synthetic_pair(
    theta,
    profile,
    duration: float,
    initial_headway: float,
    dt: float = DT,
    leader_id: int = 1,
    follower_id: int = 2,
) -> VehiclePair:
    """Simulate a leader from a speed profile and a model follower behind it.

    The follower starts at the leader's initial speed, initial_headway meters
    behind, and follows the car-following model given by theta.  Useful as
    ground truth for calibration closure tests.

    Raises:
        InfeasibleInitialState: initial headway at or below the stopping
            distance of the model's velocity curve.
    """
    from .carfollowing import leader_trajectory, simulate_follower

    if initial_headway <= theta.b_c:
        raise InfeasibleInitialState(
            f"initial headway {initial_headway} m <= b_c {theta.b_c} m"
        )
    leader = leader_trajectory(profile, duration, dt=dt, vehicle_id=leader_id)
    follower = simulate_follower(
        theta,
        leader,
        init_position=leader.positions[0] - initial_headway,
        init_speed=leader.speeds[0],
        vehicle_id=follower_id,
    )
    return VehiclePair(leader, follower, leader.start_frame, leader.n)
