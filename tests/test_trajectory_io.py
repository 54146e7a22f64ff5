"""Tests for trajectory parsing, canonical CSV round trips, and pairing."""
from __future__ import annotations

import json

import numpy as np
import pytest

from stopgo.carfollowing import ConstantProfile, FvdmParams
from stopgo.errors import (
    DuplicateFrame,
    EmptyInput,
    InfeasibleInitialState,
    MissingColumn,
    UnparsableField,
)
from stopgo.trajectory_io import (
    FEET_TO_METERS,
    Trajectory,
    TrajectoryRecord,
    VehiclePair,
    build_trajectories,
    generate_synthetic_pair,
    pair_index,
    pair_leader_follower,
    pairs_from_index,
    parse_ngsim_csv,
    read_canonical_csv,
    write_canonical_csv,
)
from stopgo.errors import NonpositiveHeadway

NGSIM_HEADER = "Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length"


def _ngsim_text(rows):
    return NGSIM_HEADER + "\n" + "\n".join(",".join(str(c) for c in r) for r in rows)


def _record(vid, frame, y, lane=1, preceding=0, speed=10.0, accel=0.0, length=4.5):
    return TrajectoryRecord(vid, frame, y, speed, accel, lane, preceding, length)


def test_parse_feet_converts_positional_columns():
    text = _ngsim_text([(7, 100, 328.0, 32.8, -3.28, 2, 3, 14.7)])
    (rec,) = parse_ngsim_csv(text, units="feet")
    assert rec.vehicle_id == 7 and rec.frame_id == 100
    assert rec.local_y == pytest.approx(328.0 * FEET_TO_METERS)
    assert rec.speed == pytest.approx(32.8 * FEET_TO_METERS)
    assert rec.accel == pytest.approx(-3.28 * FEET_TO_METERS)
    assert rec.vehicle_length == pytest.approx(14.7 * FEET_TO_METERS)
    assert rec.lane_id == 2 and rec.preceding_id == 3


def test_parse_meters_is_identity_on_positions():
    text = _ngsim_text([(1, 5, 100.0, 12.0, 0.5, 1, 0, 4.5)])
    (rec,) = parse_ngsim_csv(text, units="meters")
    assert rec.local_y == 100.0 and rec.speed == 12.0


def test_parse_header_case_and_extra_columns():
    text = (
        "vehicle_id,FRAME_ID,local_y,V_VEL,v_acc,Lane_id,preceding,v_length,Global_X\n"
        "4,2,50.0,10.0,0.0,1,0,4.0,99999"
    )
    (rec,) = parse_ngsim_csv(text, units="meters")
    assert rec.vehicle_id == 4 and rec.local_y == 50.0


def test_parse_missing_column_raises():
    text = "Vehicle_ID,Frame_ID,Local_Y,v_Vel,Lane_ID,Preceding,v_Length\n1,1,0,0,1,0,4"
    with pytest.raises(MissingColumn):
        parse_ngsim_csv(text)


def test_parse_unparsable_field_raises():
    text = _ngsim_text([(1, 1, "abc", 0, 0, 1, 0, 4.5)])
    with pytest.raises(UnparsableField):
        parse_ngsim_csv(text)


def test_parse_empty_inputs_raise():
    with pytest.raises(EmptyInput):
        parse_ngsim_csv("")
    with pytest.raises(EmptyInput):
        parse_ngsim_csv(NGSIM_HEADER + "\n")


def test_parse_bad_units_rejected():
    with pytest.raises(ValueError):
        parse_ngsim_csv(_ngsim_text([(1, 1, 0, 0, 0, 1, 0, 4)]), units="furlongs")


def test_canonical_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    records = [
        _record(
            vid=int(rng.integers(1, 50)),
            frame=i,
            y=float(rng.normal() * 123.456),
            speed=float(rng.uniform(0, 30)),
            accel=float(rng.normal()),
            lane=int(rng.integers(1, 6)),
            preceding=int(rng.integers(0, 50)),
            length=float(rng.uniform(3, 20)),
        )
        for i in range(200)
    ]
    path = tmp_path / "canon.csv"
    write_canonical_csv(records, path)
    back = read_canonical_csv(path)
    assert back == records

    # writing the read-back must reproduce the file byte for byte
    path2 = tmp_path / "canon2.csv"
    write_canonical_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_build_trajectories_keeps_longest_run():
    # frames 1-3 and 10-15: the 6-sample run wins, one fragment discarded
    recs = [_record(1, f, float(f)) for f in (1, 2, 3, 10, 11, 12, 13, 14, 15)]
    tset = build_trajectories(recs)
    tr = tset.trajectories[1]
    assert tr.start_frame == 10 and tr.n == 6
    assert tset.fragments_discarded == 1


def test_build_trajectories_duplicate_frame_raises():
    recs = [_record(1, 5, 0.0), _record(1, 5, 1.0)]
    with pytest.raises(DuplicateFrame):
        build_trajectories(recs)


def _two_vehicle_records(n=30, lane=1, gap=20.0):
    recs = []
    for f in range(n):
        recs.append(_record(1, f, gap + 10.0 * 0.1 * f, lane=lane, preceding=0))
        recs.append(_record(2, f, 10.0 * 0.1 * f, lane=lane, preceding=1))
    return recs


def test_pairing_full_overlap():
    tset = build_trajectories(_two_vehicle_records(n=40))
    pairs, diag = pair_leader_follower(tset, min_samples=10)
    assert len(pairs) == 1
    p = pairs[0]
    assert p.leader.vehicle_id == 1 and p.follower.vehicle_id == 2
    assert p.overlap_len == 40
    np.testing.assert_allclose(p.headways(), 20.0)
    assert not diag.rejected_nonpositive and not diag.short_pairs


def test_pairing_splits_on_lane_change():
    # follower hops lanes mid-record: the shared-lane window must break there
    recs = []
    for f in range(30):
        recs.append(_record(1, f, 30.0 + f, lane=1, preceding=0))
        recs.append(_record(2, f, float(f), lane=1 if f < 18 else 2, preceding=1))
    tset = build_trajectories(recs)
    pairs, _ = pair_leader_follower(tset, min_samples=1)
    assert len(pairs) == 1
    assert pairs[0].overlap_len == 18
    assert pairs[0].overlap_start == 0


def test_pairing_rejects_nonpositive_headway():
    recs = []
    for f in range(20):
        recs.append(_record(1, f, 10.0, lane=1, preceding=0))
        recs.append(_record(2, f, 10.0 + (1.0 if f == 7 else -5.0), lane=1, preceding=1))
    tset = build_trajectories(recs)
    pairs, diag = pair_leader_follower(tset, min_samples=1)
    assert pairs == []
    assert diag.rejected_nonpositive and diag.rejected_nonpositive[0][:2] == (1, 2)


def test_pairing_flags_short_pairs_but_returns_them():
    tset = build_trajectories(_two_vehicle_records(n=30))
    pairs, diag = pair_leader_follower(tset, min_samples=600)
    assert len(pairs) == 1
    assert not pairs[0].meets_min_samples
    assert diag.short_pairs == [(1, 2, 30)]


def test_pairing_lane_filter():
    tset = build_trajectories(_two_vehicle_records(lane=3))
    pairs, _ = pair_leader_follower(tset, lane_filter=2, min_samples=1)
    assert pairs == []
    pairs, _ = pair_leader_follower(tset, lane_filter=3, min_samples=1)
    assert len(pairs) == 1


def test_vehicle_pair_validates_trim_and_headway():
    tr = Trajectory(1, 0, np.arange(5.0), np.ones(5), np.zeros(5))
    behind = Trajectory(2, 0, np.arange(5.0) - 3.0, np.ones(5), np.zeros(5))
    VehiclePair(tr, behind, 0, 5)  # fine
    with pytest.raises(ValueError):
        VehiclePair(tr, behind, 0, 4)  # wrong window length
    with pytest.raises(NonpositiveHeadway):
        VehiclePair(behind, tr, 0, 5)  # leader behind follower


def test_pair_index_round_trip(tmp_path):
    tset = build_trajectories(_two_vehicle_records(n=25))
    pairs, _ = pair_leader_follower(tset, min_samples=1)
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(pair_index(pairs)))
    index = json.loads(path.read_text())
    rebuilt = pairs_from_index(index, tset)
    assert len(rebuilt) == 1
    np.testing.assert_array_equal(rebuilt[0].leader.positions, pairs[0].leader.positions)
    np.testing.assert_array_equal(
        rebuilt[0].follower.positions, pairs[0].follower.positions
    )
    assert rebuilt[0].overlap_start == pairs[0].overlap_start


def test_trajectory_slice_bounds():
    tr = Trajectory(1, 10, np.arange(6.0), np.ones(6), np.zeros(6))
    sl = tr.slice(12, 3)
    assert sl.start_frame == 12 and sl.n == 3
    np.testing.assert_array_equal(sl.positions, [2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        tr.slice(9, 3)
    with pytest.raises(ValueError):
        tr.slice(14, 5)


def test_synthetic_pair_shapes_and_headway():
    theta = FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.5)
    pair = generate_synthetic_pair(theta, ConstantProfile(12.0), 30.0, 18.0)
    assert pair.leader.n == pair.follower.n == 301  # inclusive end sample
    assert np.all(pair.headways() > 0)
    assert pair.leader.vehicle_id == 1 and pair.follower.vehicle_id == 2


def test_synthetic_pair_infeasible_start_raises():
    theta = FvdmParams(1.5, 1.2, 3.0, 20.0, 18.0, 0.08, 0.5)
    with pytest.raises(InfeasibleInitialState):
        generate_synthetic_pair(theta, ConstantProfile(12.0), 10.0, theta.b_c)
