"""Tests for trajectory parsing, canonical CSV round trips, and pairing."""
from __future__ import annotations

import io
import json
import re
import warnings
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from stopgo.carfollowing import ConstantProfile, FvdmParams, generate_synthetic_pair
from stopgo.errors import DataError, DuplicateFrame, UnparsableField
from stopgo.trajectory_io import (
    _WRITE_CHUNK_ROWS,
    CANONICAL_HEADER,
    FEET_TO_METERS,
    PairDiagnostics,
    Trajectory,
    TrajectorySet,
    TrajectoryTable,
    VehiclePair,
    build_trajectories,
    pair_index,
    pair_leader_follower,
    pairs_from_index,
    parse_ngsim_csv,
    read_canonical_csv,
    write_canonical_csv,
    write_columns,
)

NGSIM_HEADER = "Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length"


def _ngsim_text(rows):
    return NGSIM_HEADER + "\n" + "\n".join(",".join(str(c) for c in r) for r in rows)


def _parse(text, **kw):
    return parse_ngsim_csv(io.StringIO(text), **kw)


def _record(vid, frame, y, lane=1, preceding=0, speed=10.0, accel=0.0, length=4.5):
    return (vid, frame, y, speed, accel, lane, preceding, length)


def _table(records):
    """A table holding the given _record rows in order."""
    return TrajectoryTable(*(np.array(col) for col in zip(*records)))


def _rows(table):
    """Each row of a table as a namespace of its column values."""
    names = [f.name for f in fields(TrajectoryTable)]
    return [
        SimpleNamespace(**{name: getattr(table, name)[i] for name in names})
        for i in range(len(table))
    ]


def _assert_same_table(a, b):
    for f in fields(TrajectoryTable):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name


def test_parse_feet_converts_positional_columns():
    text = _ngsim_text([(7, 100, 328.0, 32.8, -3.28, 2, 3, 14.7)])
    (rec,) = _rows(_parse(text, units="feet"))
    assert rec.vehicle_id == 7 and rec.frame_id == 100
    assert rec.local_y == pytest.approx(328.0 * FEET_TO_METERS)
    assert rec.speed == pytest.approx(32.8 * FEET_TO_METERS)
    assert rec.accel == pytest.approx(-3.28 * FEET_TO_METERS)
    assert rec.vehicle_length == pytest.approx(14.7 * FEET_TO_METERS)
    assert rec.lane_id == 2 and rec.preceding_id == 3


def test_parse_meters_is_identity_on_positions():
    text = _ngsim_text([(1, 5, 100.0, 12.0, 0.5, 1, 0, 4.5)])
    (rec,) = _rows(_parse(text, units="meters"))
    assert rec.local_y == 100.0 and rec.speed == 12.0


def test_parse_header_case_and_extra_columns():
    text = (
        "vehicle_id,FRAME_ID,local_y,V_VEL,v_acc,Lane_id,preceding,v_length,Global_X\n"
        "4,2,50.0,10.0,0.0,1,0,4.0,99999"
    )
    (rec,) = _rows(_parse(text, units="meters"))
    assert rec.vehicle_id == 4 and rec.local_y == 50.0


def test_parse_missing_column_raises():
    text = "Vehicle_ID,Frame_ID,Local_Y,v_Vel,Lane_ID,Preceding,v_Length\n1,1,0,0,1,0,4"
    with pytest.raises(DataError, match="required column missing: v_acc"):
        _parse(text)


def test_parse_unparsable_field_raises():
    text = _ngsim_text([(1, 1, "abc", 0, 0, 1, 0, 4.5)])
    with pytest.raises(UnparsableField):
        _parse(text)


@pytest.mark.parametrize("column, value", [
    ("frame_id", "inf"),
    ("frame_id", "nan"),
    ("frame_id", "2.7"),
    ("vehicle_id", "1e300"),
    ("local_y", "nan"),
    ("local_y", "inf"),
    ("v_vel", "-inf"),
    ("v_length", "1e400"),
])
def test_parse_rejects_nonfinite_and_nonintegral_fields(column, value):
    # the bad field is in data row 3: a blank line counts as a data row
    good = ["1", "1", "0.0", "0.0", "0.0", "1", "0", "4.5"]
    bad = list(good)
    bad[NGSIM_HEADER.lower().split(",").index(column)] = value
    text = NGSIM_HEADER + "\n" + ",".join(good) + "\n\n" + ",".join(bad) + "\n"
    with pytest.raises(UnparsableField) as exc:
        _parse(text)
    assert (exc.value.row, exc.value.column) == (3, column)


@pytest.mark.parametrize("column, value", [
    ("frame_id", "inf"),
    ("frame_id", "2.7"),
    ("lane_id", "nan"),
    ("local_y_m", "nan"),
    ("v_mps", "inf"),
])
def test_read_canonical_rejects_nonfinite_and_nonintegral_fields(tmp_path, column, value):
    good = ["1", "1", "0.1", "0.0", "0.0", "0.0", "1", "0", "4.5"]
    bad = list(good)
    bad[CANONICAL_HEADER.index(column)] = value
    path = tmp_path / "canon.csv"
    path.write_text("\n".join(",".join(r) for r in (CANONICAL_HEADER, good, [], bad)) + "\n")
    with pytest.raises(UnparsableField) as exc:
        read_canonical_csv(path)
    assert (exc.value.row, exc.value.column) == (3, column)


def test_parse_field_only_float_takes_is_data_error():
    # float() takes "1_0" but np.loadtxt does not, so no bad field is named
    with pytest.raises(DataError):
        _parse(_ngsim_text([(1, "1_0", 0.0, 0.0, 0.0, 1, 0, 4.5)]))


# line 600 lies past the text stream's first 8 KiB read, so parsing, not the header, meets it
@pytest.mark.parametrize("line", [0, 600], ids=["header", "data row"])
def test_undecodable_bytes_are_data_error_naming_the_file(tmp_path, line):
    def spoil(path, newline):
        lines = path.read_bytes().split(newline)
        lines[line] = lines[line][:3] + b"\xff" + lines[line][3:]
        path.write_bytes(newline.join(lines))

    text = _ngsim_text([(1, f, 0.0, 0.0, 0.0, 1, 0, 4.5) for f in range(800)])
    raw = tmp_path / "raw.csv"
    raw.write_text(text)
    spoil(raw, b"\n")
    with open(raw, encoding="utf-8") as fh, pytest.raises(
            DataError, match=re.escape(f"{raw} is not utf-8 text: invalid start byte")):
        parse_ngsim_csv(fh)

    path = tmp_path / "canon.csv"
    write_canonical_csv(_parse(text), path)
    spoil(path, b"\r\n")
    with pytest.raises(DataError, match=re.escape(f"{path} is not utf-8 text")):
        read_canonical_csv(path)


def test_parse_names_first_bad_field_by_row_then_column():
    text = _ngsim_text([
        (1, 1, 0.0, 0.0, 0.0, 1, 0, 4.5),
        (1, 2, "x", 0.0, 0.0, 1.5, 0, 4.5),  # local_y precedes lane_id
        (1, "x", 0.0, 0.0, 0.0, 1, 0, 4.5),
    ])
    with pytest.raises(UnparsableField) as exc:
        _parse(text)
    assert (exc.value.row, exc.value.column) == (2, "local_y")

    with pytest.raises(UnparsableField) as exc:
        _parse(NGSIM_HEADER + "\n1,1,0.0,0.0,0.0,1,0,4.5\n1,2,0.0\n")
    assert (exc.value.row, exc.value.column) == (2, "v_vel")  # short row


def test_table_length_is_row_count_and_blank_rows_are_skipped(tmp_path):
    rows = [",".join(str(c) for c in (1, f, 10.0 * f, 10.0, 0.0, 1, 0, 4.5)) for f in range(5)]
    text = NGSIM_HEADER + "\n" + "\n".join(rows[:2] + ["", " , ,", "  "] + rows[2:]) + "\n"
    table = _parse(text)
    assert len(table) == 5
    np.testing.assert_array_equal(table.frame_id, np.arange(5))

    path = tmp_path / "canon.csv"
    write_canonical_csv(table, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")
    back = read_canonical_csv(path)
    assert len(back) == 5
    _assert_same_table(back, table)


def test_rows_of_blanks_and_commas_read_as_the_clean_file(tmp_path):
    rows = [",".join(str(c) for c in (1, f, 10.0 * f, 10.0, 0.0, 1, 0, 4.5)) for f in range(6)]
    clean = _parse(NGSIM_HEADER + "\n" + "\n".join(rows) + "\n")
    for filler in (["  "], [",,,"], [" , ,", "\t", ""]):
        text = NGSIM_HEADER + "\n" + "\n".join(rows[:3] + filler + rows[3:]) + "\n"
        _assert_same_table(_parse(text), clean)

    path = tmp_path / "canon.csv"
    write_canonical_csv(clean, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:4] + [" ", ",,,,", ""] + lines[4:]) + "\n")
    _assert_same_table(read_canonical_csv(path), clean)


@pytest.mark.parametrize("body", ["", "\n\n", "  \n", ",,,\n", "\n , ,\n\t\n"])
def test_data_section_of_only_blanks_and_commas_is_empty_input(tmp_path, body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not leak
        with pytest.raises(DataError, match="no data rows"):
            _parse(NGSIM_HEADER + "\n" + body)
        path = tmp_path / "canon.csv"
        path.write_text(",".join(CANONICAL_HEADER) + "\r\n" + body)
        with pytest.raises(DataError, match="no data rows"):
            read_canonical_csv(path)


def test_parse_empty_inputs_raise():
    with pytest.raises(DataError, match="no header row"):
        _parse("")
    with pytest.raises(DataError, match="no data rows"):
        _parse(NGSIM_HEADER + "\n")


def test_parse_bad_units_rejected():
    with pytest.raises(ValueError):
        _parse(_ngsim_text([(1, 1, 0, 0, 0, 1, 0, 4)]), units="furlongs")


def test_canonical_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(17)
    records = _table([
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
    ])
    path = tmp_path / "canon.csv"
    write_canonical_csv(records, path)
    back = read_canonical_csv(path)
    _assert_same_table(back, records)

    # writing the read-back must reproduce the file byte for byte
    path2 = tmp_path / "canon2.csv"
    write_canonical_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def _write_columns_reference(path, header, columns):
    """The per-cell writer: one repr call per value, one line per row."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _WRITE_CHUNK_ROWS):
            cells = [map(repr, c[lo : lo + _WRITE_CHUNK_ROWS].tolist()) for c in columns]
            fh.writelines(",".join(row) + "\r\n" for row in zip(*cells))


def test_write_columns_matches_per_cell_writer(tmp_path):
    rng = np.random.default_rng(23)
    n = 2 * _WRITE_CHUNK_ROWS + 517
    special = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e16, 1e-05,
                        -1e16, 0.1 + 0.2, 123456789.125, -7.0, np.inf, -np.inf])
    columns = [
        rng.integers(-3, 4, n),  # few negative ints, repeated in every chunk
        rng.integers(-(2**62), 2**62, n),
        rng.choice(special, n),
        rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, n),
        np.round(rng.uniform(-5, 5, n), 2),  # repeats across chunk boundaries
        np.arange(n) * 0.1,
    ]
    header = [f"c{j}" for j in range(len(columns))]
    for rows in (n, _WRITE_CHUNK_ROWS, 1, 0):
        cut = [c[:rows] for c in columns]
        write_columns(tmp_path / "new.csv", header, cut)
        _write_columns_reference(tmp_path / "old.csv", header, cut)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == b"c0,c1,c2,c3,c4,c5\r\n"


@pytest.mark.parametrize("header, columns", [
    (["a", "b", "c"], [np.arange(3), np.arange(2.0)]),  # fewer columns than names
    (["a"], [np.arange(3), np.arange(3.0)]),  # more columns than names
    (["a", "b"], [np.arange(3), np.arange(2.0)]),  # a short column
    (["a", "b"], [np.arange(2), np.arange(3.0)]),  # a long column
])
def test_write_columns_rejects_mismatched_columns(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_columns(tmp_path / "out.csv", header, columns)


def test_build_trajectories_keeps_longest_run():
    # frames 1-3 and 10-15: the 6-sample run wins, one fragment discarded
    recs = [_record(1, f, float(f)) for f in (1, 2, 3, 10, 11, 12, 13, 14, 15)]
    tset = build_trajectories(_table(recs))
    tr = tset.trajectories[1]
    assert tr.start_frame == 10 and tr.n == 6
    assert tset.fragments_discarded == 1


def test_build_trajectories_duplicate_frame_raises():
    recs = [_record(1, 5, 0.0), _record(1, 5, 1.0)]
    with pytest.raises(DuplicateFrame):
        build_trajectories(_table(recs))


def test_build_trajectories_keeps_earlier_of_equal_runs():
    # frames 7-9 and 2-4, rows out of order: the run starting at frame 2 wins
    recs = [_record(1, f, float(f)) for f in (9, 3, 7, 2, 8, 4)]
    tset = build_trajectories(_table(recs))
    tr = tset.trajectories[1]
    assert tr.start_frame == 2 and tr.n == 3
    np.testing.assert_array_equal(tr.positions, [2.0, 3.0, 4.0])
    assert tset.fragments_discarded == 1


def test_build_trajectories_names_smallest_duplicate():
    recs = [
        _record(5, 1, 0.0), _record(5, 1, 0.0),
        _record(3, 9, 0.0), _record(3, 9, 0.0),
        _record(3, 4, 0.0), _record(3, 4, 0.0),
        _record(2, 1, 0.0), _record(2, 2, 0.0),
    ]
    with pytest.raises(DuplicateFrame) as exc:
        build_trajectories(_table(recs))
    assert (exc.value.vehicle_id, exc.value.frame_id) == (3, 4)


def test_build_trajectories_takes_length_from_first_row_of_kept_run():
    recs = [_record(4, f, float(f), length=4.0 + f / 10) for f in (6, 1, 8, 5, 2, 7)]
    tset = build_trajectories(_table(recs))
    tr = tset.trajectories[4]
    assert tr.start_frame == 5 and tr.vehicle_length == 4.5


def test_build_trajectories_keys_are_python_ints():
    tset = build_trajectories(_table(_two_vehicle_records(n=5)))
    assert list(tset.trajectories) == [1, 2]
    for vid, tr in tset.trajectories.items():
        assert type(vid) is int and type(tr.vehicle_id) is int
        assert type(tr.start_frame) is int and type(tr.vehicle_length) is float


def _build_reference(records):
    """Row-by-row grouping: sort each vehicle's rows by frame, split at gaps,
    keep the longest run (the earliest on ties)."""
    by_vehicle = {}
    for r in records:
        by_vehicle.setdefault(r[0], []).append(r)
    kept, discarded = {}, 0
    for vid in sorted(by_vehicle):
        rows = sorted(by_vehicle[vid], key=lambda r: r[1])
        runs = [[rows[0]]]
        for r in rows[1:]:
            if r[1] == runs[-1][-1][1] + 1:
                runs[-1].append(r)
            else:
                runs.append([r])
        runs.sort(key=lambda run: (-len(run), run[0][1]))
        kept[vid] = runs[0]
        discarded += len(runs) - 1
    return kept, discarded


def test_build_trajectories_matches_row_by_row_grouping():
    rng = np.random.default_rng(5)
    records = []
    for vid in rng.permutation(np.arange(1, 31)):
        frames = np.flatnonzero(rng.random(80) > 0.1) + int(rng.integers(0, 50))
        for f in frames:
            records.append(_record(
                int(vid), int(f), float(rng.normal()),
                lane=int(rng.integers(1, 4)),
                preceding=int(rng.integers(0, 31)),
                speed=float(rng.normal()),
                accel=float(rng.normal()),
                length=float(rng.uniform(3, 6)),
            ))
    records = [records[i] for i in rng.permutation(len(records))]
    tset = build_trajectories(_table(records))
    kept, discarded = _build_reference(records)
    assert tset.fragments_discarded == discarded > 0
    assert list(tset.trajectories) == list(kept)
    for vid, run in kept.items():
        tr = tset.trajectories[vid]
        assert tr.start_frame == run[0][1] and tr.n == len(run)
        assert tr.vehicle_length == run[0][7]
        for values, column in (
            (tr.positions, 2), (tr.speeds, 3), (tr.accels, 4),
            (tset.lanes[vid], 5), (tset.preceding[vid], 6),
        ):
            np.testing.assert_array_equal(values, [r[column] for r in run])


def _two_vehicle_records(n=30, lane=1, gap=20.0):
    recs = []
    for f in range(n):
        recs.append(_record(1, f, gap + 10.0 * 0.1 * f, lane=lane, preceding=0))
        recs.append(_record(2, f, 10.0 * 0.1 * f, lane=lane, preceding=1))
    return recs


def test_pairing_full_overlap():
    tset = build_trajectories(_table(_two_vehicle_records(n=40)))
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
    tset = build_trajectories(_table(recs))
    pairs, _ = pair_leader_follower(tset, min_samples=1)
    assert len(pairs) == 1
    assert pairs[0].overlap_len == 18
    assert pairs[0].overlap_start == 0


def test_pairing_rejects_nonpositive_headway():
    recs = []
    for f in range(20):
        recs.append(_record(1, f, 10.0, lane=1, preceding=0))
        recs.append(_record(2, f, 10.0 + (1.0 if f == 7 else -5.0), lane=1, preceding=1))
    tset = build_trajectories(_table(recs))
    pairs, diag = pair_leader_follower(tset, min_samples=1)
    assert pairs == []
    assert diag.rejected_nonpositive and diag.rejected_nonpositive[0][:2] == (1, 2)


def test_pairing_flags_short_pairs_but_returns_them():
    tset = build_trajectories(_table(_two_vehicle_records(n=30)))
    pairs, diag = pair_leader_follower(tset, min_samples=600)
    assert len(pairs) == 1
    assert pairs[0].overlap_len == 30
    assert diag.short_pairs == [(1, 2, 30)]


def test_pairing_lane_filter():
    tset = build_trajectories(_table(_two_vehicle_records(lane=3)))
    pairs, _ = pair_leader_follower(tset, lane_filter=2, min_samples=1)
    assert pairs == []
    pairs, _ = pair_leader_follower(tset, lane_filter=3, min_samples=1)
    assert len(pairs) == 1


def _pair_reference(tset, lane_filter=None, min_samples=600):
    """The per-frame pairing loop: grow each window one follower frame at a time."""
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

            def usable(j):
                frame = ftr.start_frame + j
                if not (ltr.start_frame <= frame <= ltr.end_frame):
                    return False
                if llane[frame - ltr.start_frame] != flane[j]:
                    return False
                return lane_filter is None or flane[j] == lane_filter

            j = i
            while j < ftr.n and int(pre[j]) == lid and usable(j):
                j += 1
            if j == i:
                i += 1
                continue
            start_frame, length = ftr.start_frame + i, j - i
            leader = ltr.slice(start_frame, length)
            follower = ftr.slice(start_frame, length)
            head = leader.positions - follower.positions
            if np.any(head <= 0):
                diag.rejected_nonpositive.append((lid, fid, start_frame + int(np.argmax(head <= 0))))
            else:
                pairs.append(VehiclePair(leader, follower, start_frame, length))
                if length < min_samples:
                    diag.short_pairs.append((lid, fid, length))
            i = j
    pairs.sort(key=lambda p: (-p.overlap_len, p.leader.vehicle_id, p.follower.vehicle_id))
    return pairs, diag


def _runs(rng, n, choices):
    """n values drawn from choices in runs of 1 to 15 frames."""
    out = []
    while len(out) < n:
        out += [choices[rng.integers(len(choices))]] * int(rng.integers(1, 16))
    return np.array(out[:n], dtype=np.int64)


def _random_set(rng, vehicles=12):
    """Vehicles over partly shared frame ranges, each following a random mix
    of other vehicles, none, itself and unknown ids, over changing lanes.
    Positions grow with the vehicle id, with dips that make some headways
    nonpositive."""
    vids = [int(v) for v in rng.choice(np.arange(1, 60), vehicles, replace=False)]
    trajectories, lanes, preceding = {}, {}, {}
    for vid in vids:
        n = int(rng.integers(1, 90))
        start = int(rng.integers(0, 60))
        pos = 3.0 * vid + np.cumsum(rng.uniform(0, 1, n))
        pos[rng.random(n) < 0.02] -= 200.0
        trajectories[vid] = Trajectory(vid, start, pos, np.ones(n), np.zeros(n), 4.5)
        lanes[vid] = _runs(rng, n, [1, 2, 3] if rng.random() < 0.5 else [2])
        preceding[vid] = _runs(rng, n, vids[:4] + [0, vid, 999, 60])
    return TrajectorySet(trajectories, lanes, preceding)


def _pair_key(p):
    return (p.leader.vehicle_id, p.follower.vehicle_id, p.overlap_start, p.overlap_len,
            p.leader.positions.tobytes(), p.follower.positions.tobytes())


@pytest.mark.parametrize("seed", range(8))
def test_pairing_matches_per_frame_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        tset = _random_set(rng)
        for lane_filter in (None, 1, 2):
            got_pairs, got = pair_leader_follower(tset, lane_filter=lane_filter, min_samples=8)
            want_pairs, want = _pair_reference(tset, lane_filter=lane_filter, min_samples=8)
            assert [_pair_key(p) for p in got_pairs] == [_pair_key(p) for p in want_pairs]
            assert got.rejected_nonpositive == want.rejected_nonpositive
            assert got.short_pairs == want.short_pairs
            for t in got.rejected_nonpositive + got.short_pairs:
                assert all(type(v) is int for v in t)


def test_pairing_of_an_empty_set():
    pairs, diag = pair_leader_follower(TrajectorySet({}, {}, {}))
    assert pairs == [] and not diag.rejected_nonpositive and not diag.short_pairs


def test_vehicle_pair_validates_trim_and_headway():
    tr = Trajectory(1, 0, np.arange(5.0), np.ones(5), np.zeros(5))
    behind = Trajectory(2, 0, np.arange(5.0) - 3.0, np.ones(5), np.zeros(5))
    VehiclePair(tr, behind, 0, 5)  # fine
    with pytest.raises(ValueError):
        VehiclePair(tr, behind, 0, 4)  # wrong window length
    with pytest.raises(DataError, match=r"pair \(2, 1\) has nonpositive headway"):
        VehiclePair(behind, tr, 0, 5)  # leader behind follower


def test_pair_index_round_trip(tmp_path):
    tset = build_trajectories(_table(_two_vehicle_records(n=25)))
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
    with pytest.raises(ValueError, match="initial headway 3.0 m <= b_c 3.0 m"):
        generate_synthetic_pair(theta, ConstantProfile(12.0), 10.0, theta.b_c)
