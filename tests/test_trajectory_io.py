"""Tests for trajectory parsing, table files and pairing."""
from __future__ import annotations

import io
import json
import re
import time
import warnings
import zipfile
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest

from stopgo.calibration import GaConfig, _bounds_arrays, _PairGa
from stopgo.carfollowing import (
    PiecewiseProfile,
    equilibrium_headway,
    leader_trajectory,
    simulate_string,
)
from stopgo.cli import (
    SYNTHETIC_DURATION,
    SYNTHETIC_SPEED,
    SYNTHETIC_THETA,
    _synthetic_records,
)
from stopgo.errors import DataError
from stopgo.trajectory_io import (
    FEET_TO_METERS,
    Trajectory,
    TrajectoryTable,
    build_trajectories,
    pair_leader_follower,
    pairs_from_index,
    parse_ngsim_csv,
    read_canonical_csv,
    vehicle_starts,
    write_canonical_csv,
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
    with pytest.raises(DataError, match="^unparsable value in data row 1, column local_y$"):
        _parse(text)


@pytest.mark.parametrize("column, value", [
    ("frame_id", "inf"),
    ("frame_id", "nan"),
    ("frame_id", "2.7"),
    ("vehicle_id", "1e300"),
    ("local_y", "nan"),
    ("local_y", "inf"),
    ("v_vel", "inf"),
    ("v_vel", "-inf"),
    ("lane_id", "nan"),
    ("v_length", "1e400"),
])
def test_parse_rejects_nonfinite_and_nonintegral_fields(column, value):
    # the bad field is in data row 3: a blank line counts as a data row
    good = ["1", "1", "0.0", "0.0", "0.0", "1", "0", "4.5"]
    bad = list(good)
    bad[NGSIM_HEADER.lower().split(",").index(column)] = value
    text = NGSIM_HEADER + "\n" + ",".join(good) + "\n\n" + ",".join(bad) + "\n"
    with pytest.raises(DataError, match=f"^unparsable value in data row 3, column {column}$"):
        _parse(text)


@pytest.mark.parametrize("column, value", [
    ("frame_id", "inf"),
    ("frame_id", "2.7"),
    ("lane_id", "nan"),
    ("local_y_m", "nan"),
    ("v_mps", "inf"),
])
def test_read_canonical_rejects_nonfinite_and_nonintegral_fields(tmp_path, column, value):
    """A table file whose integer column holds a nonintegral or nonfinite value
    (so is stored as floats) or whose float column holds a nonfinite one is a
    data error naming the file and column.  The cases keep the column names of
    the CSV tables: local_y_m is the field local_y, v_mps the field speed."""
    name = {"local_y_m": "local_y", "v_mps": "speed"}.get(column, column)
    columns = {f.name: getattr(_table(_two_vehicle_records(n=2)), f.name) for f in fields(TrajectoryTable)}
    bad = columns[name].astype(float)
    bad[2] = float(value)
    columns[name] = bad
    path = tmp_path / "table.npz"
    np.savez(path, **columns)
    n = len(bad)
    reason = ("is not finite at row 2" if name in ("local_y", "speed")
              else f"is not a 1-D int64 array of {n} rows")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: column {name} {reason}$"):
        read_canonical_csv(path)


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

    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    spoil(crlf, b"\r\n")
    with open(crlf, encoding="utf-8") as fh, pytest.raises(
            DataError, match=re.escape(f"{crlf} is not utf-8 text")):
        parse_ngsim_csv(fh)


def test_parse_names_first_bad_field_by_row_then_column():
    text = _ngsim_text([
        (1, 1, 0.0, 0.0, 0.0, 1, 0, 4.5),
        (1, 2, "x", 0.0, 0.0, 1.5, 0, 4.5),  # local_y precedes lane_id
        (1, "x", 0.0, 0.0, 0.0, 1, 0, 4.5),
    ])
    with pytest.raises(DataError, match="^unparsable value in data row 2, column local_y$"):
        _parse(text)

    with pytest.raises(DataError, match="^unparsable value in data row 2, column v_vel$"):  # short row
        _parse(NGSIM_HEADER + "\n1,1,0.0,0.0,0.0,1,0,4.5\n1,2,0.0\n")


def test_table_length_is_row_count_and_blank_rows_are_skipped(tmp_path):
    rows = [",".join(str(c) for c in (1, f, 10.0 * f, 10.0, 0.0, 1, 0, 4.5)) for f in range(5)]
    text = NGSIM_HEADER + "\n" + "\n".join(rows[:2] + ["", " , ,", "  "] + rows[2:]) + "\n"
    table = _parse(text)
    assert len(table) == 5
    np.testing.assert_array_equal(table.frame_id, np.arange(5))

    path = tmp_path / "blank.csv"  # the same rows in a file on disk
    path.write_text("\n".join([NGSIM_HEADER, *rows[:2], "", *rows[2:]]) + "\n")
    with open(path) as fh:
        back = parse_ngsim_csv(fh)
    assert len(back) == 5
    _assert_same_table(back, table)


def test_rows_of_blanks_and_commas_read_as_the_clean_file(tmp_path):
    rows = [",".join(str(c) for c in (1, f, 10.0 * f, 10.0, 0.0, 1, 0, 4.5)) for f in range(6)]
    clean = _parse(NGSIM_HEADER + "\n" + "\n".join(rows) + "\n")
    for filler in (["  "], [",,,"], [" , ,", "\t", ""]):
        text = NGSIM_HEADER + "\n" + "\n".join(rows[:3] + filler + rows[3:]) + "\n"
        _assert_same_table(_parse(text), clean)

    path = tmp_path / "filled.csv"  # CRLF lines in a file on disk
    path.write_bytes("\r\n".join([NGSIM_HEADER, *rows[:3], " ", ",,,,", "", *rows[3:]]).encode())
    with open(path) as fh:
        _assert_same_table(parse_ngsim_csv(fh), clean)


@pytest.mark.parametrize("body", ["", "\n\n", "  \n", ",,,\n", "\n , ,\n\t\n"])
def test_data_section_of_only_blanks_and_commas_is_empty_input(tmp_path, body):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's "input contained no data" must not leak
        with pytest.raises(DataError, match="no data rows"):
            _parse(NGSIM_HEADER + "\n" + body)
        path = tmp_path / "empty.csv"
        path.write_text(NGSIM_HEADER + "\r\n" + body)
        with open(path) as fh, pytest.raises(DataError, match="no data rows"):
            parse_ngsim_csv(fh)


def test_parse_empty_inputs_raise():
    with pytest.raises(DataError, match="no header row"):
        _parse("")
    with pytest.raises(DataError, match="no data rows"):
        _parse(NGSIM_HEADER + "\n")


def test_parse_bad_units_rejected():
    with pytest.raises(ValueError):
        _parse(_ngsim_text([(1, 1, 0, 0, 0, 1, 0, 4)]), units="furlongs")


def test_canonical_csv_round_trip_is_bit_exact(tmp_path):
    """write_canonical_csv and read_canonical_csv (names from when tables were
    CSV) store and read a table file: every column comes back with its dtype
    and bits, and np.load gives one array per column by field name."""
    rng = np.random.default_rng(17)
    n = 200
    y = rng.normal(size=n) * 123.456
    y[:4] = (-0.0, 5e-324, 1e300, -2.2250738585072014e-308 / 3)  # -0.0, subnormals, a huge value
    records = TrajectoryTable(
        vehicle_id=np.r_[2**53 + 1, 2**62 + 7, -(2**63), rng.integers(1, 50, n - 3)],
        frame_id=np.arange(n),
        local_y=y,
        speed=rng.uniform(0, 30, n),
        accel=np.r_[np.nextafter(0.0, 1.0), rng.normal(size=n - 1)],
        lane_id=rng.integers(1, 6, n),
        preceding_id=rng.integers(0, 50, n),
        vehicle_length=rng.uniform(3, 20, n),
    )
    path = tmp_path / "table.npz"
    write_canonical_csv(records, path)
    back = read_canonical_csv(path)
    _assert_same_table(back, records)
    assert int(back.vehicle_id[0]) == 2**53 + 1 and np.signbit(back.local_y[0])
    with np.load(path) as npz:
        assert npz.files == [f.name for f in fields(TrajectoryTable)]
        for f in fields(TrajectoryTable):
            assert npz[f.name].tobytes() == getattr(records, f.name).tobytes(), f.name

    # writing the read-back must reproduce the file byte for byte
    path2 = tmp_path / "table2.npz"
    write_canonical_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_table_file_bytes_do_not_depend_on_the_time_written(tmp_path):
    """Later stages' config_digests hash table files, so a table written
    twice, 2 s apart (a zip timestamp's resolution), gives the same bytes:
    every zip entry carries the fixed 1980 date."""
    table = _table(_two_vehicle_records(n=20))
    write_canonical_csv(table, tmp_path / "a.npz")
    time.sleep(2.0)
    write_canonical_csv(table, tmp_path / "b.npz")
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
    with zipfile.ZipFile(tmp_path / "a.npz") as zf:
        assert {(i.date_time, i.compress_type) for i in zf.infolist()} == {
            ((1980, 1, 1, 0, 0, 0), zipfile.ZIP_STORED)}


def _by_vehicle(table):
    """Per-vehicle views of a grouped table, keyed by vehicle id: each
    vehicle's rows as a Trajectory, and its lane and leader ids and its
    length per frame."""
    views = SimpleNamespace(trajectories={}, lanes={}, preceding={}, lengths={})
    vids, firsts = np.unique(table.vehicle_id, return_index=True)
    for vid, lo, hi in zip(vids.tolist(), firsts.tolist(), [*firsts[1:].tolist(), len(table)]):
        views.trajectories[vid] = Trajectory(
            int(table.frame_id[lo]), table.local_y[lo:hi], table.speed[lo:hi], table.accel[lo:hi],
        )
        views.lanes[vid] = table.lane_id[lo:hi]
        views.preceding[vid] = table.preceding_id[lo:hi]
        views.lengths[vid] = table.vehicle_length[lo:hi]
    return views


def test_build_trajectories_keeps_longest_run():
    # frames 1-3 and 10-15: the 6-sample run wins, one fragment discarded
    recs = [_record(1, f, float(f)) for f in (1, 2, 3, 10, 11, 12, 13, 14, 15)]
    table, discarded = build_trajectories(_table(recs))
    np.testing.assert_array_equal(table.frame_id, np.arange(10, 16))
    np.testing.assert_array_equal(table.vehicle_id, [1] * 6)
    assert discarded == 1


def test_build_trajectories_duplicate_frame_raises():
    recs = [_record(1, 5, 0.0), _record(1, 5, 1.0)]
    with pytest.raises(DataError, match="^vehicle 1 has duplicate frame 5$"):
        build_trajectories(_table(recs))


def test_build_trajectories_keeps_earlier_of_equal_runs():
    # frames 7-9 and 2-4, rows out of order: the run starting at frame 2 wins
    recs = [_record(1, f, float(f)) for f in (9, 3, 7, 2, 8, 4)]
    table, discarded = build_trajectories(_table(recs))
    np.testing.assert_array_equal(table.frame_id, [2, 3, 4])
    np.testing.assert_array_equal(table.local_y, [2.0, 3.0, 4.0])
    assert discarded == 1


def test_build_trajectories_names_smallest_duplicate():
    recs = [
        _record(5, 1, 0.0), _record(5, 1, 0.0),
        _record(3, 9, 0.0), _record(3, 9, 0.0),
        _record(3, 4, 0.0), _record(3, 4, 0.0),
        _record(2, 1, 0.0), _record(2, 2, 0.0),
    ]
    with pytest.raises(DataError, match="^vehicle 3 has duplicate frame 4$"):
        build_trajectories(_table(recs))


def test_build_trajectories_takes_length_from_first_row_of_kept_run():
    recs = [_record(4, f, float(f), length=4.0 + f / 10) for f in (6, 1, 8, 5, 2, 7)]
    table, _ = build_trajectories(_table(recs))
    np.testing.assert_array_equal(table.frame_id, [5, 6, 7, 8])
    np.testing.assert_array_equal(table.vehicle_length, [4.5] * 4)


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


def _random_records(rng):
    """Rows of 30 vehicles in random order, with missing frames and random
    lanes, leaders, kinematics and lengths on every row."""
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
    return [records[i] for i in rng.permutation(len(records))]


def test_build_trajectories_matches_row_by_row_grouping():
    records = _random_records(np.random.default_rng(5))
    table, got_discarded = build_trajectories(_table(records))
    kept, discarded = _build_reference(records)
    assert got_discarded == discarded > 0
    # the kept runs' rows in vehicle order, each with its run's first length
    want = [(*r[:7], run[0][7]) for run in kept.values() for r in run]
    for j, f in enumerate(fields(TrajectoryTable)):
        np.testing.assert_array_equal(getattr(table, f.name), [r[j] for r in want])
    views = _by_vehicle(table)
    assert list(views.trajectories) == list(kept)
    for vid, run in kept.items():
        tr = views.trajectories[vid]
        assert tr.start_frame == run[0][1] and tr.n == len(run)
        assert np.all(views.lengths[vid] == run[0][7])
        for values, column in (
            (tr.positions, 2), (tr.speeds, 3), (tr.accels, 4),
            (views.lanes[vid], 5), (views.preceding[vid], 6),
        ):
            np.testing.assert_array_equal(values, [r[column] for r in run])


@pytest.mark.parametrize("seed", range(3))
def test_grouping_a_written_grouped_table_gives_it_back(tmp_path, seed):
    """smooth and pair group a table that an earlier stage grouped and wrote;
    grouping it again must keep every row, frame gaps and per-row lengths
    being already resolved."""
    grouped, discarded = build_trajectories(_table(_random_records(np.random.default_rng(seed))))
    assert discarded > 0
    # one block per vehicle in id order, of consecutive frames and one length
    same = grouped.vehicle_id[1:] == grouped.vehicle_id[:-1]
    assert np.all(grouped.vehicle_id[1:] >= grouped.vehicle_id[:-1])
    assert np.all(np.diff(grouped.frame_id)[same] == 1)
    assert np.all(np.diff(grouped.vehicle_length)[same] == 0)
    # vehicle_starts finds each block's first row
    starts = vehicle_starts(grouped)
    np.testing.assert_array_equal(grouped.vehicle_id[starts], np.unique(grouped.vehicle_id))
    assert starts[0] == 0 and not np.any(same[starts[1:] - 1])
    write_canonical_csv(grouped, tmp_path / "grouped.npz")
    again, discarded = build_trajectories(read_canonical_csv(tmp_path / "grouped.npz"))
    assert discarded == 0
    _assert_same_table(again, grouped)


def _two_vehicle_records(n=30, lane=1, gap=20.0):
    recs = []
    for f in range(n):
        recs.append(_record(1, f, gap + 10.0 * 0.1 * f, lane=lane, preceding=0))
        recs.append(_record(2, f, 10.0 * 0.1 * f, lane=lane, preceding=1))
    return recs


def _window(leader_id, follower_id, overlap_start, overlap_len):
    return {"leader_id": leader_id, "follower_id": follower_id,
            "overlap_start": overlap_start, "overlap_len": overlap_len}


def _headways(table, pair):
    """The headways over a (leader_row, follower_row, length) pair of table."""
    lead, follow, n = pair
    return table.local_y[lead : lead + n] - table.local_y[follow : follow + n]


def test_pairing_full_overlap():
    table, _ = build_trajectories(_table(_two_vehicle_records(n=40)))
    windows, diag = pair_leader_follower(table, min_samples=10)
    assert windows == [_window(1, 2, 0, 40)]
    (p,) = pairs_from_index(windows, table)
    assert (table.vehicle_id[p[0]], table.vehicle_id[p[1]], p[2]) == (1, 2, 40)
    np.testing.assert_allclose(_headways(table, p), 20.0)
    assert diag == {"rejected_nonpositive": [], "short_pairs": []}


def test_pairing_splits_on_lane_change():
    # follower hops lanes mid-record: the shared-lane window must break there
    recs = []
    for f in range(30):
        recs.append(_record(1, f, 30.0 + f, lane=1, preceding=0))
        recs.append(_record(2, f, float(f), lane=1 if f < 18 else 2, preceding=1))
    table, _ = build_trajectories(_table(recs))
    windows, _ = pair_leader_follower(table, min_samples=1)
    assert windows == [_window(1, 2, 0, 18)]


def test_pairing_rejects_nonpositive_headway():
    recs = []
    for f in range(20):
        recs.append(_record(1, f, 10.0, lane=1, preceding=0))
        recs.append(_record(2, f, 10.0 + (1.0 if f == 7 else -5.0), lane=1, preceding=1))
    table, _ = build_trajectories(_table(recs))
    windows, diag = pair_leader_follower(table, min_samples=1)
    assert windows == []
    assert diag["rejected_nonpositive"] == [[1, 2, 7]]


def test_pairing_flags_short_pairs_but_returns_them():
    table, _ = build_trajectories(_table(_two_vehicle_records(n=30)))
    windows, diag = pair_leader_follower(table, min_samples=600)
    assert windows == [_window(1, 2, 0, 30)]
    assert diag["short_pairs"] == [[1, 2, 30]]


def test_pairing_lane_filter():
    table, _ = build_trajectories(_table(_two_vehicle_records(lane=3)))
    windows, _ = pair_leader_follower(table, lane_filter=2, min_samples=1)
    assert windows == []
    windows, _ = pair_leader_follower(table, lane_filter=3, min_samples=1)
    assert len(windows) == 1


def _pair_reference(tset, lane_filter=None, min_samples=600):
    """The per-frame pairing loop: grow each window one follower frame at a time.

    Returns each window's _pair_key and the diagnostics, as
    pair_leader_follower's windows and diagnostics hold them."""
    pairs = []
    diag = {"rejected_nonpositive": [], "short_pairs": []}
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
                if not (ltr.start_frame <= frame < ltr.start_frame + ltr.n):
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
            li = start_frame - ltr.start_frame
            leader, follower = ltr.positions[li : li + length], ftr.positions[i:j]
            head = leader - follower
            if np.any(head <= 0):
                diag["rejected_nonpositive"].append([lid, fid, start_frame + int(np.argmax(head <= 0))])
            else:
                pairs.append((lid, fid, start_frame, length, leader.tobytes(), follower.tobytes()))
                if length < min_samples:
                    diag["short_pairs"].append([lid, fid, length])
            i = j
    pairs.sort(key=lambda p: (-p[3], p[0], p[1]))
    return pairs, diag


def _runs(rng, n, choices):
    """n values drawn from choices in runs of 1 to 15 frames."""
    out = []
    while len(out) < n:
        out += [choices[rng.integers(len(choices))]] * int(rng.integers(1, 16))
    return np.array(out[:n], dtype=np.int64)


def _random_table(rng, vehicles=12):
    """A grouped table of vehicles over partly shared frame ranges, each
    following a random mix of other vehicles, none, itself and unknown ids,
    over changing lanes.  Positions grow with the vehicle id, with dips that
    make some headways nonpositive."""
    vids = [int(v) for v in rng.choice(np.arange(1, 60), vehicles, replace=False)]
    blocks = []
    for vid in vids:
        n = int(rng.integers(1, 90))
        start = int(rng.integers(0, 60))
        pos = 3.0 * vid + np.cumsum(rng.uniform(0, 1, n))
        pos[rng.random(n) < 0.02] -= 200.0
        lanes = _runs(rng, n, [1, 2, 3] if rng.random() < 0.5 else [2])
        preceding = _runs(rng, n, vids[:4] + [0, vid, 999, 60])
        blocks.append((np.full(n, vid), start + np.arange(n), pos, np.ones(n), np.zeros(n),
                       lanes, preceding, np.full(n, 4.5)))
    table, discarded = build_trajectories(TrajectoryTable(*map(np.concatenate, zip(*blocks))))
    assert discarded == 0
    return table


def _pair_key(table, pair):
    """A pair's leader and follower id, first frame, length and positions."""
    lead, follow, n = pair.tolist()
    return (int(table.vehicle_id[lead]), int(table.vehicle_id[follow]), int(table.frame_id[lead]), n,
            table.local_y[lead : lead + n].tobytes(), table.local_y[follow : follow + n].tobytes())


def _assert_pairs_json(value):
    """value is a list or dict of lists, dicts and Python ints that a JSON
    round trip gives back equal."""
    assert json.loads(json.dumps(value)) == value
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, dict)):
            stack.extend(item.values() if isinstance(item, dict) else item)
        else:
            assert type(item) is int


@pytest.mark.parametrize("seed", range(8))
def test_pairing_matches_per_frame_loop(seed):
    rng = np.random.default_rng(seed)
    for _ in range(6):
        table = _random_table(rng)
        for lane_filter in (None, 1, 2):
            windows, got = pair_leader_follower(table, lane_filter=lane_filter, min_samples=8)
            want_pairs, want = _pair_reference(_by_vehicle(table), lane_filter=lane_filter, min_samples=8)
            assert windows == [_window(*key[:4]) for key in want_pairs]
            assert [_pair_key(table, p) for p in pairs_from_index(windows, table)] == want_pairs
            assert got == want
            _assert_pairs_json(windows)
            _assert_pairs_json(got)


def test_each_row_range_names_its_window():
    """Every window's row ranges hold the entry's leader and follower over
    its frames, and the GA's observed headways are the leader's local_y
    minus the follower's, found by vehicle and frame, bit for bit."""
    lo, hi = _bounds_arrays(None)
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(12):
        table = _random_table(rng)
        windows, _ = pair_leader_follower(table, min_samples=1)
        for entry, rows in zip(windows, pairs_from_index(windows, table)):
            lead, follow, n = rows.tolist()
            frames = entry["overlap_start"] + np.arange(entry["overlap_len"])
            assert n == entry["overlap_len"]
            for row, vid in ((lead, entry["leader_id"]), (follow, entry["follower_id"])):
                assert np.all(table.vehicle_id[row : row + n] == vid)
                assert np.array_equal(table.frame_id[row : row + n], frames)
            leader_y, follower_y = (
                table.local_y[(table.vehicle_id == entry[key]) & np.isin(table.frame_id, frames)]
                for key in ("leader_id", "follower_id"))
            ga = _PairGa(table, rows, lo, hi, GaConfig(population_size=3), 0)
            assert ga.data.tobytes() == (leader_y - follower_y).tobytes()
            checked += 1
    assert checked >= 20


def test_pairing_of_an_empty_set():
    one = _table([_record(1, 0, 0.0)])
    empty = TrajectoryTable(*(getattr(one, f.name)[:0] for f in fields(TrajectoryTable)))
    windows, diag = pair_leader_follower(empty)
    assert windows == [] and diag == {"rejected_nonpositive": [], "short_pairs": []}


def test_pairs_from_index_rejects_a_leader_behind_its_follower():
    # vehicle 2 runs 3 m behind vehicle 1 over frames 10-14
    table = _table([_record(v, 10 + f, f - 3.0 * (v - 1)) for v in (1, 2) for f in range(5)])
    assert pairs_from_index([_window(1, 2, 10, 5)], table).tolist() == [[0, 5, 5]]  # fine
    with pytest.raises(DataError, match=r"^pair of leader 2 and follower 1, 5 frames from frame 10: "
                                        r"pair \(2, 1\) has nonpositive headway at frame 10$"):
        pairs_from_index([_window(2, 1, 10, 5)], table)  # leader behind follower


def test_pair_index_round_trip(tmp_path):
    table, _ = build_trajectories(_table(_two_vehicle_records(n=25)))
    windows, _ = pair_leader_follower(table, min_samples=1)
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(windows))
    index = json.loads(path.read_text())
    assert index == windows
    (rebuilt,) = pairs_from_index(index, table)
    assert rebuilt.tolist() == [0, 25, 25]
    assert table.frame_id[0] == table.frame_id[25] == windows[0]["overlap_start"]


def test_pair_trajectories_hold_python_ints():
    table, _ = build_trajectories(_table(_two_vehicle_records(n=5)))
    windows, diag = pair_leader_follower(table, min_samples=10)
    assert len(windows) == 1 and diag["short_pairs"] == [[1, 2, 5]]
    _assert_pairs_json(windows)
    _assert_pairs_json(diag)
    pairs = pairs_from_index(windows, table)
    assert pairs.dtype == np.int64 and pairs.tolist() == [[0, 5, 5]]


def test_synthetic_pair_shapes_and_headway():
    """--input synthetic is one leader (1) and its modeled follower (2) over
    the same 1000 frames, the follower behind at every one."""
    table, discarded = build_trajectories(_synthetic_records(None, 0.0))
    assert discarded == 0
    windows, diag = pair_leader_follower(table)
    assert windows == [_window(1, 2, 0, 1000)] and diag == {"rejected_nonpositive": [], "short_pairs": []}
    (pair,) = pairs_from_index(windows, table)
    assert np.all(_headways(table, pair) > 0)

    # the same table as a string built by hand: the follower at its
    # equilibrium headway behind a one-step leader, ids 1 and 2 in one lane
    leader = leader_trajectory(PiecewiseProfile(((0.0, SYNTHETIC_SPEED),)), SYNTHETIC_DURATION)
    x0 = leader.positions[0] - equilibrium_headway(SYNTHETIC_THETA, SYNTHETIC_SPEED)
    follower = simulate_string(leader, (SYNTHETIC_THETA,), x0, 12.0, 0.0)[1]
    n = leader.n
    expected = TrajectoryTable(
        vehicle_id=np.repeat([1, 2], n),
        frame_id=np.tile(np.arange(n), 2),
        local_y=np.concatenate([leader.positions, follower.positions]),
        speed=np.concatenate([leader.speeds, follower.speeds]),
        accel=np.concatenate([leader.accels, follower.accels]),
        lane_id=np.ones(2 * n, dtype=np.int64),
        preceding_id=np.repeat([0, 1], n),
        vehicle_length=np.full(2 * n, 4.5),
    )
    records = _synthetic_records(None, 0.0)
    for f in fields(TrajectoryTable):
        got, want = getattr(records, f.name), getattr(expected, f.name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name
