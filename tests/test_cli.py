"""Command-line interface tests: stage artifacts, manifests, exit codes."""
from __future__ import annotations

import io
import json
import math
import os
import shutil
import subprocess
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import stopgo
from stopgo import cli
from stopgo.calibration import GaConfig
from stopgo.carfollowing import VEHICLE_LENGTH, SinusoidProfile, simulate_platoon
from stopgo.cli import UsageError, build_parser, main
from stopgo.errors import DataError
from stopgo.smoothing import SmoothingConfig
from stopgo.stability import FrequencyGrid, LinearizedHdv, platoon_critical_frequency
from stopgo.trajectory_io import DT, FEET_TO_METERS, MIN_CALIBRATION_SAMPLES, read_canonical_csv

# shrink the gain search where a test does not care about the full grid
FAST_GRID = '{"k1": [0.0, 0.0, 0.05], "k2": [0.1, 1.0, 0.1], "k3": [0.1, 1.0, 0.1]}'


def run(*argv):
    return main([str(a) for a in argv])


def _read_json(path):
    return json.loads(path.read_text())


@pytest.fixture()
def ingested(tmp_path):
    out = tmp_path / "01"
    assert run("ingest", "--input", "synthetic", "--seed", 3, "--out", out) == 0
    return out


@pytest.fixture()
def paired(tmp_path, ingested):
    sm = tmp_path / "02"
    assert run("smooth", "--input", ingested, "--out", sm) == 0
    pr = tmp_path / "03"
    assert run("pair", "--input", sm, "--min-samples", 60, "--out", pr) == 0
    return pr


@pytest.fixture(scope="session")
def chain(tmp_path_factory):
    """One full stage chain, shared: the calibrate stage needs its real
    budget to produce a model that supports the later stages."""
    root = tmp_path_factory.mktemp("chain")
    assert run("ingest", "--input", "synthetic", "--seed", 3, "--out", root / "01") == 0
    assert run("smooth", "--input", root / "01", "--out", root / "02") == 0
    assert run("pair", "--input", root / "02", "--out", root / "03") == 0
    assert run("calibrate", "--input", root / "03", "--seed", 11,
               "--out", root / "04") == 0
    assert run("stability", "--input", root / "04", "--v-star", 12.0,
               "--out", root / "05") == 0
    assert run("optimize-gains", "--input", root / "05", "--platoon", 6,
               "--gain-grid", FAST_GRID, "--out", root / "06") == 0
    return root


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == 1


def test_no_subcommand_is_usage_error():
    assert run() == 1


def test_calibrate_requires_seed(tmp_path, paired):
    rc = run("calibrate", "--input", paired, "--out", tmp_path / "04")
    assert rc == 1


def test_pipeline_requires_seed(tmp_path):
    rc = run("pipeline", "--input", "synthetic", "--out", tmp_path / "p")
    assert rc == 1


@pytest.mark.parametrize("error, code, label", [
    (ValueError("bad argument"), 1, "stopgo: error: bad argument"),
    (UsageError("bad flag"), 1, "stopgo: error: bad flag"),
    (DataError("bad data"), 2, "stopgo: data error: bad data"),
], ids=["ValueError", "UsageError", "DataError"])
def test_each_error_type_has_one_exit_code_and_label(tmp_path, capsys, monkeypatch,
                                                     error, code, label):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "cmd_ingest", fail)
    assert run("ingest", "--input", "synthetic", "--out", tmp_path / "out") == code
    assert capsys.readouterr().err == label + "\n"


def test_missing_input_is_data_error(tmp_path):
    rc = run("smooth", "--input", tmp_path / "nowhere", "--out", tmp_path / "out")
    assert rc == 2


def test_ingest_of_a_directory_names_it(tmp_path, capsys):
    assert run("ingest", "--input", tmp_path, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"stopgo: data error: input {tmp_path} is a directory, not a file\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["the file", "below the file"])
def test_out_that_is_not_a_directory_fails_while_parsing(tmp_path, capsys, chain, below):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    for head in (["ingest", "--input", "synthetic"],
                 ["optimize-gains", "--input", chain / "05", "--gain-grid", FAST_GRID],
                 ["pipeline", "--input", "synthetic", "--seed", 1]):
        assert run(*head, "--out", taken / below) == 1, head[0]
        assert capsys.readouterr().err == (
            f"stopgo: error: --out must name a directory, but {taken} is not one\n"), head[0]
    assert taken.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [taken]


def test_ingest_synthetic_artifacts(ingested):
    assert (ingested / "trajectories.npz").exists()
    summary = _read_json(ingested / "ingest_summary.json")
    assert summary["vehicles"] == 2
    man = _read_json(ingested / "manifest.json")
    assert man["subcommand"] == "ingest"
    assert man["rng_seed"] == 3
    assert len(man["config_digest"]) == 64
    assert man["started"] <= man["finished"]


def test_synthetic_trajectories_record_each_vehicle_length(ingested):
    with np.load(ingested / "trajectories.npz") as table:
        pairs = set(zip(table["vehicle_id"].tolist(), table["vehicle_length"].tolist()))
    assert pairs == {(1, 4.5), (2, 4.5)}


def test_ingest_determinism_and_seed_sensitivity(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("ingest", "--input", "synthetic", "--seed", 5, "--out", a) == 0
    assert run("ingest", "--input", "synthetic", "--seed", 5, "--out", b) == 0
    assert (a / "trajectories.npz").read_bytes() == (b / "trajectories.npz").read_bytes()
    da = _read_json(a / "manifest.json")["config_digest"]
    db = _read_json(b / "manifest.json")["config_digest"]
    assert da == db

    # without measurement noise the generated pair is seed-independent, but
    # the configuration digest still records the differing seed
    c = tmp_path / "c"
    assert run("ingest", "--input", "synthetic", "--seed", 6, "--out", c) == 0
    assert (c / "trajectories.npz").read_bytes() == (a / "trajectories.npz").read_bytes()
    assert _read_json(c / "manifest.json")["config_digest"] != da

    # with noise the seed drives the perturbation
    n1, n2 = tmp_path / "n1", tmp_path / "n2"
    assert run("ingest", "--input", "synthetic", "--seed", 5, "--noise", 0.2,
               "--out", n1) == 0
    assert run("ingest", "--input", "synthetic", "--seed", 6, "--noise", 0.2,
               "--out", n2) == 0
    assert (n1 / "trajectories.npz").read_bytes() != (n2 / "trajectories.npz").read_bytes()


def test_ingest_parses_csv_files(tmp_path):
    header = "Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length"
    rows = [f"2,{f},{100.0 + 40.0 * f},40.0,0.0,1,0,14.8" for f in range(12)]
    rows += [f"5,{f},{40.0 * f},40.0,0.0,1,2,15.2" for f in range(12)]
    raw = tmp_path / "raw.csv"
    raw.write_text(header + "\n" + "\n".join(rows) + "\n")

    out = tmp_path / "ingested"
    assert run("ingest", "--input", raw, "--out", out) == 0  # feet by default
    summary = _read_json(out / "ingest_summary.json")
    assert summary["records"] == 24 and summary["vehicles"] == 2
    assert summary["units"] == "feet"
    with np.load(out / "trajectories.npz") as table:
        assert table["local_y"][0] == pytest.approx(100.0 * 0.3048)  # feet converted
        assert table["speed"][0] == pytest.approx(40.0 * 0.3048)


def test_ingest_skips_a_utf8_byte_order_mark(tmp_path):
    """A file saved as Excel's "CSV UTF-8" starts with a byte-order mark;
    it reads as the same file without one."""
    header = "Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length"
    rows = [f"2,{f},{100.0 + 40.0 * f},40.0,0.0,1,0,14.8" for f in range(12)]
    text = header + "\n" + "\n".join(rows) + "\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for raw in (plain, marked):
        assert run("ingest", "--input", raw, "--out", tmp_path / raw.stem) == 0
    for name in ("trajectories.npz", "ingest_summary.json"):
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_ingest_nonfinite_field_is_data_error(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length\n"
                   "2,1,100.0,40.0,0.0,1,0,14.8\n2,inf,140.0,40.0,0.0,1,0,14.8\n")
    assert run("ingest", "--input", raw, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "stopgo: data error: unparsable value in data row 2, column frame_id" in err


def test_ingest_undecodable_file_is_data_error(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(b"Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length\n"
                    b"2,1,100.0,40.0,0.0,1,0,14.8\n2,2,1\xff40.0,40.0,0.0,1,0,14.8\n")
    out = tmp_path / "out"
    assert run("ingest", "--input", raw, "--out", out) == 2
    assert capsys.readouterr().err == f"stopgo: data error: {raw} is not utf-8 text: invalid start byte\n"
    assert not out.exists()


def test_ingest_duplicate_frame_is_data_error(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length\n"
                   "7,100,1.0,1.0,0.0,1,0,14.8\n7,100,2.0,1.0,0.0,1,0,14.8\n")
    out = tmp_path / "out"
    assert run("ingest", "--input", raw, "--out", out) == 2
    assert capsys.readouterr().err == "stopgo: data error: vehicle 7 has duplicate frame 100\n"
    assert not out.exists()


def test_smooth_of_a_directory_without_trajectories_names_it(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "out"
    assert run("smooth", "--input", empty, "--out", out) == 2
    assert capsys.readouterr().err == f"stopgo: data error: none of trajectories.npz found in {empty}\n"
    assert not out.exists()


def _table_columns(path):
    with np.load(path) as table:
        return {name: table[name] for name in table.files}


_FIELDS = ["vehicle_id", "frame_id", "local_y", "speed", "accel", "lane_id", "preceding_id",
           "vehicle_length"]


def test_trajectories_with_a_noncanonical_header_are_data_error(tmp_path, capsys, ingested):
    """A table file whose columns are not named as TrajectoryTable's fields
    (here frame_id renamed) is a data error, before --out exists."""
    src = tmp_path / "renamed"
    src.mkdir()
    columns = _table_columns(ingested / "trajectories.npz")
    columns["frame"] = columns.pop("frame_id")
    np.savez(src / "trajectories.npz", **columns)
    out = tmp_path / "out"
    assert run("smooth", "--input", src, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"stopgo: data error: {src / 'trajectories.npz'}: holds columns ['accel', 'frame', 'lane_id', "
        f"'local_y', 'preceding_id', 'speed', 'vehicle_id', 'vehicle_length'], not {_FIELDS}\n")
    assert not out.exists()


def _edited(edit):
    """A spoiler that writes the good table's columns as edit returns them."""
    return lambda columns, path: np.savez(path, **edit(columns))


def _npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _with_speed_member(data):
    """A spoiler that writes the good table with speed.npy holding data(its .npy bytes)."""
    def spoil(columns, path):
        with zipfile.ZipFile(path, "w") as zf:
            for name, col in columns.items():
                zf.writestr(f"{name}.npy", (data if name == "speed" else bytes)(_npy_bytes(col)))
    return spoil


def _patched(offset, value):
    """A spoiler that sets the file's byte at offset(its bytes) to value."""
    def spoil(columns, path):
        raw = bytearray(path.read_bytes())
        raw[offset(raw)] = value
        path.write_bytes(raw)
    return spoil


def _spoiled_at(name, row, value):
    def edit(columns):
        col = columns[name].copy()
        col[row] = value
        return columns | {name: col}
    return _edited(edit)


# (spoiler of a good table file at path, the message after "<path>: "); the
# synthetic table has 2000 rows
BAD_TABLES = {
    "not a zip": (lambda columns, path: path.write_text("vehicle_id,frame_id\r\n1,2\r\n"),
                  "not a table file: File is not a zip file"),
    "truncated": (lambda columns, path: path.write_bytes(path.read_bytes()[:-100]),
                  "not a table file: File is not a zip file"),
    "empty": (lambda columns, path: path.write_bytes(b""), "not a table file: File is not a zip file"),
    "a .npy file": (lambda columns, path: path.write_bytes(_npy_bytes(columns["local_y"])),
                    "not a table file: File is not a zip file"),
    "pickled member": (_edited(lambda c: c | {"vehicle_id": c["vehicle_id"].astype(object)}),
                       "not a table file: Object arrays cannot be loaded when allow_pickle=False"),
    # the last central directory entry is vehicle_length.npy's; its flags sit at +8, its method at +10
    "encrypted member": (_patched(lambda raw: raw.rindex(b"PK\x01\x02") + 8, 1),
                         "not a table file: File 'vehicle_length.npy' is encrypted, password required "
                         "for extraction"),
    "unknown compression": (_patched(lambda raw: raw.rindex(b"PK\x01\x02") + 10, 99),
                            "not a table file: That compression method is not supported"),
    # the central directory's offset, 2**30 past where it lies: a seek before the file's start
    "central directory moved": (_patched(lambda raw: len(raw) - 3, 0x40),
                                "not a table file: [Errno 22] Invalid argument"),
    "unclosed .npy header": (_with_speed_member(lambda npy: npy.replace(b"}", b" ", 1)),
                             "not a table file: ('EOF in multi-line statement', (2, 0))"),
    "bytes member": (_with_speed_member(lambda npy: b"not an array"),
                     "column speed is not a 1-D float64 array of 2000 rows"),
    "missing column": (_edited(lambda c: {k: v for k, v in c.items() if k != "vehicle_length"}),
                       f"holds columns {sorted(_FIELDS)[:-1]}, not {_FIELDS}"),
    "extra column": (_edited(lambda c: c | {"t": c["frame_id"] * 0.1}),
                     f"holds columns {sorted([*_FIELDS, 't'])}, not {_FIELDS}"),
    "float ids": (_edited(lambda c: c | {"frame_id": c["frame_id"].astype(float)}),
                  "column frame_id is not a 1-D int64 array of 2000 rows"),
    "int32 lanes": (_edited(lambda c: c | {"lane_id": c["lane_id"].astype(np.int32)}),
                    "column lane_id is not a 1-D int64 array of 2000 rows"),
    "float32 speeds": (_edited(lambda c: c | {"speed": c["speed"].astype(np.float32)}),
                       "column speed is not a 1-D float64 array of 2000 rows"),
    "2-D column": (_edited(lambda c: c | {"accel": c["accel"].reshape(-1, 2)}),
                   "column accel is not a 1-D float64 array of 2000 rows"),
    "0-D column": (_edited(lambda c: c | {"vehicle_length": c["vehicle_length"][0]}),
                   "column vehicle_length is not a 1-D float64 array of 2000 rows"),
    "short column": (_edited(lambda c: c | {"preceding_id": c["preceding_id"][:-1]}),
                     "column preceding_id is not a 1-D int64 array of 2000 rows"),
    "zero rows": (_edited(lambda c: {k: v[:0] for k, v in c.items()}), "no data rows"),
    "nan": (_spoiled_at("local_y", 5, np.nan), "column local_y is not finite at row 5"),
    "inf": (_spoiled_at("vehicle_length", 1999, -np.inf),
            "column vehicle_length is not finite at row 1999"),
}


@pytest.mark.parametrize("case", BAD_TABLES)
def test_bad_table_file_is_data_error(tmp_path, capsys, ingested, case):
    spoil, problem = BAD_TABLES[case]
    src = tmp_path / "bad"
    shutil.copytree(ingested, src)
    table = src / "trajectories.npz"
    spoil(_table_columns(table), table)
    out = tmp_path / "out"
    assert run("smooth", "--input", src, "--out", out) == 2
    assert capsys.readouterr().err == f"stopgo: data error: {table}: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("case", ["truncated", "nan"])
def test_calibrate_of_a_bad_table_file_is_data_error(tmp_path, capsys, paired, case):
    spoil, problem = BAD_TABLES[case]
    table = paired / "trajectories.npz"
    spoil(_table_columns(table), table)
    out = tmp_path / "out"
    assert run("calibrate", "--input", paired, "--seed", 1, "--out", out) == 2
    assert capsys.readouterr().err == f"stopgo: data error: {table}: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("stage, source, alone, beside, flags", [
    ("calibrate", "03", "pairs.json", "trajectories.npz", ["--seed", 1]),
], ids=["calibrate"])
def test_stage_input_alone_names_the_file_it_needs_beside_it(tmp_path, capsys, chain,
                                                             stage, source, alone, beside, flags):
    lone = tmp_path / "lone"
    lone.mkdir()
    shutil.copyfile(chain / source / alone, lone / alone)
    out = tmp_path / "out"
    assert run(stage, "--input", lone, *flags, "--out", out) == 2
    assert capsys.readouterr().err == f"stopgo: data error: {lone / beside} must sit next to {alone}\n"
    assert not out.exists()


def test_simulate_of_gains_json_alone_checks_the_fleet_it_records(tmp_path, chain):
    """gains.json records the drivers and grid the gains were designed on, so
    simulate writes the same files from it alone as from its stage directory."""
    lone = tmp_path / "lone"
    lone.mkdir()
    shutil.copyfile(chain / "06" / "gains.json", lone / "gains.json")
    for src, out in ((chain / "06", tmp_path / "full"), (lone, tmp_path / "alone")):
        assert run("simulate", "--input", src, "--duration", 60, "--out", out) == 0
    files = _stage_files(tmp_path / "full")
    assert set(files) == {Path("platoon.npz"), Path("simulate_summary.json")}
    assert _stage_files(tmp_path / "alone") == files


def test_smooth_reduces_acceleration_exceedance(tmp_path):
    src = tmp_path / "noisy"
    assert run("ingest", "--input", "synthetic", "--seed", 4, "--noise", 0.2,
               "--out", src) == 0
    out = tmp_path / "smoothed"
    assert run("smooth", "--input", src, "--out", out) == 0
    summary = _read_json(out / "smooth_summary.json")
    assert summary["accel_exceedance_after"] < summary["accel_exceedance_before"]
    assert (out / "smoothed.npz").exists()


def test_pair_artifacts(paired):
    doc = _read_json(paired / "pairs.json")
    assert len(doc["pairs"]) == 1
    entry = doc["pairs"][0]
    assert entry["leader_id"] == 1 and entry["follower_id"] == 2
    assert (paired / "trajectories.npz").exists()  # carried along for later stages


@pytest.mark.parametrize("change, problem", [
    ({"follower_id": 77}, "vehicle 77 is not in the trajectory file"),
    ({"overlap_start": 250}, "vehicle 1 has only frames 0-999"),
    ({"overlap_len": 0}, "overlap_len must be positive"),
    ({"leader_id": 2, "follower_id": 1}, "pair (2, 1) has nonpositive headway at frame 0"),
])
def test_calibrate_pair_entry_outside_the_trajectories_is_data_error(
        tmp_path, capsys, paired, change, problem):
    doc = _read_json(paired / "pairs.json")
    entry = doc["pairs"][0] | change
    doc["pairs"] = [entry]
    (paired / "pairs.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run("calibrate", "--input", paired, "--seed", 1, "--out", out) == 2
    window = (f"pair of leader {entry['leader_id']} and follower {entry['follower_id']}, "
              f"{entry['overlap_len']} frames from frame {entry['overlap_start']}")
    assert f"stopgo: data error: {window}: {problem}" in capsys.readouterr().err
    assert not out.exists()


def _set(*keys, value):
    """An edit of the parsed document: the entry at keys set to value."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


TRUNCATED = None  # the file cut in half
# A stage that reads an earlier stage's JSON, the chain directory it reads,
# a file written over there (a text, or an edit of the parsed file), and what
# the data error says after the file's path.
BAD_STAGE_DOCS = [
    ("calibrate", "03", "pairs.json", "{}", " has no key 'pairs'"),
    ("calibrate", "03", "pairs.json", "[1, 2]", " is not a JSON object"),
    ("calibrate", "03", "pairs.json", '{"pairs": [{"leader_id": 1, "overlap_start": 0, '
     '"overlap_len": 1000}]}', "['pairs'][0] has no key 'follower_id'"),
    ("calibrate", "03", "pairs.json", '{"pairs": []}', "['pairs'] is not a nonempty list"),
    ("calibrate", "03", "pairs.json", TRUNCATED, " is not a JSON document"),
    ("stability", "04", "calibration.json", "{}", " has no key 'results'"),
    ("stability", "04", "calibration.json", TRUNCATED, " is not a JSON document"),
    ("optimize-gains", "05", "stability.json", "{}", " has no key 'v_star'"),
    ("optimize-gains", "05", "stability.json", '{"v_star": 12.0, "vehicles": []}',
     " has no key 'omega_grid'"),
    ("optimize-gains", "05", "stability.json", '{"v_star": 12.0, "vehicles": [], "omega_grid": '
     '{"omega_min": 0.001, "omega_max": 100.0, "points": 40}}', "['vehicles'] is not a nonempty list"),
    ("optimize-gains", "05", "stability.json", TRUNCATED, " is not a JSON document"),
    ("simulate", "06", "gains.json", "{}", " has no key 'v_star'"),
    ("simulate", "06", "gains.json", TRUNCATED, " is not a JSON document"),
    ("simulate", "06", "gains.json", lambda doc: doc.pop("omega_grid"), " has no key 'omega_grid'"),
    ("simulate", "06", "gains.json", _set("vehicles", 0, "theta", value="theta"),
     "['vehicles'][0]['theta'] is not a JSON object"),
    # a value its type rejects
    ("stability", "04", "calibration.json", _set("results", 0, "theta", "alpha", value=100.0),
     "['results'][0]['theta']: alpha=100.0 outside [1.0, 10.0]"),
    ("optimize-gains", "05", "stability.json", _set("vehicles", 0, "theta", "alpha", value=100.0),
     "['vehicles'][0]['theta']: alpha=100.0 outside [1.0, 10.0]"),
    ("optimize-gains", "05", "stability.json", _set("v_star", value=-1.0),
     "['v_star']: must be at least 0.0, got -1.0"),
    ("optimize-gains", "05", "stability.json", _set("omega_grid", "omega_min", value=-1.0),
     "['omega_grid']: require 0 < omega_min < omega_max"),
    ("simulate", "06", "gains.json", _set("best", "k1", value=-1.0), "['best']: gains must be nonnegative"),
    ("simulate", "06", "gains.json", _set("lambda2", value=-1.0), ": lambda2 must be nonnegative"),
    ("simulate", "06", "gains.json", _set("platoon", value=0), "['platoon']: must be at least 1, got 0"),
    ("simulate", "06", "gains.json", _set("vehicles", 0, "theta", "tau", value=-0.1),
     "['vehicles'][0]['theta']: tau=-0.1 outside [0.0, 3.0]"),
    # a fit whose desired-speed curve never reaches --v-star (b_c above b_f)
    ("stability", "04", "calibration.json",
     lambda doc: doc["results"][0]["theta"].update(b_c=6.46, b_f=1.95, m=4.04),
     "['results'][0]: v_star=12.0 m/s is at or above the curve's supremum 0.000"),
    ("optimize-gains", "05", "stability.json",
     lambda doc: doc["vehicles"][0]["theta"].update(b_c=6.46, b_f=1.95, m=4.04),
     "['vehicles'][0]: v_star=12.0 m/s is at or above the curve's supremum 0.000"),
    ("simulate", "06", "gains.json",
     lambda doc: doc["vehicles"][0]["theta"].update(b_c=6.46, b_f=1.95, m=4.04),
     "['vehicles'][0]: v_star=12.0 m/s is at or above the curve's supremum 0.000"),
    # a controller whose desired headway lambda2 * v_star + lambda3 is nonpositive
    ("simulate", "06", "gains.json", _set("lambda3", value=-50.0),
     "['lambda3']: desired headway -50.0 m must be positive"),
    # a number no double holds: NaN passes every range check written with <
    ("optimize-gains", "05", "stability.json", _set("vehicles", 0, "theta", "beta", value=10**400),
     "['vehicles'][0]['theta']['beta'] is not a finite number"),
    ("optimize-gains", "05", "stability.json", _set("v_star", value=math.nan),
     "['v_star'] is not a finite number"),
    ("optimize-gains", "05", "stability.json", _set("omega_grid", "omega_max", value=math.inf),
     "['omega_grid']['omega_max'] is not a finite number"),
    ("simulate", "06", "gains.json", _set("best", "k2", value=math.nan),
     "['best']['k2'] is not a finite number"),
    ("simulate", "06", "gains.json", _set("lambda3", value=math.nan),
     "['lambda3'] is not a finite number"),
]


@pytest.mark.parametrize("stage, source, name, text, problem", BAD_STAGE_DOCS,
                         ids=[f"{stage} {name}{problem}" for stage, _, name, _, problem in BAD_STAGE_DOCS])
def test_bad_stage_document_is_data_error(tmp_path, capsys, chain, stage, source, name, text,
                                          problem):
    stage_in = tmp_path / source
    shutil.copytree(chain / source, stage_in)
    doc = stage_in / name
    body = doc.read_text()
    if text is TRUNCATED:
        text = body[: len(body) // 2]
    elif callable(text):
        parsed = json.loads(body)
        text(parsed)
        text = json.dumps(parsed)
    doc.write_text(text)
    seed = ["--seed", 1] if stage == "calibrate" else []
    out = tmp_path / "out"
    assert run(stage, "--input", stage_in, *seed, "--out", out) == 2
    assert f"stopgo: data error: {doc}{problem}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["optimize-gains", "simulate"])
@pytest.mark.parametrize("flag", ["--omega-min", "--omega-max", "--omega-points"])
def test_only_stability_takes_the_frequency_grid(tmp_path, capsys, stage, flag):
    with pytest.raises(SystemExit) as exc:
        run(stage, "--input", tmp_path / "missing", flag, 50, "--out", tmp_path / "out")
    assert exc.value.code == 1
    assert f"stopgo: error: unrecognized arguments: {flag} 50" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _stage_files(stage_dir):
    """Every file a stage wrote but its manifest, by path relative to the stage."""
    return {p.relative_to(stage_dir): p.read_bytes() for p in sorted(stage_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def test_pipeline_grid_is_the_one_stability_records(tmp_path):
    """The stages after stability, run alone with no grid, write what the
    pipeline writes when it gives its grid to stability."""
    grid = ["--omega-points", 200, "--omega-max", 5]
    pipe = tmp_path / "pipe"
    assert run("pipeline", "--input", "synthetic", "--seed", 5, "--population", 12,
               "--generations", 4, "--stagnation", 4, *grid, "--gain-grid", FAST_GRID,
               "--platoon", 3, "--duration", 30, "--out", pipe) == 0
    assert _read_json(pipe / "05_stability" / "stability.json")["omega_grid"] == {
        "omega_min": FrequencyGrid().omega_min, "omega_max": 5.0, "points": 200}
    alone = tmp_path / "alone"
    assert run("stability", "--input", pipe / "04_calibrate", *grid, "--out", alone / "05_stability") == 0
    assert run("optimize-gains", "--input", alone / "05_stability", "--gain-grid", FAST_GRID,
               "--platoon", 3, "--out", alone / "06_gains") == 0
    assert run("simulate", "--input", alone / "06_gains", "--duration", 30,
               "--out", alone / "07_validate") == 0
    for dirname in ("05_stability", "06_gains", "07_validate"):
        files = _stage_files(pipe / dirname)
        assert files and _stage_files(alone / dirname) == files, dirname
    assert (pipe / "06_gains" / "heatmaps").is_dir()


def test_calibrate_artifacts(chain):
    doc = _read_json(chain / "04" / "calibration.json")
    assert len(doc["results"]) == 1
    res = doc["results"][0]
    assert set(res["theta"]) == {"alpha", "beta", "b_c", "b_f", "v0", "m", "tau"}
    assert res["mixed_error"] < 1e-2  # noise-free synthetic input
    assert res["rng_seed"] == 11
    hist = np.load(chain / "04" / "fitness_history.npz")
    assert sorted(hist.files) == ["best_fitness", "generation", "result"]
    assert (hist["result"].dtype, hist["generation"].dtype, hist["best_fitness"].dtype) == (
        np.int64, np.int64, np.float64)
    generations = range(res["generations_run"] + 1)
    assert list(zip(hist["result"].tolist(), hist["generation"].tolist())) == [(0, g) for g in generations]
    assert np.all(np.diff(hist["best_fitness"]) <= 0)
    assert _read_json(chain / "04" / "manifest.json")["rng_seed"] == 11


def test_stability_artifacts(chain):
    sdoc = _read_json(chain / "05" / "stability.json")
    assert sdoc["v_star"] == 12.0
    veh = sdoc["vehicles"][0]
    for v in sdoc["vehicles"]:
        assert set(v) == {"leader_id", "follower_id", "theta", "k1", "k2", "k3", "tau",
                          "equilibrium_headway", "omega0", "string_stable", "delay_margin",
                          "internally_stable"}
    assert veh["string_stable"] == (veh["omega0"] == 0.0)
    lins = [LinearizedHdv(v["k1"], v["k2"], v["k3"], v["tau"]) for v in sdoc["vehicles"]]
    grid = FrequencyGrid(**sdoc["omega_grid"])
    assert sdoc["platoon_omega0"] == platoon_critical_frequency(lins, grid)
    results = _read_json(chain / "04" / "calibration.json")["results"]
    assert [v["theta"] for v in sdoc["vehicles"]] == [r["theta"] for r in results]
    assert not (chain / "05" / "calibration.json").exists()  # each stage reads one document


def test_optimize_gains_artifacts(chain):
    gdoc = _read_json(chain / "06" / "gains.json")
    assert set(gdoc["best"]) == {"k1", "k2", "k3"}
    assert gdoc["eta"] > 0
    assert gdoc["platoon"] == 6
    heatmaps = sorted((chain / "06" / "heatmaps").glob("heatmap_k1=*.csv"))
    assert len(heatmaps) == 1  # one k1 slice in the fast grid
    assert gdoc["heatmap_files"] == [f"heatmaps/{p.name}" for p in heatmaps]
    # the fleet the gains were designed for: stability.json's drivers and grid
    sdoc = _read_json(chain / "05" / "stability.json")
    assert gdoc["omega_grid"] == sdoc["omega_grid"]
    for v in gdoc["vehicles"]:
        assert set(v) == {"theta", "k1", "k2", "k3", "tau"}
    assert gdoc["vehicles"] == [{k: v[k] for k in ("theta", "k1", "k2", "k3", "tau")}
                                for v in sdoc["vehicles"]]
    assert not {"stability.json", "calibration.json"} & {p.name for p in (chain / "06").iterdir()}


def test_later_stages_derive_each_linearization_from_theta(tmp_path, chain):
    """optimize-gains reads a driver as its theta alone: the linearization
    stability.json records beside it is for readers, so editing every field
    of it leaves gains.json as it was."""
    stage_in = tmp_path / "05"
    shutil.copytree(chain / "05", stage_in)
    doc = stage_in / "stability.json"
    sdoc = _read_json(doc)
    for v in sdoc["vehicles"]:
        v.update(k1=v["k1"] + 1.0, k2=v["k2"] + 1.0, k3=v["k3"] + 1.0, tau=v["tau"] + 0.5)
    doc.write_text(json.dumps(sdoc))
    out = tmp_path / "06"
    assert run("optimize-gains", "--input", stage_in, "--platoon", 6, "--gain-grid", FAST_GRID,
               "--out", out) == 0
    assert (out / "gains.json").read_bytes() == (chain / "06" / "gains.json").read_bytes()


def test_optimize_gains_again_into_one_out_keeps_only_its_heatmaps(chain, tmp_path):
    out = tmp_path / "06"
    for k1 in ("[0, 1, 0.5]", "[0.25, 0.75, 0.5]"):
        grid = f'{{"k1": {k1}, "k2": [0.1, 1.0, 0.1], "k3": [0.1, 1.0, 0.1]}}'
        assert run("optimize-gains", "--input", chain / "05", "--platoon", 6,
                   "--gain-grid", grid, "--out", out) == 0
    listed = _read_json(out / "gains.json")["heatmap_files"]
    assert listed == ["heatmaps/heatmap_k1=0.25.csv", "heatmaps/heatmap_k1=0.75.csv"]
    assert sorted(f"heatmaps/{p.name}" for p in (out / "heatmaps").iterdir()) == listed


def test_calibrate_again_into_one_out_keeps_only_its_histories(tmp_path):
    # one lane of four vehicles at 4 ft per frame, 100 ft apart: three pairs
    header = "Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length"
    rows = [f"{v},{f},{400.0 - 100.0 * v + 4.0 * f},40.0,0.0,1,{v - 1},15.0"
            for v in range(1, 5) for f in range(80)]
    raw = tmp_path / "raw.csv"
    raw.write_text(header + "\n" + "\n".join(rows) + "\n")
    assert run("ingest", "--input", raw, "--out", tmp_path / "01") == 0
    assert run("pair", "--input", tmp_path / "01", "--min-samples", 60, "--out", tmp_path / "03") == 0
    out = tmp_path / "04"
    for pairs in (3, 1):
        assert run("calibrate", "--input", tmp_path / "03", "--seed", 1, "--pairs", pairs,
                   "--population", 4, "--generations", 1, "--out", out) == 0
    results = _read_json(out / "calibration.json")["results"]
    assert len(results) == 1
    assert sorted(p.name for p in out.glob("fitness_history*")) == ["fitness_history.npz"]
    hist = np.load(out / "fitness_history.npz")
    assert list(zip(hist["result"].tolist(), hist["generation"].tolist())) == [
        (0, g) for g in range(results[0]["generations_run"] + 1)]


def test_calibration_names_each_window_of_a_pair(tmp_path):
    """A follower that loses its leader link for frames 700-709 gives two
    windows of one pair; each result and its fitness history stay apart."""
    header = "Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length"
    rows = [f"{v},{f},{300.0 - 100.0 * v + 4.0 * f},40.0,0.0,1,"
            f"{0 if v == 1 or 700 <= f < 710 else 1},15.0"
            for v in (1, 2) for f in range(1400)]
    raw = tmp_path / "raw.csv"
    raw.write_text(header + "\n" + "\n".join(rows) + "\n")
    assert run("ingest", "--input", raw, "--out", tmp_path / "01") == 0
    assert run("pair", "--input", tmp_path / "01", "--out", tmp_path / "03") == 0
    out = tmp_path / "04"
    assert run("calibrate", "--input", tmp_path / "03", "--seed", 1, "--population", 4,
               "--generations", 2, "--out", out) == 0
    results = _read_json(out / "calibration.json")["results"]
    assert [(r["leader_id"], r["follower_id"], r["overlap_start"], r["overlap_len"])
            for r in results] == [(1, 2, 0, 700), (1, 2, 710, 690)]
    hist = np.load(out / "fitness_history.npz")
    assert list(zip(hist["result"].tolist(), hist["generation"].tolist())) == [
        (i, g) for i, r in enumerate(results) for g in range(r["generations_run"] + 1)]


def _lane_csv(path, frame_shift=0, y_shift_ft=0.0, units="feet"):
    """An NGSIM CSV in feet (or meters) of one lane: SYNTHETIC_THETA at
    delays 0.0-0.3 s, all below its 0.4659 s delay margin at 12 m/s, behind a
    leader swinging 1 m/s about 12 m/s at 0.4 rad/s for 40 s; frames and
    Local_Y shifted."""
    drivers = [replace(cli.SYNTHETIC_THETA, tau=tau) for tau in (0.0, 0.1, 0.2, 0.3)]
    table = cli._string_table(simulate_platoon(drivers, SinusoidProfile(12.0, 1.0, 0.4), 12.0, 40.0))
    ft = 1.0 / FEET_TO_METERS if units == "feet" else 1.0
    rows = [f"{v},{f + frame_shift},{y * ft + y_shift_ft!r},{s * ft!r},{a * ft!r},1,{p},{n * ft!r}"
            for v, f, y, s, a, p, n in zip(*(getattr(table, c).tolist() for c in (
                "vehicle_id", "frame_id", "local_y", "speed", "accel", "preceding_id", "vehicle_length")))]
    path.write_text("Vehicle_ID,Frame_ID,Local_Y,v_Vel,v_Acc,Lane_ID,Preceding,v_Length\n"
                    + "\n".join(rows) + "\n")


@pytest.fixture(scope="module")
def shifted_lanes(tmp_path_factory):
    """ingest, smooth, pair and calibrate on _lane_csv as it is, with 100,000
    added to every Frame_ID, with 10,000 ft added to every Local_Y and written
    in meters: each run's calibration.json and fitness_history.npz columns,
    by name."""
    runs = {}
    for name, shift in (("base", {}), ("frames", {"frame_shift": 100_000}),
                        ("local_y", {"y_shift_ft": 10_000.0}), ("meters", {"units": "meters"})):
        root = tmp_path_factory.mktemp(name)
        _lane_csv(root / "lane.csv", **shift)
        units = shift.get("units", "feet")
        assert run("ingest", "--input", root / "lane.csv", "--units", units, "--out", root / "01") == 0
        assert run("smooth", "--input", root / "01", "--out", root / "02") == 0
        assert run("pair", "--input", root / "02", "--out", root / "03") == 0
        assert run("calibrate", "--input", root / "03", "--seed", 1, "--population", 12,
                   "--generations", 8, "--stagnation", 8, "--out", root / "04") == 0
        with np.load(root / "04" / "fitness_history.npz") as hist:
            runs[name] = (_read_json(root / "04" / "calibration.json"), {k: hist[k] for k in hist.files})
    return runs


def test_calibration_does_not_depend_on_frame_numbers(shifted_lanes):
    """Adding 100,000 to every Frame_ID of _lane_csv's four pairs moves only
    each result's overlap_start: θ, the errors and the histories are exact."""
    (base, base_hist), (shifted, shifted_hist) = shifted_lanes["base"], shifted_lanes["frames"]
    assert len(base["results"]) == 4
    assert [r["overlap_start"] for r in shifted["results"]] == [
        r["overlap_start"] + 100_000 for r in base["results"]]
    assert [r | {"overlap_start": 0} for r in shifted["results"]] == [
        r | {"overlap_start": 0} for r in base["results"]]
    assert {k: v.tobytes() for k, v in shifted_hist.items()} == {k: v.tobytes() for k, v in base_hist.items()}


def test_calibration_does_not_depend_on_the_position_origin(shifted_lanes):
    """Adding 10,000 ft to every Local_Y of _lane_csv leaves every θ of its
    four pairs identical."""
    base, shifted = shifted_lanes["base"][0]["results"], shifted_lanes["local_y"][0]["results"]
    assert [r["theta"] for r in shifted] == [r["theta"] for r in base]


def test_calibration_does_not_depend_on_the_length_unit(shifted_lanes):
    """_lane_csv written in meters and ingested with --units meters gives
    every θ of its four pairs identical to the run in feet, and each mixed
    error within 1e-9 relative: the feet run's positions differ from the
    meters run's only by the rounding of the unit conversion."""
    base, meters = shifted_lanes["base"][0]["results"], shifted_lanes["meters"][0]["results"]
    assert len(meters) == len(base) == 4
    assert [r["theta"] for r in meters] == [r["theta"] for r in base]
    for b, m in zip(base, meters):
        assert m["mixed_error"] == pytest.approx(b["mixed_error"], rel=1e-9, abs=0.0)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP Known defect 4's clamp: the third pair's best driver stops at 0 m/s on 116 of "
    "401 steps, and its mixed error moves 6.0e-9 relative"))
def test_calibration_errors_do_not_depend_on_the_position_origin(shifted_lanes):
    """Adding 10,000 ft to every Local_Y of _lane_csv moves each pair's mixed
    error by at most 1e-9 relative.  It does not on the third pair: after 8
    generations its best driver swings between 0 and 71 m/s behind the
    12 m/s leader, and each stop at 0 m/s amplifies the rounding of the
    shifted positions (ROADMAP Known defect 4)."""
    base, shifted = shifted_lanes["base"][0]["results"], shifted_lanes["local_y"][0]["results"]
    for b, s in zip(base, shifted):
        assert s["mixed_error"] == pytest.approx(b["mixed_error"], rel=1e-9, abs=0.0)


def test_simulate_happy_path(chain, tmp_path):
    sim = tmp_path / "07"
    assert run("simulate", "--input", chain / "06", "--duration", 60,
               "--out", sim) == 0
    sdoc = _read_json(sim / "simulate_summary.json")
    assert sdoc["collision"] is None
    assert sdoc["vehicles"] == 6 + 2  # leader + controlled vehicle + platoon
    assert len(sdoc["speed_amplitudes"]) == 8
    assert len(sdoc["min_gaps"]) == 7
    assert all(g > 0 for g in sdoc["min_gaps"])
    assert sdoc["dt"] == DT
    table = read_canonical_csv(sim / "platoon.npz")
    assert np.unique(table.vehicle_id).tolist() == list(range(1, 9))
    # each follower's min_gap is, bit for bit, its least spacing minus a vehicle length
    assert np.all(table.vehicle_id.reshape(8, -1).T == np.arange(1, 9))  # vehicle by vehicle
    x = table.local_y.reshape(8, -1)  # one row of positions per vehicle, leader first
    assert sdoc["min_gaps"] == [float(np.min(x[i - 1] - x[i] - 4.5)) for i in range(1, 8)]


def test_simulate_times_follow_its_step(chain, tmp_path):
    sim = tmp_path / "07"
    assert run("simulate", "--input", chain / "06", "--dt", 0.05, "--duration", 10,
               "--out", sim) == 0
    assert set(read_canonical_csv(sim / "platoon.npz").frame_id.tolist()) == set(range(201))
    assert _read_json(sim / "simulate_summary.json")["dt"] == 0.05


def test_simulated_string_is_a_trajectory_table(chain, tmp_path):
    """simulate's platoon.npz is a table as ingest writes one: pair finds one
    window per follower over every frame, and calibrate fits those windows."""
    sim = tmp_path / "07"
    assert run("simulate", "--input", chain / "06", "--platoon", 3, "--duration", 30,
               "--out", sim) == 0
    table = read_canonical_csv(sim / "platoon.npz")
    n = 3 + 2  # leader + controlled vehicle + platoon
    frames = int(table.frame_id.max()) + 1
    ids = np.repeat(np.arange(1, n + 1), frames)
    assert table.vehicle_id.tolist() == ids.tolist()
    assert table.frame_id.tolist() == list(range(frames)) * n
    assert table.preceding_id.tolist() == (ids - 1).tolist()
    assert np.all(table.lane_id == 1) and np.all(table.vehicle_length == VEHICLE_LENGTH)

    pr = tmp_path / "03"
    assert run("pair", "--input", sim / "platoon.npz", "--min-samples", 60, "--out", pr) == 0
    windows = _read_json(pr / "pairs.json")["pairs"]
    assert sorted((w["leader_id"], w["follower_id"], w["overlap_start"], w["overlap_len"])
                  for w in windows) == [(i, i + 1, 0, frames) for i in range(1, n)]
    cal = tmp_path / "04"
    assert run("calibrate", "--input", pr, "--seed", 1, "--population", 4, "--generations", 1,
               "--out", cal) == 0
    assert len(_read_json(cal / "calibration.json")["results"]) == n - 1


def test_simulate_constant_profile_holds_the_leader_at_v_star(chain, tmp_path):
    sim = tmp_path / "07"
    assert run("simulate", "--input", chain / "06", "--profile", "constant", "--duration", 30,
               "--out", sim) == 0
    sdoc = _read_json(sim / "simulate_summary.json")
    assert sdoc["omega"] == 0.0
    assert sdoc["speed_amplitudes"][0] == 0.0
    assert all(a == 0.0 for a in sdoc["amplification_vs_leader"])
    table = read_canonical_csv(sim / "platoon.npz")
    leader = table.preceding_id == 0
    assert leader.any() and np.all(table.speed[leader] == sdoc["v_star"])


@pytest.mark.parametrize("stage, source, name, flags, kept", [
    ("pair", "01", "trajectories.npz", [], ["trajectories.npz"]),
    ("stability", "04", "", ["--v-star", 12.0], ["calibration.json"]),
    ("optimize-gains", "05", "", ["--platoon", 6, "--gain-grid", FAST_GRID], ["stability.json"]),
], ids=["pair", "stability", "optimize-gains"])
def test_stage_writes_into_its_input_directory(chain, tmp_path, stage, source, name, flags,
                                               kept):
    """--out may be the input's own directory: the input files there, pair's
    carried-forward trajectories.npz among them, stay as they are and the
    stage writes its own manifest."""
    d = tmp_path / "d"
    shutil.copytree(chain / source, d)
    assert run(stage, "--input", d / name, *flags, "--out", d) == 0
    assert _read_json(d / "manifest.json")["subcommand"] == stage
    for file in kept:
        assert (d / file).read_bytes() == (chain / source / file).read_bytes()


@pytest.fixture()
def collided(chain, tmp_path, capsys):
    """(output directory, stderr) of a simulate run that exits 3: an
    all-but-disabled controller ignores a deep slowdown of the leader."""
    gains = tmp_path / "06_doctored"
    shutil.copytree(chain / "06", gains)
    gpath = gains / "gains.json"
    gdoc = _read_json(gpath)
    gdoc["best"] = {"k1": 0.001, "k2": 0.001, "k3": 0.0}
    gpath.write_text(json.dumps(gdoc))

    sim = tmp_path / "07"
    rc = run("simulate", "--input", gains, "--platoon", 1, "--amplitude", 11.9,
             "--omega", 0.3, "--duration", 120, "--out", sim)
    assert rc == 3
    return sim, capsys.readouterr().err


def test_simulate_collision_exit_code_and_partial_dump(collided):
    sim, _ = collided
    sdoc = _read_json(sim / "simulate_summary.json")
    assert sdoc["collision"]["vehicle_index"] == 1
    frame = sdoc["collision"]["frame"]
    # dump truncates at the collision frame
    assert read_canonical_csv(sim / "platoon.npz").frame_id.max() == frame
    assert (sim / "manifest.json").exists()


def test_simulate_collision_names_the_vehicle_as_the_platoon_table_does(collided):
    sim, err = collided
    hit = _read_json(sim / "simulate_summary.json")["collision"]
    vid, frame = hit["vehicle_id"], hit["frame"]
    assert f"collision: vehicle_id {vid} at frame {frame}; " \
           f"partial trajectories written to {sim / 'platoon.npz'}" in err
    table = read_canonical_csv(sim / "platoon.npz")
    x = dict(zip(zip(table.vehicle_id.tolist(), table.frame_id.tolist()), table.local_y.tolist()))
    ahead = dict(zip(table.vehicle_id.tolist(), table.preceding_id.tolist()))
    # the named vehicle follows another and is within a vehicle length of it
    assert ahead[vid] > 0
    assert x[ahead[vid], frame] - x[vid, frame] <= VEHICLE_LENGTH


def test_pipeline_runs_all_stages(tmp_path):
    out = tmp_path / "pipe"
    rc = run("pipeline", "--input", "synthetic", "--seed", 11,
             "--gain-grid", FAST_GRID, "--platoon", 4, "--duration", 60,
             "--out", out)
    assert rc == 0
    stages = [
        "01_ingest/trajectories.npz",
        "02_smooth/smoothed.npz",
        "03_pair/pairs.json",
        "04_calibrate/calibration.json",
        "05_stability/stability.json",
        "06_gains/gains.json",
        "07_validate/simulate_summary.json",
    ]
    for rel in stages:
        assert (out / rel).exists(), rel
    gdoc = _read_json(out / "06_gains" / "gains.json")
    assert gdoc["heatmap_files"]
    for rel in gdoc["heatmap_files"]:
        assert (out / "06_gains" / rel).is_file(), rel
    man = _read_json(out / "manifest.json")
    assert man["subcommand"] == "pipeline"
    assert man["rng_seed"] == 11


def test_stage_manifests_written_everywhere(ingested, paired):
    for stage in (ingested, paired):
        man = _read_json(stage / "manifest.json")
        assert {"subcommand", "config_digest", "tool_version", "rng_seed",
                "started", "finished"} <= set(man)


# the flag is checked before the (here missing) input is read
def test_bounds_value_must_be_a_pair(tmp_path, capsys):
    rc = run("calibrate", "--input", tmp_path / "missing", "--seed", 1,
             "--bounds", '{"alpha": 5}', "--out", tmp_path / "04")
    assert rc == 1
    assert "stopgo: error: --bounds alpha" in capsys.readouterr().err
    assert not (tmp_path / "04").exists()


def test_gain_grid_step_must_be_positive(tmp_path, capsys):
    rc = run("optimize-gains", "--input", tmp_path / "missing",
             "--gain-grid", '{"k1": [0, 1, 0]}', "--out", tmp_path / "06")
    assert rc == 1
    assert "stopgo: error: --gain-grid k1" in capsys.readouterr().err
    assert not (tmp_path / "06").exists()


# flag values of the wrong form, each with its whole stderr line
MALFORMED_FLAGS = [
    ("calibrate", "--bounds", "not json",
     "--bounds is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("calibrate", "--bounds", "[1, 2]", "--bounds must be a JSON object of name: [lo, hi]"),
    ("optimize-gains", "--gain-grid", '{"k4": [0, 1, 0.5]}',
     '--gain-grid must look like {"k1": [lo, hi, step], ...}'),
    ("calibrate", "--population", "abc", "--population must be an integer, got 'abc'"),
    ("smooth", "--tx", "abc", "--tx must be a number, got 'abc'"),
]


@pytest.mark.parametrize("stage, flag, value, problem", MALFORMED_FLAGS,
                         ids=[f"{flag} {value}" for _, flag, value, _ in MALFORMED_FLAGS])
def test_malformed_flag_value_is_usage_error(tmp_path, capsys, stage, flag, value, problem):
    seed = ["--seed", 1] if stage == "calibrate" else []
    out = tmp_path / "out"
    assert run(stage, "--input", tmp_path / "missing", *seed, flag, value, "--out", out) == 1
    assert capsys.readouterr().err == f"stopgo: error: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--pairs", 0), ("--pairs", -1),
                                  ("--generations", -3), ("--stagnation", 0)])
def test_calibrate_rejects_out_of_range_counts(tmp_path, capsys, flag):
    rc = run("calibrate", "--input", tmp_path / "missing", "--seed", 1, *flag,
             "--out", tmp_path / "04")
    assert rc == 1
    assert "stopgo: error:" in capsys.readouterr().err
    assert not (tmp_path / "04").exists()


@pytest.mark.parametrize("stage, flag, value", [
    ("simulate", "--dt", 0), ("simulate", "--dt", -0.1), ("simulate", "--duration", 0),
    ("simulate", "--duration", -5), ("simulate", "--platoon", 0), ("simulate", "--platoon", -2),
    ("optimize-gains", "--platoon", 0), ("optimize-gains", "--platoon", -2),
])
def test_simulate_and_gain_search_reject_out_of_range_sizes(tmp_path, capsys, stage, flag, value):
    rc = run(stage, "--input", tmp_path / "missing", flag, value, "--out", tmp_path / "out")
    assert rc == 1
    assert f"stopgo: error: {flag} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# JSON values that are not numbers: a string, an object's keys, a string
# entry and bools would each be read as a gain axis or a bound
NOT_NUMBERS = [
    *[("optimize-gains", "--gain-grid", f'{{"k1": {axis}}}') for axis in (
        '"011"', '{"0": 1, "1": 2, "0.5": 3}', '[0, 1, "0.5"]', '[false, true, 0.5]')],
    ("calibrate", "--bounds", '{"alpha": [1, true]}'), ("calibrate", "--bounds", '{"tau": [false, false]}'),
]
# one bad value per case, given to the first stage that takes the flag
BAD_FLAGS = [
    ("smooth", "--tx", "0"), ("smooth", "--tx", "nan"), ("ingest", "--noise", "-1"),
    ("calibrate", "--population", "2"), ("calibrate", "--bounds", '{"foo": [1, 2]}'),
    ("calibrate", "--bounds", '{"alpha": [0, 2]}'), ("stability", "--omega-points", "1"),
    ("stability", "--omega-min", "200"), ("optimize-gains", "--beta", "0"),
    ("simulate", "--omega", "0"), ("simulate", "--dt", "0"),
    ("optimize-gains", "--gain-grid", '{"k1": [0, 1, 0.3]}'), ("optimize-gains", "--lambda2", "-1"),
    # 0.1 and 0.1000001 would both write heatmap_k1=0.1.csv
    ("optimize-gains", "--gain-grid", '{"k1": [0.1, 0.1000001, 1e-7]}'),
    *NOT_NUMBERS,
]


@pytest.mark.parametrize("stage, flag, value", BAD_FLAGS,
                         ids=[f"{stage} {flag} {value}" for stage, flag, value in BAD_FLAGS])
def test_bad_flag_fails_before_any_stage_runs(tmp_path, capsys, stage, flag, value):
    seed = ["--seed", 1] if stage == "calibrate" else []
    for head in ([stage, "--input", tmp_path / "missing", *seed],
                 ["pipeline", "--input", "synthetic", "--seed", 1]):
        out = tmp_path / "out"
        assert run(*head, flag, value, "--out", out) == 1, head[0]
        assert f"stopgo: error: {flag}" in capsys.readouterr().err, head[0]
        assert not out.exists(), head[0]


# integers beyond a double's range, which float() cannot convert
HUGE_INTS = [("optimize-gains", "--gain-grid", '{"k1": [0, 1%s, 1]}' % ("0" * 400)),
             ("calibrate", "--bounds", '{"alpha": [1, 1%s]}' % ("0" * 400))]


@pytest.mark.parametrize("stage, flag, value", NOT_NUMBERS + HUGE_INTS,
                         ids=range(len(NOT_NUMBERS + HUGE_INTS)))
def test_json_flag_value_that_is_not_a_number_names_its_key(tmp_path, capsys, stage, flag, value):
    seed = ["--seed", 1] if stage == "calibrate" else []
    key = next(iter(json.loads(value)))
    assert run(stage, "--input", tmp_path / "missing", *seed, flag, value, "--out", tmp_path / "out") == 1
    assert f"stopgo: error: {flag} {key} must be a [lo, hi" in capsys.readouterr().err


# rules over several flags: the default desired headway (the band's middle,
# 35 m) lies outside [40, 30], a 20 m/s swing exceeds --v-star 12, and the
# band [-10, 5] puts the desired headway at -2.5 m
MULTI_FLAG_RULES = [
    (("--headway-min", "40"), "desired headway must lie inside the safe band"),
    (("--amplitude", "20"), "amplitude must stay within [0, v_mean]"),
    (("--headway-min", "-10", "--headway-max", "5"), "desired headway -2.5 m must be positive"),
]


@pytest.mark.parametrize("flags, problem", MULTI_FLAG_RULES,
                         ids=["-".join(flags) for flags, _ in MULTI_FLAG_RULES])
def test_pipeline_checks_multi_flag_rules_before_any_stage_runs(tmp_path, capsys, flags, problem):
    out = tmp_path / "out"
    assert run("pipeline", "--input", "synthetic", "--seed", 1, *flags, "--out", out) == 1
    assert f"stopgo: error: {problem}" in capsys.readouterr().err
    assert not out.exists()


STAGES = ("ingest", "smooth", "pair", "calibrate", "stability", "optimize-gains", "simulate")


@pytest.mark.parametrize("stage", STAGES)
def test_pipeline_flag_defaults_match_each_stage(stage):
    parser = build_parser()
    io = ["--input", "in", "--out", "out"]
    own = vars(parser.parse_args([stage, *io]))
    piped = vars(parser.parse_args(["pipeline", *io]))
    names = set(own) - {"input", "out", "func", "subcommand"}
    if stage == "simulate":
        # pipeline's --platoon sizes the gain search; validation reads gains.json
        names.remove("platoon")
    assert names
    for name in names:
        assert piped[name] == own[name], name


# each default a stage flag takes from the type or constant that owns it
OWNED_DEFAULTS = {
    "smooth": {"tx": SmoothingConfig().t_x, "tv": SmoothingConfig().t_v, "ta": SmoothingConfig().t_a},
    "pair": {"min_samples": MIN_CALIBRATION_SAMPLES},
    "calibrate": {"population": GaConfig().population_size,
                  "generations": GaConfig().max_generations,
                  "stagnation": GaConfig().stagnation_limit},
    "simulate": {"dt": DT},
}


@pytest.mark.parametrize("stage", [*OWNED_DEFAULTS, "pipeline"])
def test_flag_defaults_are_their_owners(stage):
    parsed = vars(build_parser().parse_args([stage, "--input", "in", "--out", "out"]))
    owned = OWNED_DEFAULTS.get(stage) or {k: v for d in OWNED_DEFAULTS.values() for k, v in d.items()}
    # the type matters too: config_digest hashes the parsed value's JSON
    assert {k: (parsed[k], type(parsed[k])) for k in owned} == {
        k: (v, type(v)) for k, v in owned.items()}


def test_config_digest_is_pinned(tmp_path):
    """These digests hash flags alone, no computed file; a changed flag
    default or spelling changes them."""
    out = tmp_path / "pipe"
    assert run("pipeline", "--input", "synthetic", "--seed", 5, "--population", 12,
               "--generations", 4, "--stagnation", 4, "--gain-grid", FAST_GRID,
               "--platoon", 3, "--duration", 30, "--out", out) == 0
    assert _read_json(out / "manifest.json")["config_digest"] == (
        "ddcdc593e170846f4152527bb9159776a29ad4fa49957ab112de2695188e0a78")
    assert _read_json(out / "01_ingest" / "manifest.json")["config_digest"] == (
        "0bdac698addcc2da103b86aec60d7fb18f21e906b80d6346cf0e8f859d4789ca")


def test_every_pipeline_manifest_records_its_duration(tmp_path):
    out = tmp_path / "pipe"
    assert run("pipeline", "--input", "synthetic", "--seed", 5, "--population", 12,
               "--generations", 4, "--stagnation", 4, "--gain-grid", FAST_GRID,
               "--platoon", 3, "--duration", 30, "--out", out) == 0
    for directory in [out, *(out / stage.dirname for stage in cli.STAGES)]:
        duration = _read_json(directory / "manifest.json")["duration_s"]
        assert isinstance(duration, float) and math.isfinite(duration) and duration >= 0, directory
    stages = _read_json(out / "manifest.json")["stages"]
    assert [s["name"] for s in stages] == [stage.name for stage in cli.STAGES]
    for entry, stage in zip(stages, cli.STAGES):
        assert entry == {"name": stage.name, "rc": 0, "duration_s": _read_json(
            out / stage.dirname / "manifest.json")["duration_s"]}


def test_pipeline_manifest_lists_the_stages_that_ran(tmp_path, monkeypatch):
    """A stage that returns a nonzero code, or raises an error main reports,
    ends the list with that code; a stage that raises writes no manifest."""
    def stops(code):
        def handler(args):
            Path(args.out).mkdir(parents=True)
            return code, [], {}
        return handler

    def raises(err):
        def handler(args):
            raise err
        return handler

    for replaced, rc in ((stops(cli.EXIT_COLLISION), 3),
                         (raises(DataError("bad pairs")), 2),
                         (raises(ValueError("bad argument")), 1)):
        monkeypatch.setattr(cli, "cmd_pair", replaced)
        out = tmp_path / str(rc)
        assert run("pipeline", "--input", "synthetic", "--seed", 5, "--out", out) == rc
        stages = _read_json(out / "manifest.json")["stages"]
        assert [(s["name"], s["rc"]) for s in stages] == [("ingest", 0), ("smooth", 0), ("pair", rc)]
        assert all(s["duration_s"] >= 0.0 for s in stages)
        assert (out / "03_pair" / "manifest.json").exists() == (rc == 3)


def test_pipeline_forwards_each_flag_to_its_stage(tmp_path):
    out = tmp_path / "pipe"
    rc = run("pipeline", "--input", "synthetic", "--seed", 5, "--tx", 0.6,
             "--min-samples", 100, "--population", 12, "--generations", 4,
             "--stagnation", 4, "--v-star", 11.0, "--beta", 2.5, "--omega", 0.5,
             "--gain-grid", FAST_GRID, "--platoon", 3, "--duration", 30, "--out", out)
    assert rc == 0
    assert _read_json(out / "02_smooth" / "smooth_summary.json")["t_x"] == 0.6
    assert _read_json(out / "03_pair" / "pairs.json")["min_samples"] == 100
    calib = _read_json(out / "04_calibrate" / "calibration.json")
    assert calib["ga"]["population_size"] == 12
    stab = _read_json(out / "05_stability" / "stability.json")
    assert stab["v_star"] == 11.0
    for v in stab["vehicles"]:
        assert v["internally_stable"] == (v["tau"] < v["delay_margin"])
    gains = _read_json(out / "06_gains" / "gains.json")
    assert gains["beta"] == 2.5
    assert gains["platoon"] == 3
    assert _read_json(out / "07_validate" / "simulate_summary.json")["omega"] == 0.5


def test_stage_alone_records_the_pipeline_digest(tmp_path):
    """Each stage run alone on the pipeline's previous directory, with the
    flags the pipeline passed it, hashes to the pipeline's config_digest."""
    ga = ["--seed", 5, "--population", 12, "--generations", 4, "--stagnation", 4]
    own = {
        "ingest": ["--seed", 5],
        "calibrate": ga,
        "optimize-gains": ["--gain-grid", FAST_GRID, "--platoon", 3],
        "simulate": ["--duration", 30],
    }
    pipe = tmp_path / "pipe"
    assert run("pipeline", "--input", "synthetic", *ga, "--gain-grid", FAST_GRID,
               "--platoon", 3, "--duration", 30, "--out", pipe) == 0
    stage_input = "synthetic"
    for stage in cli.STAGES:
        alone = tmp_path / stage.dirname
        assert run(stage.name, "--input", stage_input, *own.get(stage.name, []), "--out", alone) == 0
        digest = _read_json(alone / "manifest.json")["config_digest"]
        assert digest == _read_json(pipe / stage.dirname / "manifest.json")["config_digest"], stage.name
        stage_input = pipe / stage.dirname


def test_no_stage_imports_scipy(tmp_path):
    """Every stage process pays for its imports at launch; scipy is not one of them."""
    script = f"""
import json, sys
import stopgo.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "import"
rc = stopgo.cli.main(["pipeline", "--input", "synthetic", "--seed", "5",
    "--population", "12", "--generations", "4", "--stagnation", "4",
    "--gain-grid", {FAST_GRID!r}, "--platoon", "3", "--duration", "30", "--out", "pipe"])
assert rc == 0, rc
with open("pipe/05_stability/stability.json") as fh:
    assert json.load(fh)["platoon_omega0"] > 0.0  # the root finder ran
assert "numpy.ma" not in sys.modules, "numpy.ma"  # a bare np.unique imports it
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = str(Path(stopgo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
