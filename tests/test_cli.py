"""Command-line interface tests: stage artifacts, manifests, exit codes."""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stopgo
from stopgo import cli
from stopgo.calibration import GaConfig
from stopgo.carfollowing import VEHICLE_LENGTH
from stopgo.cli import UsageError, build_parser, main
from stopgo.errors import CollisionDetected, DataError, UnparsableField
from stopgo.smoothing import SmoothingConfig
from stopgo.stability import FrequencyGrid, LinearizedHdv, platoon_critical_frequency
from stopgo.trajectory_io import DT, MIN_CALIBRATION_SAMPLES

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
    (UnparsableField(3, "v_vel"), 2, "stopgo: data error: unparsable value in data row 3, column v_vel"),
    (CollisionDetected(1, 5), 3, "stopgo: collision: vehicle 1 gap nonpositive at frame 5"),
], ids=["ValueError", "UsageError", "DataError", "UnparsableField", "CollisionDetected"])
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
    assert (ingested / "trajectories.csv").exists()
    summary = _read_json(ingested / "ingest_summary.json")
    assert summary["vehicles"] == 2
    man = _read_json(ingested / "manifest.json")
    assert man["subcommand"] == "ingest"
    assert man["rng_seed"] == 3
    assert len(man["config_digest"]) == 64
    assert man["started"] <= man["finished"]


def test_synthetic_trajectories_record_each_vehicle_length(ingested):
    rows = [line.split(",") for line in (ingested / "trajectories.csv").read_text().split()]
    col = rows[0].index("length_m")
    assert {(r[0], r[col]) for r in rows[1:]} == {("1", "4.5"), ("2", "4.5")}


def test_ingest_determinism_and_seed_sensitivity(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("ingest", "--input", "synthetic", "--seed", 5, "--out", a) == 0
    assert run("ingest", "--input", "synthetic", "--seed", 5, "--out", b) == 0
    assert (a / "trajectories.csv").read_bytes() == (b / "trajectories.csv").read_bytes()
    da = _read_json(a / "manifest.json")["config_digest"]
    db = _read_json(b / "manifest.json")["config_digest"]
    assert da == db

    # without measurement noise the generated pair is seed-independent, but
    # the configuration digest still records the differing seed
    c = tmp_path / "c"
    assert run("ingest", "--input", "synthetic", "--seed", 6, "--out", c) == 0
    assert (c / "trajectories.csv").read_bytes() == (a / "trajectories.csv").read_bytes()
    assert _read_json(c / "manifest.json")["config_digest"] != da

    # with noise the seed drives the perturbation
    n1, n2 = tmp_path / "n1", tmp_path / "n2"
    assert run("ingest", "--input", "synthetic", "--seed", 5, "--noise", 0.2,
               "--out", n1) == 0
    assert run("ingest", "--input", "synthetic", "--seed", 6, "--noise", 0.2,
               "--out", n2) == 0
    assert (n1 / "trajectories.csv").read_bytes() != (n2 / "trajectories.csv").read_bytes()


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
    first = (out / "trajectories.csv").read_text().strip().split("\n")[1].split(",")
    assert float(first[3]) == pytest.approx(100.0 * 0.3048)  # feet converted
    assert float(first[4]) == pytest.approx(40.0 * 0.3048)


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


def test_smooth_reduces_acceleration_exceedance(tmp_path):
    src = tmp_path / "noisy"
    assert run("ingest", "--input", "synthetic", "--seed", 4, "--noise", 0.2,
               "--out", src) == 0
    out = tmp_path / "smoothed"
    assert run("smooth", "--input", src, "--out", out) == 0
    summary = _read_json(out / "smooth_summary.json")
    assert summary["accel_exceedance_after"] < summary["accel_exceedance_before"]
    assert (out / "smoothed.csv").exists()


def test_pair_artifacts(paired):
    doc = _read_json(paired / "pairs.json")
    assert len(doc["pairs"]) == 1
    entry = doc["pairs"][0]
    assert entry["leader_id"] == 1 and entry["follower_id"] == 2
    assert (paired / "trajectories.csv").exists()  # carried along for later stages


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
    ("simulate", "06", "stability.json", "{}", " has no key 'v_star'"),
    ("simulate", "06", "calibration.json", TRUNCATED, " is not a JSON document"),
    # a value its type rejects
    ("stability", "04", "calibration.json", _set("results", 0, "theta", "alpha", value=100.0),
     "['results'][0]['theta']: alpha=100.0 outside [1.0, 10.0]"),
    ("optimize-gains", "05", "stability.json", _set("vehicles", 0, "k2", value=0.0),
     "['vehicles'][0]: require k1 >= 0, k2 > 0, k3 >= 0"),
    ("optimize-gains", "05", "stability.json", _set("omega_grid", "omega_min", value=-1.0),
     "['omega_grid']: require 0 < omega_min < omega_max"),
    ("simulate", "06", "gains.json", _set("best", "k1", value=-1.0), "['best']: gains must be nonnegative"),
    ("simulate", "06", "gains.json", _set("lambda2", value=-1.0), ": lambda2 must be nonnegative"),
    ("simulate", "06", "gains.json", _set("platoon", value=0), "['platoon']: must be at least 1, got 0"),
    ("simulate", "06", "calibration.json", _set("results", 0, "theta", "tau", value=-0.1),
     "['results'][0]['theta']: tau=-0.1 outside [0.0, 3.0]"),
    # a fit whose desired-speed curve never reaches --v-star (b_c above b_f)
    ("stability", "04", "calibration.json",
     lambda doc: doc["results"][0]["theta"].update(b_c=6.46, b_f=1.95, m=4.04),
     "['results'][0]: v_star=12.0 m/s is at or above the curve's supremum 0.000"),
    ("simulate", "06", "calibration.json",
     lambda doc: doc["results"][0]["theta"].update(b_c=6.46, b_f=1.95, m=4.04),
     "['results'][0]: v_star=12.0 m/s is at or above the curve's supremum 0.000"),
    # a controller whose desired headway lambda2 * v_star + lambda3 is nonpositive
    ("simulate", "06", "gains.json", _set("lambda3", value=-50.0),
     "['lambda3']: desired headway -50.0 m must be positive"),
    # a number no double holds: NaN passes every range check written with <
    ("optimize-gains", "05", "stability.json", _set("vehicles", 0, "k1", value=math.nan),
     "['vehicles'][0]['k1'] is not a finite number"),
    ("optimize-gains", "05", "stability.json", _set("vehicles", 0, "k3", value=10**400),
     "['vehicles'][0]['k3'] is not a finite number"),
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
    hist = chain / "04" / f"fitness_history_{res['leader_id']}_{res['follower_id']}.csv"
    body = hist.read_text().strip().split("\n")
    assert body[0] == "generation,best_fitness"
    fits = [float(line.split(",")[1]) for line in body[1:]]
    assert all(b <= a for a, b in zip(fits, fits[1:]))
    assert _read_json(chain / "04" / "manifest.json")["rng_seed"] == 11


def test_stability_artifacts(chain):
    sdoc = _read_json(chain / "05" / "stability.json")
    assert sdoc["v_star"] == 12.0
    veh = sdoc["vehicles"][0]
    assert {"k1", "k2", "k3", "lambda2", "tau", "omega0", "string_stable"} <= set(veh)
    assert veh["string_stable"] == (veh["omega0"] == 0.0)
    lins = [LinearizedHdv(v["k1"], v["k2"], v["k3"], v["lambda2"], v["tau"])
            for v in sdoc["vehicles"]]
    grid = FrequencyGrid(**sdoc["omega_grid"])
    assert sdoc["platoon_omega0"] == platoon_critical_frequency(lins, grid)
    assert (chain / "05" / "calibration.json").exists()  # forwarded for later stages


def test_optimize_gains_artifacts(chain):
    gdoc = _read_json(chain / "06" / "gains.json")
    assert set(gdoc["best"]) == {"k1", "k2", "k3"}
    assert gdoc["eta"] > 0
    assert gdoc["platoon"] == 6
    heatmaps = sorted((chain / "06" / "heatmaps").glob("heatmap_k1=*.csv"))
    assert len(heatmaps) == 1  # one k1 slice in the fast grid
    assert gdoc["heatmap_files"] == [f"heatmaps/{p.name}" for p in heatmaps]


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
    assert sorted(p.name for p in out.glob("fitness_history_*.csv")) == [
        f"fitness_history_{r['leader_id']}_{r['follower_id']}.csv" for r in results]


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
    csv_head = (sim / "platoon.csv").read_text().split("\n", 1)[0]
    assert csv_head == "vehicle_id,frame_id,t,x_m,v_mps,a_mps2,preceding_id"


def test_simulate_times_follow_its_step(chain, tmp_path):
    sim = tmp_path / "07"
    assert run("simulate", "--input", chain / "06", "--dt", 0.05, "--duration", 10,
               "--out", sim) == 0
    rows = [line.split(",") for line in (sim / "platoon.csv").read_text().split()]
    assert rows[0][:3] == ["vehicle_id", "frame_id", "t"]
    assert {int(r[1]) for r in rows[1:]} == set(range(201))
    assert all(float(r[2]) == int(r[1]) * 0.05 for r in rows[1:])


def test_simulate_constant_profile_holds_the_leader_at_v_star(chain, tmp_path):
    sim = tmp_path / "07"
    assert run("simulate", "--input", chain / "06", "--profile", "constant", "--duration", 30,
               "--out", sim) == 0
    sdoc = _read_json(sim / "simulate_summary.json")
    assert sdoc["omega"] == 0.0
    assert sdoc["speed_amplitudes"][0] == 0.0
    assert all(a == 0.0 for a in sdoc["amplification_vs_leader"])
    rows = [r.split(",") for r in (sim / "platoon.csv").read_text().split()[1:]]
    leader = [r for r in rows if r[6] == "0"]
    assert leader and all(r[4] == repr(sdoc["v_star"]) for r in leader)


@pytest.mark.parametrize("stage, source, name, flags, carried", [
    ("pair", "01", "trajectories.csv", [], ["trajectories.csv"]),
    ("stability", "04", "", ["--v-star", 12.0], ["calibration.json"]),
    ("optimize-gains", "05", "", ["--platoon", 6, "--gain-grid", FAST_GRID],
     ["stability.json", "calibration.json"]),
], ids=["pair", "stability", "optimize-gains"])
def test_stage_writes_into_its_input_directory(chain, tmp_path, stage, source, name, flags,
                                               carried):
    """--out may be the input's own directory: the carried-forward inputs
    stay as they are and the stage writes its own manifest."""
    d = tmp_path / "d"
    shutil.copytree(chain / source, d)
    assert run(stage, "--input", d / name, *flags, "--out", d) == 0
    assert _read_json(d / "manifest.json")["subcommand"] == stage
    for carry in carried:
        assert (d / carry).read_bytes() == (chain / source / carry).read_bytes()


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
    rows = (sim / "platoon.csv").read_text().strip().split("\n")
    frames = {int(r.split(",")[1]) for r in rows[1:]}
    assert max(frames) == frame  # dump truncates at the collision frame
    assert (sim / "manifest.json").exists()


def test_simulate_collision_names_the_vehicle_as_platoon_csv_does(collided):
    sim, err = collided
    hit = _read_json(sim / "simulate_summary.json")["collision"]
    vid, frame = hit["vehicle_id"], hit["frame"]
    assert f"collision: vehicle_id {vid} at frame {frame};" in err
    rows = [r.split(",") for r in (sim / "platoon.csv").read_text().split()[1:]]
    x = {(int(r[0]), int(r[1])): float(r[3]) for r in rows}
    ahead = {int(r[0]): int(r[6]) for r in rows}
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
        "01_ingest/trajectories.csv",
        "02_smooth/smoothed.csv",
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


def test_pipeline_manifest_lists_the_stages_that_finished(tmp_path, monkeypatch):
    """A stage that returns a nonzero code ends the list; one that raises
    never finished, so the list ends before it."""
    def stops(code):
        def handler(args):
            Path(args.out).mkdir(parents=True)
            return code, [], {}
        return handler

    def raises(args):
        raise DataError("bad pairs")

    for replaced, rc, listed in ((stops(cli.EXIT_COLLISION), 3, ["ingest", "smooth", "pair"]),
                                 (raises, 2, ["ingest", "smooth"])):
        monkeypatch.setattr(cli, "cmd_pair", replaced)
        out = tmp_path / str(rc)
        assert run("pipeline", "--input", "synthetic", "--seed", 5, "--out", out) == rc
        stages = _read_json(out / "manifest.json")["stages"]
        assert [(s["name"], s["rc"]) for s in stages] == [
            (name, rc if name == "pair" else 0) for name in listed]


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
