"""Command-line interface tests: stage artifacts, manifests, exit codes."""
from __future__ import annotations

import json
import shutil

import pytest

from stopgo.cli import build_parser, main

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


def test_missing_input_is_data_error(tmp_path):
    rc = run("smooth", "--input", tmp_path / "nowhere", "--out", tmp_path / "out")
    assert rc == 2


def test_ingest_synthetic_artifacts(ingested):
    assert (ingested / "trajectories.csv").exists()
    summary = _read_json(ingested / "ingest_summary.json")
    assert summary["vehicles"] == 2
    man = _read_json(ingested / "manifest.json")
    assert man["subcommand"] == "ingest"
    assert man["rng_seed"] == 3
    assert len(man["config_digest"]) == 64
    assert man["started"] <= man["finished"]


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
    assert (chain / "05" / "calibration.json").exists()  # forwarded for later stages


def test_optimize_gains_artifacts(chain):
    gdoc = _read_json(chain / "06" / "gains.json")
    assert set(gdoc["best"]) == {"k1", "k2", "k3"}
    assert gdoc["eta"] > 0
    assert gdoc["platoon"] == 6
    heatmaps = sorted((chain / "06" / "heatmaps").glob("heatmap_k1=*.csv"))
    assert len(heatmaps) == 1  # one k1 slice in the fast grid
    assert gdoc["heatmap_files"] == [f"heatmaps/{p.name}" for p in heatmaps]


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


def test_simulate_collision_exit_code_and_partial_dump(chain, tmp_path):
    # an all-but-disabled controller ignores a deep slowdown of the leader
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
    sdoc = _read_json(sim / "simulate_summary.json")
    assert sdoc["collision"]["vehicle_index"] == 1
    frame = sdoc["collision"]["frame"]
    rows = (sim / "platoon.csv").read_text().strip().split("\n")
    frames = {int(r.split(",")[1]) for r in rows[1:]}
    assert max(frames) == frame  # dump truncates at the collision frame
    assert (sim / "manifest.json").exists()


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


def test_gain_grid_step_must_be_positive(tmp_path, capsys):
    rc = run("optimize-gains", "--input", tmp_path / "missing",
             "--gain-grid", '{"k1": [0, 1, 0]}', "--out", tmp_path / "06")
    assert rc == 1
    assert "stopgo: error: --gain-grid k1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [("--pairs", 0), ("--pairs", -1),
                                  ("--generations", -3), ("--stagnation", 0)])
def test_calibrate_rejects_out_of_range_counts(tmp_path, capsys, flag):
    rc = run("calibrate", "--input", tmp_path / "missing", "--seed", 1, *flag,
             "--out", tmp_path / "04")
    assert rc == 1
    assert "stopgo: error:" in capsys.readouterr().err


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
