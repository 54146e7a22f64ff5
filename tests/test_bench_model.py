"""The benchmark's input model is the model the pipeline fits.

perfbench/gen.py draws each follower's parameters and simulates its lane
with its own numpy integrator, so that no change to the program can change
the benchmark's inputs.  This replays calib-pipeline lanes through
simulate_string with the drawn FvdmParams and checks that every follower
moves the same, so the drivers that made the input are the model the
calibration searches.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from stopgo.carfollowing import FvdmParams, simulate_string
from stopgo.trajectory_io import Trajectory

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _load_gen(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing next to gen.py
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


@pytest.mark.parametrize("seed", range(20))
def test_generated_lane_is_simulate_string_on_the_drawn_drivers(monkeypatch, seed):
    gen = _load_gen(monkeypatch)
    drawn = []
    draw = gen._draw_driver

    def recorded(rng):
        theta = draw(rng)
        drawn.append(FvdmParams(**theta))
        return theta

    monkeypatch.setattr(gen, "_draw_driver", recorded)
    size = gen.SIZES["calib-pipeline"]  # the lane the GA calibrates
    followers, n = size["vehicles"] - 1, size["frames"]
    X, V = gen._simulate_lane(np.random.default_rng(seed), followers, n, x0=1000.0)
    # a lane that collides is drawn again, so the kept one has the last drivers
    lead = Trajectory(0, X[:, 0], V[:, 0], np.zeros(n), gen.DT)
    trajs = simulate_string(lead, drawn[-followers:], X[0, 1:], V[0, 1:], 0.0)
    assert len(trajs) == followers + 1
    for j, tr in enumerate(trajs[1:], start=1):
        np.testing.assert_allclose(tr.positions, X[:, j], rtol=0, atol=1e-9)
        np.testing.assert_allclose(tr.speeds, V[:, j], rtol=0, atol=1e-9)
