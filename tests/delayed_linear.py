"""A linearized human driver (k1, k2, k3, tau) run in the time domain.

stopgo's one linear string vehicle is a Cav, which acts without delay.  The
batch kernel's linear rows carry a delay all the same, so a linearized driver
runs as a linear column of simulate_followers_batch: its law
k1 (h - headway) - k2 (vd - v_star) + k3 dv reads its own and its leader's
states tau in the past, as an FVDM driver's does.
"""
from __future__ import annotations

import numpy as np

from stopgo.carfollowing import PARAM_ORDER, simulate_followers_batch
from stopgo.stability import LinearizedHdv
from stopgo.trajectory_io import Trajectory


def linear_row(lin: LinearizedHdv, headway: float) -> tuple:
    """simulate_followers_batch's linear row of lin keeping headway at every
    speed: k1, k2, k3, lambda2 = 0, lambda3 = headway, tau."""
    return (lin.k1, lin.k2, lin.k3, 0.0, headway, lin.tau)


def follow(ahead: Trajectory, lin: LinearizedHdv, headway: float, v_star: float) -> Trajectory:
    """lin driving behind ahead on ahead's frames, from v_star at headway behind it.

    ahead may be a recorded leader or the last vehicle of a simulated string:
    a string replays from any of its vehicles bit for bit, so this is the
    trajectory lin drives at the end of that string.  No collision check.
    """
    n = ahead.n
    speeds, accels = np.empty((n, 1)), np.empty((n, 1))
    x = simulate_followers_batch(
        np.empty((0, len(PARAM_ORDER))), ahead.positions[:, None], ahead.speeds[:, None],
        ahead.positions[0] - headway, v_star, ahead.dt, group=[0],
        linear=[linear_row(lin, headway)], v_star=v_star, speeds=speeds, accels=accels)
    return Trajectory(ahead.start_frame, x[:, 0].copy(), speeds[:, 0], accels[:, 0], ahead.dt)
