"""Frozen per-segment synthetic corpus generator: the reference the array
generator of ``trajrefine.data.gen_synthetic`` is tested against.

A copy of the original loop, one segment at a time, with ``rng.choice``
for the turn side and one ``rng.uniform`` per value, on its own
``default_rng([seed, crc32(b"datagen")])`` stream. It reads nothing from the
package, so a change there cannot move the reference. Keep the arithmetic
and the draw order as they are.
"""

from __future__ import annotations

import zlib

import numpy as np

LANE_WIDTH = 3.7
LANE_CHANGE_DURATION = 3.0


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def gen_synthetic(scenario: str, n: int, noise_sigma: float, seed: int,
                  tau: int = 15, horizon: int = 25, dt: float = 0.2):
    """The corpus as (segment ids, agent ids, histories, futures): two lists
    and two lists of (tau+1, 2) and (horizon, 2) arrays."""
    length = tau + 1 + horizon
    total = (length - 1) * dt
    rng = np.random.default_rng([seed, zlib.crc32(b"datagen")])
    t = np.arange(length) * dt
    ids, agents, histories, futures = [], [], [], []
    for i in range(n):
        speed = rng.uniform(8.0, 15.0)
        theta = rng.uniform(-np.pi, np.pi)
        origin = rng.uniform(-100.0, 100.0, size=2)
        direction = np.array([np.cos(theta), np.sin(theta)])
        normal = np.array([-np.sin(theta), np.cos(theta)])

        if scenario == "cv":
            pts = origin + np.outer(speed * t, direction)
        elif scenario == "ca":
            accel = rng.uniform(-1.0, 1.0)
            arc = speed * t + 0.5 * accel * t * t
            pts = origin + np.outer(arc, direction)
        elif scenario == "lane_change":
            t0 = rng.uniform(0.0, total - LANE_CHANGE_DURATION)
            offset = LANE_WIDTH * _smoothstep((t - t0) / LANE_CHANGE_DURATION)
            pts = origin + np.outer(speed * t, direction) + np.outer(offset, normal)
        else:  # turn
            curvature = rng.choice([-1.0, 1.0]) * rng.uniform(0.003, 0.02)
            phi = theta + speed * curvature * t
            pts = origin + np.column_stack(
                [np.sin(phi) - np.sin(theta), np.cos(theta) - np.cos(phi)]
            ) / curvature

        if noise_sigma > 0.0:
            pts = pts + rng.normal(0.0, noise_sigma, size=pts.shape)
        ids.append(f"{scenario}-{i:05d}")
        agents.append(i)
        histories.append(pts[: tau + 1])
        futures.append(pts[tau + 1 :])
    return ids, agents, histories, futures
