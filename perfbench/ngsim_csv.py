"""Seeded NGSIM-format CSV writer for the cli-pipeline workload.

Deliberately independent of ``trajrefine.data``: the inputs of the workload
must not change when the program changes. Rows follow the public NGSIM
column layout, coordinates in feet at 10 Hz, sorted by frame as in the
released files. Vehicles drive along Local_Y and change lanes along
Local_X; a few vehicles lose a short run of frames, so the ingester has to
split their tracks.

The writer also returns how many segments the default ingest protocol
(downsample by 2, 41-point windows, stride 10) must produce, computed from
the frames it wrote, so the ingest output can be checked.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

COLUMNS = (
    "Vehicle_ID", "Frame_ID", "Total_Frames", "Global_Time",
    "Local_X", "Local_Y", "v_Vel", "v_Acc", "Lane_ID",
)
FRAMES_PER_VEHICLE = 400  # 40 s at 10 Hz
FRAME_DT = 0.1
LANE_WIDTH_FT = 12.0
N_LANES = 5
LANE_CHANGE_S = 4.0
GAP_PROBABILITY = 0.1
EPOCH_MS = 1113433135300  # Global_Time origin in ms, as in the US-101 release

# The ingest protocol the expected segment count is computed for.
DOWNSAMPLE = 2
WINDOW = 16 + 25  # history points + future points
STRIDE = 10


@dataclass(frozen=True)
class CsvInput:
    path: str
    sha256: str
    rows: int
    vehicles: int
    expected_segments: int


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _vehicle(rng: np.random.Generator):
    """Frames kept plus per-frame (x, y, speed, accel, lane) for one vehicle."""
    t = np.arange(FRAMES_PER_VEHICLE) * FRAME_DT
    v0 = rng.uniform(25.0, 60.0)  # ft/s
    accel = rng.uniform(-0.5, 0.5)  # ft/s^2
    y = rng.uniform(0.0, 300.0) + v0 * t + 0.5 * accel * t * t
    lane = int(rng.integers(1, N_LANES + 1))
    lateral = np.full(t.shape, (lane - 0.5) * LANE_WIDTH_FT)
    lane_id = np.full(t.shape, lane)
    for t_change in np.sort(rng.uniform(2.0, 34.0, size=int(rng.integers(0, 3)))):
        step = -1 if lane == N_LANES or (lane > 1 and rng.random() < 0.5) else 1
        lane += step
        lateral += step * LANE_WIDTH_FT * _smoothstep((t - t_change) / LANE_CHANGE_S)
        lane_id[t >= t_change + 0.5 * LANE_CHANGE_S] = lane
    x = lateral + rng.normal(0.0, 0.2, size=t.shape)
    y = y + rng.normal(0.0, 0.2, size=t.shape)
    keep = np.ones(t.shape, dtype=bool)
    if rng.random() < GAP_PROBABILITY:
        gap_start = int(rng.integers(40, FRAMES_PER_VEHICLE - 40))
        keep[gap_start : gap_start + int(rng.integers(2, 6))] = False
    return keep, x, y, v0 + accel * t, np.full(t.shape, accel), lane_id


def _expected_segments(frames: np.ndarray) -> int:
    """Windows the default ingest protocol cuts from one vehicle's frames."""
    breaks = np.flatnonzero(np.diff(frames) > 1) + 1
    total = 0
    for run in np.split(frames, breaks):
        n = (len(run) + DOWNSAMPLE - 1) // DOWNSAMPLE
        if n >= WINDOW:
            total += (n - WINDOW) // STRIDE + 1
    return total


def write_ngsim_csv(path: str, seed: int, stream: int, n_vehicles: int,
                    first_id: int) -> CsvInput:
    """Write ``n_vehicles`` seeded vehicles to ``path``; same seed, same bytes."""
    rng = np.random.default_rng([int(seed), int(stream)])
    rows = []
    expected = 0
    for vid in range(first_id, first_id + n_vehicles):
        start = int(rng.integers(0, 3000))
        keep, x, y, vel, acc, lane = _vehicle(rng)
        frames = start + np.flatnonzero(keep)
        expected += _expected_segments(frames)
        total = len(frames)
        for f, xi, yi, vi, ai, li in zip(frames, x[keep], y[keep], vel[keep],
                                         acc[keep], lane[keep]):
            rows.append((int(f), vid, f"{vid},{f},{total},{EPOCH_MS + 100 * int(f)},"
                                      f"{xi:.3f},{yi:.3f},{vi:.2f},{ai:.2f},{li}\n"))
    rows.sort()
    text = ",".join(COLUMNS) + "\n" + "".join(line for _, _, line in rows)
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return CsvInput(path, hashlib.sha256(data).hexdigest(), len(rows), n_vehicles,
                    expected)
