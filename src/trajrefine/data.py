"""Dataset handling: NGSIM CSV ingestion, synthetic corpora, JSONL persistence.

The default protocol mirrors the common highway benchmark setup: raw tracks
at 10 Hz are downsampled by 2 to dt = 0.2 s, and sliding 41-point windows
(8.0 s) are split into a 16-point history (3 s, current position included)
and a 25-point future (5 s).
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

FEET_TO_METERS = 0.3048

DEFAULT_DT = 0.2
DEFAULT_TAU = 15  # history intervals; history has tau+1 points
DEFAULT_HORIZON = 25  # future points

SCENARIOS = ("cv", "ca", "lane_change", "turn")

LANE_WIDTH = 3.7  # meters, lateral offset of the lane_change scenario
LANE_CHANGE_DURATION = 3.0  # seconds


def _stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent, reproducible generator for a named random sub-stream."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def _points(a, name: str) -> np.ndarray:
    pts = np.asarray(a, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{name} must be an (n, 2) array of positions")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{name} contains non-finite coordinates")
    return pts


@dataclass(frozen=True)
class Segment:
    """One supervised example: observed history plus ground-truth future."""

    segment_id: str
    agent_id: int
    dt: float
    history: np.ndarray  # (tau+1, 2) meters
    future: np.ndarray  # (T, 2) meters

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "history", _points(self.history, "history"))
        object.__setattr__(self, "future", _points(self.future, "future"))


@dataclass
class Dataset:
    """Homogeneous collection of segments plus the protocol they follow."""

    segments: list[Segment]
    dt: float = DEFAULT_DT
    tau: int = DEFAULT_TAU
    horizon: int = DEFAULT_HORIZON
    source: str = ""

    def __post_init__(self) -> None:
        for seg in self.segments:
            if abs(seg.dt - self.dt) > 1e-12:
                raise ValueError(f"segment {seg.segment_id}: dt {seg.dt} != {self.dt}")
            if len(seg.history) != self.tau + 1:
                raise ValueError(
                    f"segment {seg.segment_id}: history length {len(seg.history)} "
                    f"!= {self.tau + 1}"
                )
            if len(seg.future) != self.horizon:
                raise ValueError(
                    f"segment {seg.segment_id}: future length {len(seg.future)} "
                    f"!= {self.horizon}"
                )

    def __len__(self) -> int:
        return len(self.segments)

    def histories(self) -> np.ndarray:
        """Observed histories stacked as an (N, tau+1, 2) array."""
        return np.stack([seg.history for seg in self.segments])

    def futures(self) -> np.ndarray:
        """Ground-truth futures stacked as an (N, T, 2) array."""
        return np.stack([seg.future for seg in self.segments])


@dataclass(frozen=True)
class Track:
    """A contiguous single-vehicle trajectory at uniform dt."""

    vehicle_id: int
    dt: float
    points: np.ndarray  # (n, 2) meters

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _points(self.points, "track points"))


NGSIM_COLUMNS = ("Vehicle_ID", "Frame_ID", "Local_X", "Local_Y")


def parse_ngsim_csv(path: str) -> list[Track]:
    """Read an NGSIM-format CSV into per-vehicle tracks at 10 Hz, in meters.

    Rows are grouped by vehicle and sorted by frame; Local_X/Local_Y are
    converted from feet with the exact factor 0.3048. A track is split
    wherever a vehicle's frame sequence jumps by more than 1. A repeated
    (Vehicle_ID, Frame_ID) pair or a non-finite coordinate is rejected with
    its line number.
    """
    per_vehicle: dict[int, list[tuple[int, float, float]]] = {}
    first_line: dict[tuple[int, int], int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        missing = [c for c in NGSIM_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{path}: missing required columns {missing}")
        idx = {c: header.index(c) for c in NGSIM_COLUMNS}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                vid = int(float(row[idx["Vehicle_ID"]]))
                frame = int(float(row[idx["Frame_ID"]]))
                x = float(row[idx["Local_X"]]) * FEET_TO_METERS
                y = float(row[idx["Local_Y"]]) * FEET_TO_METERS
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
            if frame < 0:
                raise ValueError(f"{path}: line {lineno}: negative frame id {frame}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}: line {lineno}: non-finite coordinate")
            seen = first_line.setdefault((vid, frame), lineno)
            if seen != lineno:
                raise ValueError(
                    f"{path}: line {lineno}: Frame_ID {frame} of Vehicle_ID {vid} "
                    f"repeats line {seen}"
                )
            per_vehicle.setdefault(vid, []).append((frame, x, y))

    tracks: list[Track] = []
    for vid in sorted(per_vehicle):
        rows = sorted(per_vehicle[vid], key=lambda r: r[0])
        run: list[tuple[int, float, float]] = []
        for row in rows:
            if run and row[0] - run[-1][0] > 1:
                tracks.append(Track(vid, 0.1, [(r[1], r[2]) for r in run]))
                run = []
            run.append(row)
        if run:
            tracks.append(Track(vid, 0.1, [(r[1], r[2]) for r in run]))
    return tracks


def downsample(track: Track, factor: int = 2) -> Track:
    """Keep every ``factor``-th sample starting at index 0; dt scales up."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return Track(track.vehicle_id, track.dt * factor, track.points[::factor])


def extract_segments(
    tracks: list[Track],
    tau: int = DEFAULT_TAU,
    horizon: int = DEFAULT_HORIZON,
    stride: int = 10,
    source: str = "ngsim",
) -> Dataset:
    """Slide (tau+1+horizon)-point windows over each track, advancing by stride."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if not tracks:
        return Dataset([], DEFAULT_DT, tau, horizon, source)
    dt = tracks[0].dt
    for t in tracks:
        if abs(t.dt - dt) > 1e-12:
            raise ValueError("tracks must share a uniform dt")
    window = tau + 1 + horizon
    segments = []
    for ti, track in enumerate(tracks):
        n = len(track.points)
        for start in range(0, n - window + 1, stride):
            pts = track.points[start : start + window]
            segments.append(
                Segment(
                    segment_id=f"v{track.vehicle_id}-t{ti}-s{start}",
                    agent_id=track.vehicle_id,
                    dt=dt,
                    history=pts[: tau + 1],
                    future=pts[tau + 1 :],
                )
            )
    return Dataset(segments, dt, tau, horizon, source)


def split_dataset(
    ds: Dataset, ratios: tuple[float, float, float] = (0.7, 0.1, 0.2), seed: int = 0
) -> tuple[Dataset, Dataset, Dataset]:
    """Partition by vehicle id so no vehicle leaks across splits.

    Deterministic for a fixed seed; ratios must sum to 1.
    """
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    vehicles = sorted({seg.agent_id for seg in ds.segments})
    rng = _stream_rng(seed, "split")
    order = [vehicles[i] for i in rng.permutation(len(vehicles))]
    n = len(order)
    c1 = int(round(n * ratios[0]))
    c2 = int(round(n * (ratios[0] + ratios[1])))
    buckets = (set(order[:c1]), set(order[c1:c2]), set(order[c2:]))
    out = []
    for bucket, tag in zip(buckets, ("train", "val", "test")):
        segs = [seg for seg in ds.segments if seg.agent_id in bucket]
        out.append(Dataset(segs, ds.dt, ds.tau, ds.horizon, f"{ds.source}/{tag}"))
    return out[0], out[1], out[2]


def _smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def gen_synthetic(
    scenario: str,
    n: int,
    noise_sigma: float,
    seed: int,
    tau: int = DEFAULT_TAU,
    horizon: int = DEFAULT_HORIZON,
    dt: float = DEFAULT_DT,
) -> Dataset:
    """Generate a seeded synthetic corpus of n segments.

    Scenarios: straight constant velocity (cv), constant acceleration (ca),
    a smoothstep lateral lane offset completing inside the window
    (lane_change), and a constant-curvature arc (turn). Each segment gets a
    random speed, heading and origin; i.i.d. Gaussian position noise of std
    noise_sigma is added on top.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; valid: {', '.join(SCENARIOS)}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be >= 0")

    rng = _stream_rng(seed, "datagen")
    length = tau + 1 + horizon
    t = np.arange(length) * dt
    total = (length - 1) * dt
    segments = []
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
        segments.append(
            Segment(
                segment_id=f"{scenario}-{i:05d}",
                agent_id=i,
                dt=dt,
                history=pts[: tau + 1],
                future=pts[tau + 1 :],
            )
        )
    return Dataset(segments, dt, tau, horizon, f"synthetic/{scenario}")


def round_points(pts: np.ndarray) -> list[list[float]]:
    """(n, 2) coordinates as nested lists rounded to 6 decimal places."""
    return [[round(float(x), 6), round(float(y), 6)] for x, y in pts]


def write_jsonl(ds: Dataset, path: str) -> None:
    """One JSON object per segment; coordinates rounded to 6 decimal places."""
    with open(path, "w") as fh:
        for seg in ds.segments:
            obj = {
                "segment_id": seg.segment_id,
                "agent_id": seg.agent_id,
                "dt": round(seg.dt, 6),
                "history": round_points(seg.history),
                "future": round_points(seg.future),
            }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def read_records(path: str, fields: tuple[str, ...]):
    """Yield ``(line number, object)`` for each non-blank line of a JSONL file.

    A line that is not valid JSON, not a JSON object, or lacks one of
    ``fields`` is rejected with the path and line number.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {lineno}: expected a JSON object")
            for key in fields:
                if key not in obj:
                    raise ValueError(f"{path}: line {lineno}: missing field '{key}'")
            yield lineno, obj


def read_jsonl(path: str) -> Dataset:
    """Inverse of :func:`write_jsonl`; schema errors carry the line number.

    Keys other than the segment fields, such as the ``neighbors`` list older
    files carry, are ignored.
    """
    segments: list[Segment] = []
    protocol: tuple[float, int, int] | None = None
    fields = ("segment_id", "agent_id", "dt", "history", "future")
    for lineno, obj in read_records(path, fields):
        try:
            seg = Segment(
                segment_id=str(obj["segment_id"]),
                agent_id=int(obj["agent_id"]),
                dt=float(obj["dt"]),
                history=obj["history"],
                future=obj["future"],
            )
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        shape = (seg.dt, len(seg.history), len(seg.future))
        if protocol is None:
            protocol = shape
        elif shape != protocol:
            raise ValueError(
                f"{path}: line {lineno}: segment protocol {shape} does not "
                f"match first segment {protocol}"
            )
        segments.append(seg)
    if protocol is None:
        return Dataset([], DEFAULT_DT, DEFAULT_TAU, DEFAULT_HORIZON, source=path)
    return Dataset(
        segments, dt=protocol[0], tau=protocol[1] - 1, horizon=protocol[2], source=path
    )
