"""Dataset handling: NGSIM CSV ingestion, synthetic corpora, JSONL persistence.

The default protocol mirrors the common highway benchmark setup: raw tracks
at 10 Hz are downsampled by 2 to dt = 0.2 s, and sliding 41-point windows
(8.0 s) are split into a 16-point history (3 s, current position included)
and a 25-point future (5 s).
"""

from __future__ import annotations

import csv
import json
import operator
import zlib
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

FEET_TO_METERS = 0.3048

DEFAULT_DT = 0.2
DEFAULT_TAU = 15  # history intervals; history has tau+1 points
DEFAULT_HORIZON = 25  # future points

SCENARIOS = ("cv", "ca", "lane_change", "turn")

LANE_WIDTH = 3.7  # meters, lateral offset of the lane_change scenario
LANE_CHANGE_DURATION = 3.0  # seconds
GEOMETRY_BLOCK = 256  # segments whose positions gen_synthetic computes at once


def whole(name: str, value) -> int:
    """``value`` as an int; a float or other non-integer size is rejected by name."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _stream_rng(seed: int, stream: str) -> np.random.Generator:
    """Independent, reproducible generator for a named random sub-stream of
    an integer seed >= 0; any other seed is rejected by name."""
    seed = whole("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def _points(a, name: str) -> np.ndarray:
    pts = np.asarray(a, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{name} must be an (n, 2) array of positions")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} contains non-finite coordinates")
    return pts


@dataclass(frozen=True, eq=False)
class Segment:
    """One supervised example: observed history plus ground-truth future."""

    segment_id: str
    agent_id: int
    dt: float
    history: np.ndarray  # (tau+1, 2) meters
    future: np.ndarray  # (T, 2) meters

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")
        object.__setattr__(self, "history", _points(self.history, "history"))
        object.__setattr__(self, "future", _points(self.future, "future"))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Homogeneous collection of segments plus the protocol they follow.

    Immutable: ``segments`` is stored as a tuple, and :meth:`histories` and
    :meth:`futures` stack the segment arrays on their first call and return
    that same read-only array on every later one, so callers that each need
    the stack (the fitters, ``rmse``, ``run_ablation``) share one copy.
    """

    segments: tuple[Segment, ...]
    dt: float = DEFAULT_DT
    tau: int = DEFAULT_TAU
    horizon: int = DEFAULT_HORIZON
    source: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", whole("tau", self.tau))
        object.__setattr__(self, "horizon", whole("horizon", self.horizon))
        if not (0.0 < self.dt < np.inf and self.tau >= 0 and self.horizon >= 1):
            raise ValueError(f"protocol needs a finite dt > 0, tau >= 0 and horizon >= 1, "
                             f"got dt={self.dt}, tau={self.tau}, horizon={self.horizon}")
        object.__setattr__(self, "segments", tuple(self.segments))
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
        """Observed histories stacked as a read-only (N, tau+1, 2) array, built once."""
        return self._histories

    def futures(self) -> np.ndarray:
        """Ground-truth futures stacked as a read-only (N, T, 2) array, built once."""
        return self._futures

    @cached_property
    def _histories(self) -> np.ndarray:
        return _stacked([seg.history for seg in self.segments], self.tau + 1)

    @cached_property
    def _futures(self) -> np.ndarray:
        return _stacked([seg.future for seg in self.segments], self.horizon)


def _stacked(arrays: list[np.ndarray], length: int) -> np.ndarray:
    return read_only(np.array(arrays).reshape(-1, length, 2))


@dataclass(frozen=True, eq=False)
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
    wherever a vehicle's frame sequence jumps by more than 1. An id that is
    not a finite whole number below 2**53, a negative frame, a non-finite
    coordinate or a repeated (Vehicle_ID, Frame_ID) pair is rejected with
    the number of the first line at fault: the physical line its record
    starts on, also after a quoted field that spans lines.
    """
    vids, frames, xs, ys, lines = [], [], [], [], []
    unreadable = None  # message for the first line that does not convert
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
        iv, i_f, ix, iy = (header.index(c) for c in NGSIM_COLUMNS)
        start = reader.line_num + 1  # physical line the next record starts on
        for row in reader:  # a quoted field may span several physical lines
            lineno, start = start, reader.line_num + 1
            if not "".join(row).strip():
                continue
            try:
                vid, frame = float(row[iv]), float(row[i_f])
                x, y = float(row[ix]), float(row[iy])
            except (ValueError, IndexError) as exc:
                unreadable = f"{path}: line {lineno}: {exc}"
                break
            vids.append(vid)
            frames.append(frame)
            xs.append(x)
            ys.append(y)
            lines.append(lineno)

    vid, frame = np.array(vids), np.array(frames)
    points = np.column_stack((xs, ys)) * FEET_TO_METERS
    order = np.lexsort((frame, vid))  # stable: a repeated pair sorts after its first line
    v, f = vid[order], frame[order]
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order[1:][(v[1:] == v[:-1]) & (f[1:] == f[:-1])]] = True

    def repeat(i: int) -> str:
        first = np.flatnonzero((vid == vid[i]) & (frame == frame[i]))[0]
        return (f"Frame_ID {int(frames[i])} of Vehicle_ID {int(vids[i])} "
                f"repeats line {lines[first]}")

    not_whole = "is not a whole number below 2**53"
    checks = (  # in the order one line is checked; the first line at fault wins
        (~_whole(vid), lambda i: f"Vehicle_ID {vids[i]!r} {not_whole}"),
        (~_whole(frame), lambda i: f"Frame_ID {frames[i]!r} {not_whole}"),
        (frame < 0, lambda i: f"negative frame id {int(frames[i])}"),
        (~np.isfinite(points).all(axis=1), lambda i: "non-finite coordinate"),
        (repeated, repeat),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if bad.size:
        i = bad[0]
        describe = next(describe for mask, describe in checks if mask[i])
        raise ValueError(f"{path}: line {lines[i]}: {describe(i)}")
    if unreadable is not None:
        raise ValueError(unreadable)
    if not lines:
        return []
    cuts = np.flatnonzero((v[1:] != v[:-1]) | (f[1:] - f[:-1] > 1)) + 1
    runs = np.split(points[order], cuts)
    return [Track(int(v[s]), 0.1, run) for s, run in zip([0, *cuts.tolist()], runs)]


def _whole(ids: np.ndarray) -> np.ndarray:
    """Which ids are finite whole numbers below 2**53 in magnitude."""
    return (np.floor(ids) == ids) & (np.abs(ids) < 2.0**53)


def downsample(track: Track, factor: int = 2) -> Track:
    """Keep every ``factor``-th sample starting at index 0; dt scales up."""
    if whole("factor", factor) < 1:
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
    tau, horizon, stride = whole("tau", tau), whole("horizon", horizon), whole("stride", stride)
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

    Deterministic for a fixed seed; ratios must be finite, >= 0 and sum to 1.
    """
    if not all(0.0 <= r < np.inf for r in ratios):
        raise ValueError(f"split ratios must be finite and >= 0, got {ratios}")
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

    Draw order, segment by segment from the seed's ``"datagen"`` stream:
    uniform speed in [8, 15), heading in [-pi, pi), origin x and y in
    [-100, 100), then the acceleration in [-1, 1) (ca), the lane-change
    start in [0, window - 3 s) (lane_change) or the turn side (one
    ``integers(0, 2)``) and curvature magnitude in [0.003, 0.02) (turn),
    then, when noise_sigma > 0, one (tau+1+horizon, 2) normal draw. A
    uniform value is numpy's ``low + (high - low) * u`` of one unit double,
    so the same arguments give a byte-identical corpus on a given numpy.
    The segments' arrays are views of one (n, tau+1+horizon, 2) array.
    """
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; valid: {', '.join(SCENARIOS)}")
    if whole("n", n) < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    Dataset((), dt, tau, horizon)  # checks the protocol before generating
    length = tau + 1 + horizon
    total = (length - 1) * dt
    if scenario == "lane_change" and total < LANE_CHANGE_DURATION:
        raise ValueError(f"lane_change needs a window of at least {LANE_CHANGE_DURATION} s "
                         f"for its manoeuvre, got (tau + horizon) * dt = {total:g} s")

    # Draw every random number first, in the documented order: the normal
    # sampler takes a variable number of raw draws, so segments cannot be
    # drawn in one batch. pts holds the noise, if any, and then the positions.
    rng = _stream_rng(seed, "datagen")
    noisy = noise_sigma > 0.0
    u = np.empty((n, 4 if scenario == "cv" else 5))  # unit uniform draws
    side = np.empty(n, dtype=np.int64)  # turn: the index rng.choice((-1.0, 1.0)) draws
    pts = np.empty((n, length, 2))
    for i in range(n):
        if scenario == "turn":
            rng.random(out=u[i, :4])
            side[i] = rng.integers(0, 2)
            u[i, 4] = rng.random()
        else:
            rng.random(out=u[i])
        if noisy:
            pts[i] = rng.normal(0.0, noise_sigma, size=(length, 2))

    # The geometry, a block of segments at a time: blocks bound the
    # temporaries, and no value depends on its block.
    t = np.arange(length) * dt
    for lo in range(0, n, GEOMETRY_BLOCK):
        rows = slice(lo, lo + GEOMETRY_BLOCK)
        for c, plane in enumerate(_positions(scenario, u[rows], side[rows], t, total)):
            if noisy:  # noise + x is x + noise bit for bit: IEEE addition commutes
                pts[rows, :, c] += plane
            else:
                pts[rows, :, c] = plane
    segments = [Segment(f"{scenario}-{i:05d}", i, dt, p[: tau + 1], p[tau + 1 :])
                for i, p in enumerate(pts)]
    return Dataset(segments, dt, tau, horizon, f"synthetic/{scenario}")


def _positions(scenario: str, u: np.ndarray, side: np.ndarray, t: np.ndarray,
               total: float) -> tuple[np.ndarray, np.ndarray]:
    """The noise-free (B, L) x and y planes of B segments, from their unit
    draws u (one row each), their turn sides and the (L,) times t. (B, 1)
    columns of the draws meet the times, and each value is made by the
    operations, in the order, of the per-segment formula in the comment
    above it."""
    speed = _uniform(u[:, 0:1], 8.0, 15.0)
    theta = _uniform(u[:, 1:2], -np.pi, np.pi)
    origin = _uniform(u[:, 2:4], -100.0, 100.0)
    cos, sin = np.cos(theta), np.sin(theta)
    if scenario == "turn":
        # origin + [sin(phi) - sin(theta), cos(theta) - cos(phi)] / curvature,
        # phi = theta + speed * curvature * t
        curvature = np.where(side == 1, 1.0, -1.0)[:, None] * _uniform(u[:, 4:], 0.003, 0.02)
        phi = theta + (speed * curvature) * t
        x, y = np.sin(phi) - sin, cos - np.cos(phi)
        x /= curvature
        y /= curvature
    else:
        # origin + arc * [cos, sin] (+ offset * [-sin, cos] on a lane change),
        # arc = speed * t (+ 0.5 * accel * t * t on ca)
        arc = speed * t
        if scenario == "ca":
            arc += ((0.5 * _uniform(u[:, 4:], -1.0, 1.0)) * t) * t
        x, y = arc * cos, arc * sin
    x += origin[:, 0:1]
    y += origin[:, 1:2]
    if scenario == "lane_change":
        t0 = _uniform(u[:, 4:], 0.0, total - LANE_CHANGE_DURATION)
        offset = LANE_WIDTH * _smoothstep((t - t0) / LANE_CHANGE_DURATION)
        x += offset * -sin
        y += offset * cos
    return x, y


def _uniform(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """numpy's ``Generator.uniform(low, high)`` of the unit draws u, bit for bit."""
    return low + (high - low) * u


def round6(values) -> np.ndarray:
    """Elementwise ``round(float(v), 6)`` of an array, bitwise equal to it.

    ``round`` rounds the exact value of v * 10**6 half-to-even to an integer
    n and returns the double nearest n / 10**6. The product ``s = v * 1e6``
    is within half an ulp of the exact one, so wherever s is more than that
    from a half-integer, ``np.rint(s)`` is the same n; below 1e9 in
    magnitude n is exact (|n| < 2**53), and IEEE division by the exact 1e6
    gives the double nearest n / 10**6. Elements within 4 ulps of a
    half-integer, of magnitude >= 1e9 or not finite take ``round`` itself.
    """
    v = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # those elements take round()
        scaled = v * 1e6
        n = np.rint(scaled)
        exact = (0.5 - np.abs(scaled - n) > 4 * np.spacing(np.abs(scaled))) & (np.abs(v) < 1e9)
    out = np.divide(n, 1e6, out=np.empty_like(v))
    if not exact.all():
        slow = ~exact
        out[slow] = [round(x, 6) for x in v[slow].tolist()]
    return out


def write_jsonl(ds: Dataset, path: str) -> None:
    """One JSON object per segment; coordinates rounded by :func:`round6`."""
    histories, futures = round6(ds.histories()), round6(ds.futures())
    with open(path, "w") as fh:
        for seg, history, future in zip(ds.segments, histories, futures):
            obj = {
                "segment_id": seg.segment_id,
                "agent_id": seg.agent_id,
                "dt": round(seg.dt, 6),
                "history": history.tolist(),
                "future": future.tolist(),
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


def json_points(value, name: str, rows: str = "[x, y] pairs") -> np.ndarray:
    """A decoded JSON array of number rows, [x, y] pairs by default, as a float
    array; a string, boolean or null in it is rejected, not cast. Callers
    check the shape."""
    try:
        kinds = set(map(type, chain.from_iterable(value)))
    except TypeError:
        raise ValueError(f"{name} must be an array of {rows}") from None
    if not kinds <= {int, float}:
        raise ValueError(f"{name} must hold only JSON numbers")
    return np.asarray(value, dtype=float)


def read_jsonl(path: str) -> Dataset:
    """Inverse of :func:`write_jsonl`; schema errors carry the line number.

    Every segment must share the first one's protocol and have its own
    segment id. ``segment_id`` must be a JSON string, ``agent_id`` a JSON
    integer and ``dt``, ``history`` and ``future`` JSON numbers. Keys other
    than the segment fields, such as the ``neighbors`` list older files
    carry, are ignored.
    """
    segments: list[Segment] = []
    first_line: dict[str, int] = {}
    protocol: tuple[float, int, int] | None = None
    fields = ("segment_id", "agent_id", "dt", "history", "future")
    for lineno, obj in read_records(path, fields):
        try:
            if type(obj["segment_id"]) is not str:
                raise ValueError("segment_id must be a JSON string")
            if type(obj["agent_id"]) is not int:
                raise ValueError("agent_id must be a JSON integer")
            if type(obj["dt"]) not in (int, float):
                raise ValueError("dt must be a JSON number")
            seg = Segment(
                segment_id=obj["segment_id"],
                agent_id=obj["agent_id"],
                dt=float(obj["dt"]),
                history=json_points(obj["history"], "history"),
                future=json_points(obj["future"], "future"),
            )
        except (ValueError, TypeError, OverflowError) as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        shape = (seg.dt, len(seg.history), len(seg.future))
        if protocol is None:
            protocol = shape
        elif shape != protocol:
            raise ValueError(
                f"{path}: line {lineno}: segment protocol {shape} does not "
                f"match first segment {protocol}"
            )
        first = first_line.setdefault(seg.segment_id, lineno)
        if first != lineno:
            raise ValueError(f"{path}: line {lineno}: repeated segment id "
                             f"{seg.segment_id!r} (first on line {first})")
        segments.append(seg)
    if protocol is None:
        return Dataset([], DEFAULT_DT, DEFAULT_TAU, DEFAULT_HORIZON, source=path)
    return Dataset(
        segments, dt=protocol[0], tau=protocol[1] - 1, horizon=protocol[2], source=path
    )
