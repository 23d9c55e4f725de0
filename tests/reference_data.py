"""Frozen references the array code of ``trajrefine.data`` is tested against.

``gen_synthetic`` is a copy of the original per-segment generator loop, one
segment at a time, with ``rng.choice`` for the turn side and one
``rng.uniform`` per value, on its own ``default_rng([seed,
crc32(b"datagen")])`` stream. ``parse_ngsim_csv`` is a copy of the
``csv.reader`` NGSIM parser, which reads every row as ``float`` and names
the physical line of the first row at fault. ``jsonl_text`` and
``prediction_line`` are the JSONL writers' one ``json.dumps`` line per
segment or prediction, each coordinate or mean rounded by ``round(x, 6)``
and each sigma and rho by ``decimal``'s ``quantize`` (``outward``).
None reads anything from the package, so a change there cannot move a
reference. Keep their arithmetic, draw order, checks and messages as they are.
"""

from __future__ import annotations

import csv
import decimal
import json
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


FEET_TO_METERS = 0.3048
NGSIM_COLUMNS = ("Vehicle_ID", "Frame_ID", "Local_X", "Local_Y")


def parse_ngsim_csv(path: str) -> list[tuple[int, float, np.ndarray]]:
    """The tracks of an NGSIM-format CSV as (vehicle id, dt, (n, 2) points in
    meters) tuples, or the ValueError of its first fault."""
    vids, frames, xs, ys, lines = [], [], [], [], []
    unreadable = None  # message for the first line that does not convert
    with open(path, newline="", encoding="utf-8") as fh:
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
            except (ValueError, IndexError) as exc:  # a short row names the field it lacks
                lacks = [c for c, i in zip(NGSIM_COLUMNS, (iv, i_f, ix, iy)) if i >= len(row)]
                unreadable = f"{path}: line {lineno}: " + (
                    f"no {lacks[0]} field" if isinstance(exc, IndexError) else str(exc))
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

    def whole(ids: np.ndarray) -> np.ndarray:
        return (np.floor(ids) == ids) & (np.abs(ids) < 2.0**53)

    not_whole = "is not a whole number below 2**53"
    checks = (  # in the order one line is checked; the first line at fault wins
        (~whole(vid), lambda i: f"Vehicle_ID {vids[i]!r} {not_whole}"),
        (~whole(frame), lambda i: f"Frame_ID {frames[i]!r} {not_whole}"),
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
    return [(int(v[s]), 0.1, run) for s, run in zip([0, *cuts.tolist()], runs)]


def _rounded(points: np.ndarray) -> list[list[float]]:
    return [[round(x, 6) for x in row] for row in points.tolist()]


def jsonl_text(ds) -> str:
    """The text ``write_jsonl`` writes for a dataset."""
    lines = []
    for seg in ds.segments:
        obj = {
            "segment_id": seg.segment_id,
            "agent_id": seg.agent_id,
            "dt": round(seg.dt, 6),
            "history": _rounded(seg.history),
            "future": _rounded(seg.future),
        }
        lines.append(json.dumps(obj, separators=(",", ":")) + "\n")
    return "".join(lines)


def outward(params: np.ndarray) -> list[list[float]]:
    """Each [sigma_x, sigma_y, rho] row of a (T, 3) array at 6 decimals: the sigmas
    rounded up (ROUND_CEILING), rho toward zero (ROUND_DOWN), each then the
    nearest double; non-finite values are kept."""
    step = decimal.Decimal("1e-6")
    with decimal.localcontext(decimal.Context(prec=400)):  # 6 decimals of any double
        return [[float(decimal.Decimal(x).quantize(step, rounding)) if np.isfinite(x) else x
                 for x, rounding in zip(row, [decimal.ROUND_CEILING] * 2 + [decimal.ROUND_DOWN])]
                for row in np.asarray(params, dtype=float).tolist()]


def prediction_line(segment_id: str, means: np.ndarray, sigmas: np.ndarray, mode: str) -> str:
    """The line ``predict`` writes for one segment's (T, 2) means and (T, 3) sigmas."""
    line = {"segment_id": segment_id, "means": _rounded(means),
            "sigmas": outward(sigmas), "mode": mode}
    return json.dumps(line, separators=(",", ":")) + "\n"
