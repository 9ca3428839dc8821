"""Dataset persistence: long-term timelines to/from NPZ + JSON.

A :class:`~repro.datasets.longterm.LongTermDataset` can take minutes to
regenerate at paper scale; saving one lets benchmark runs and notebooks
reload it instantly.  Arrays go into a single compressed ``.npz``; the
variable-size metadata (AS-path tables, grid, server index) goes into a
JSON sidecar embedded in the same archive.

:func:`iter_longterm` yields an archive's timelines **one at a time**
(NPZ members decompress lazily on access), so a paper-scale archive can
be replayed without holding the whole campaign in memory;
:func:`load_longterm` is a thin wrapper that drains it into the batch
dataset dict.  Short-term ping datasets round-trip the same way
(:func:`save_pings` / :func:`load_pings`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.datasets.longterm import LongTermDataset
from repro.datasets.shortterm import ShortTermPingDataset
from repro.datasets.timeline import (
    CANDIDATE_DTYPE,
    PingTimeline,
    TraceTimeline,
    compact_column,
)
from repro.measurement.scheduler import CampaignGrid
from repro.net.ip import IPVersion

__all__ = [
    "save_longterm",
    "load_longterm",
    "iter_longterm",
    "save_pings",
    "load_pings",
]

_PathLike = Union[str, Path]


def _key_token(src: int, dst: int, version: IPVersion) -> str:
    return f"{src}_{dst}_{int(version)}"


def save_longterm(dataset: LongTermDataset, path: _PathLike) -> None:
    """Serialize a long-term dataset to one compressed NPZ file.

    Server objects are not persisted (they belong to the platform); the
    loader returns a dataset with an empty server index.
    """
    arrays: Dict[str, np.ndarray] = {}
    meta: Dict[str, object] = {
        "grid": {
            "start_hour": dataset.grid.start_hour,
            "period_hours": dataset.grid.period_hours,
            "rounds": dataset.grid.rounds,
        },
        "timelines": [],
    }
    for (src, dst, version), timeline in sorted(
        dataset.timelines.items(), key=lambda item: (item[0][0], item[0][1], int(item[0][2]))
    ):
        token = _key_token(src, dst, version)
        arrays[f"rtt_{token}"] = timeline.rtt_ms
        arrays[f"outcome_{token}"] = timeline.outcome
        arrays[f"pathid_{token}"] = timeline.path_id
        arrays[f"cand_{token}"] = timeline.true_candidate
        meta["timelines"].append(
            {
                "src": src,
                "dst": dst,
                "version": int(version),
                "paths": [list(path) for path in timeline.paths],
            }
        )
    meta_bytes = json.dumps(meta).encode("utf-8")
    arrays["_meta"] = np.frombuffer(meta_bytes, dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def _parse_grid(meta: Dict[str, object]) -> CampaignGrid:
    return CampaignGrid(
        start_hour=float(meta["grid"]["start_hour"]),
        period_hours=float(meta["grid"]["period_hours"]),
        rounds=int(meta["grid"]["rounds"]),
    )


def _archive_timelines(archive, meta, times: np.ndarray) -> Iterator[TraceTimeline]:
    """The archive's timelines, with the builders' compact id columns.

    Archives saved before the compact layout hold wider id columns
    (int32 or int16 path ids, int16 candidates).  The timeline narrows
    path ids to its table's width itself; candidates are narrowed here,
    so a replayed timeline has the layout of a freshly built one.
    """
    for entry in meta["timelines"]:
        src, dst = int(entry["src"]), int(entry["dst"])
        version = IPVersion(int(entry["version"]))
        token = _key_token(src, dst, version)
        paths: List[Tuple[int, ...]] = [tuple(path) for path in entry["paths"]]
        yield TraceTimeline(
            src_server_id=src,
            dst_server_id=dst,
            version=version,
            times_hours=times,
            rtt_ms=archive[f"rtt_{token}"],
            outcome=archive[f"outcome_{token}"],
            path_id=archive[f"pathid_{token}"],
            paths=paths,
            true_candidate=compact_column(
                archive[f"cand_{token}"], CANDIDATE_DTYPE, "true_candidate"
            ),
        )


def iter_longterm(path: _PathLike) -> Iterator[TraceTimeline]:
    """Yield an archive's timelines one at a time, in saved (pair) order.

    Only the yielded timeline's arrays are decompressed and alive at any
    moment -- NPZ members load lazily on access -- so replaying a
    paper-scale archive holds one timeline at a time.  The archive
    handle closes when the generator is exhausted (or closed).
    """
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["_meta"].tobytes()).decode("utf-8"))
        times = _parse_grid(meta).times()
        yield from _archive_timelines(archive, meta, times)


def load_longterm(path: _PathLike) -> LongTermDataset:
    """Load a dataset written by :func:`save_longterm`.

    Thin wrapper over the :func:`iter_longterm` reader: drains the same
    lazy timeline stream into the batch dataset's dict.
    """
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["_meta"].tobytes()).decode("utf-8"))
        grid = _parse_grid(meta)
        dataset = LongTermDataset(grid=grid)
        for timeline in _archive_timelines(archive, meta, grid.times()):
            key = (timeline.src_server_id, timeline.dst_server_id, timeline.version)
            dataset.timelines[key] = timeline
    return dataset


def save_pings(dataset: ShortTermPingDataset, path: _PathLike) -> None:
    """Serialize a short-term ping dataset to one compressed NPZ file."""
    arrays: Dict[str, np.ndarray] = {}
    meta: Dict[str, object] = {
        "grid": {
            "start_hour": dataset.grid.start_hour,
            "period_hours": dataset.grid.period_hours,
            "rounds": dataset.grid.rounds,
        },
        "timelines": [],
    }
    for (src, dst, version), timeline in sorted(
        dataset.timelines.items(), key=lambda item: (item[0][0], item[0][1], int(item[0][2]))
    ):
        token = _key_token(src, dst, version)
        arrays[f"ping_{token}"] = timeline.rtt_ms
        meta["timelines"].append({"src": src, "dst": dst, "version": int(version)})
    meta_bytes = json.dumps(meta).encode("utf-8")
    arrays["_meta"] = np.frombuffer(meta_bytes, dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def load_pings(path: _PathLike) -> ShortTermPingDataset:
    """Load a dataset written by :func:`save_pings`."""
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["_meta"].tobytes()).decode("utf-8"))
        grid = CampaignGrid(
            start_hour=float(meta["grid"]["start_hour"]),
            period_hours=float(meta["grid"]["period_hours"]),
            rounds=int(meta["grid"]["rounds"]),
        )
        times = grid.times()
        dataset = ShortTermPingDataset(grid=grid)
        for entry in meta["timelines"]:
            src, dst = int(entry["src"]), int(entry["dst"])
            version = IPVersion(int(entry["version"]))
            token = _key_token(src, dst, version)
            dataset.timelines[(src, dst, version)] = PingTimeline(
                src_server_id=src,
                dst_server_id=dst,
                version=version,
                times_hours=times,
                rtt_ms=archive[f"ping_{token}"],
            )
    return dataset
