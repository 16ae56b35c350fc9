"""Artifact persistence: CSV tables, JSON manifests and verdicts.

Floats are serialized with ``repr`` (shortest exact round-trip, never more than
17 significant digits), so identical runs produce bit-identical files.  Every
artifact a run writes is listed in exactly one ``manifest.json``; the manifest
carries a content hash over the resolved configuration and artifact digests,
excluding wall-clock fields, so reruns are idempotent up to timestamps.
"""

from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np

__all__ = [
    "format_float",
    "write_csv",
    "write_trajectory",
    "write_json",
    "build_manifest",
]


def format_float(x) -> str:
    return repr(float(x))


def write_csv(path: Path, header: list[str], rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, (float, np.floating))
                              else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trajectory(out_dir: Path, traj) -> list[Path]:
    """One CSV ``snapshot_<i>.csv`` per snapshot with columns x, re/im of u and du/dt."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, (t, u, v) in enumerate(traj.snapshots):
        path = out_dir / f"snapshot_{i:04d}.csv"
        rows = ((float(x), float(a.real), float(a.imag), float(b.real), float(b.imag))
                for x, a, b in zip(traj.grid.x, u, v))
        write_csv(path, ["x", "re_u", "im_u", "re_ut", "im_ut"], rows)
        paths.append(path)
    return paths


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, (np.floating,)):
            return float(o)
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, Path):
            return str(o)
        return super().default(o)


def write_json(path: Path, payload: dict) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, cls=_Encoder) + "\n")
    return path


def _digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def build_manifest(out_dir: Path, config: dict, derived: dict, artifacts: list[Path],
                   wall_time: float) -> Path:
    """Write manifest.json referencing every artifact of the run.

    ``content_hash`` covers the resolved config, derived quantities and
    artifact digests (not wall time), so reruns hash identically.
    """
    out_dir = Path(out_dir)
    entries = [{"path": str(Path(p).relative_to(out_dir)), "sha256_16": _digest(p)}
               for p in artifacts]
    stable = {
        "config": config,
        "derived": derived,
        "artifacts": entries,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    content_hash = hashlib.sha256(
        json.dumps(stable, sort_keys=True, cls=_Encoder).encode()).hexdigest()[:12]
    payload = dict(stable)
    payload["run_id"] = content_hash
    payload["wall_time_s"] = wall_time
    return write_json(out_dir / "manifest.json", payload)
