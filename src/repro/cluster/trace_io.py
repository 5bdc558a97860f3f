"""Adapters between external runtime traces and :class:`RuntimeDataset`.

The authors' real dataset is published (github.com/wiseLabCMU/pitot /
zenodo 14977004); this repository substitutes a simulator, but the whole
pipeline is trace-agnostic: anything expressible as rows of
``(workload, platform, interferers..., runtime_seconds)`` plus two
feature matrices trains identically. This module provides a documented
CSV interchange format so real traces (or other simulators) can be
plugged in:

* observations CSV: header ``workload,platform,interferer1,interferer2,
  interferer3,runtime_s`` — interferer columns empty or ``-1`` when
  absent;
* feature CSVs: one row per entity, first column ``id`` (must be the
  contiguous 0..N−1 index), remaining columns features.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .dataset import MAX_INTERFERERS, RuntimeDataset

__all__ = ["export_observations_csv", "import_trace_csv"]

_OBS_HEADER = [
    "workload", "platform",
    "interferer1", "interferer2", "interferer3",
    "runtime_s",
]


def export_observations_csv(dataset: RuntimeDataset, path: str | Path) -> None:
    """Write the observation table in the interchange format."""
    with open(Path(path), "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_OBS_HEADER)
        for row in range(dataset.n_observations):
            interferers = [
                "" if k < 0 else str(int(k))
                for k in dataset.interferers[row]
            ]
            writer.writerow([
                int(dataset.w_idx[row]),
                int(dataset.p_idx[row]),
                *interferers,
                repr(float(dataset.runtime[row])),
            ])


def _read_feature_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if not header or header[0] != "id":
            raise ValueError(f"{path}: first column must be 'id'")
        rows = sorted((int(r[0]), [float(v) for v in r[1:]]) for r in reader)
    ids = [r[0] for r in rows]
    if ids != list(range(len(ids))):
        raise ValueError(f"{path}: ids must be contiguous 0..N-1")
    return np.asarray([r[1] for r in rows], dtype=np.float64)


def import_trace_csv(
    observations_path: str | Path,
    workload_features_path: str | Path,
    platform_features_path: str | Path,
) -> RuntimeDataset:
    """Load an external trace in the interchange format.

    Validates index ranges (interferers: ``-1`` padding or a valid id) and
    that runtimes are positive and finite; raises ``ValueError`` with the
    offending line on malformed input.
    """
    w_feat = _read_feature_csv(Path(workload_features_path))
    p_feat = _read_feature_csv(Path(platform_features_path))

    w_idx, p_idx, interferers, runtime = [], [], [], []
    with open(Path(observations_path), newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if header != _OBS_HEADER:
            raise ValueError(
                f"unexpected header {header!r}; expected {_OBS_HEADER!r}"
            )
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(_OBS_HEADER):
                raise ValueError(f"line {line_no}: wrong column count")
            w = int(row[0])
            p = int(row[1])
            ks = [int(v) if v not in ("", "-1") else -1 for v in row[2:5]]
            r = float(row[5])
            if not 0 <= w < len(w_feat):
                raise ValueError(f"line {line_no}: workload {w} out of range")
            if not 0 <= p < len(p_feat):
                raise ValueError(f"line {line_no}: platform {p} out of range")
            # -1 is the only padding id; any other negative id would
            # index from the end of the feature matrix.
            if any(not -1 <= k < len(w_feat) for k in ks):
                raise ValueError(f"line {line_no}: interferer out of range")
            if not (np.isfinite(r) and r > 0):
                raise ValueError(
                    f"line {line_no}: runtime must be positive and finite, "
                    f"got {r!r}"
                )
            w_idx.append(w)
            p_idx.append(p)
            interferers.append(ks)
            runtime.append(r)

    return RuntimeDataset(
        w_idx=np.asarray(w_idx, dtype=np.int64),
        p_idx=np.asarray(p_idx, dtype=np.int64),
        interferers=np.asarray(interferers, dtype=np.int64).reshape(
            -1, MAX_INTERFERERS
        ),
        runtime=np.asarray(runtime, dtype=np.float64),
        workload_features=w_feat,
        platform_features=p_feat,
    )
