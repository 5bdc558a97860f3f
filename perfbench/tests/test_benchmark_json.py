"""``BENCHMARK.json`` agrees with the metric tables the benchmark prints."""

from __future__ import annotations

import json
import re
from pathlib import Path

from perfbench.layers import PER_LAYER
from perfbench.run import WORKLOAD_NAMES
from perfbench.workloads import END_TO_END, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    names = [w["name"] for w in _benchmark_json()["workloads"]]
    assert names == list(WORKLOAD_NAMES) == list(WORKLOADS)


def test_end_to_end_matches_and_setup_has_the_largest_bound():
    rows = _benchmark_json()["end_to_end"]
    assert {r["name"]: (r["unit"], r["better"], r["bound"]) for r in rows} == END_TO_END
    bounds = {r["name"]: r["bound"] for r in rows}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_per_layer_matches():
    rows = _benchmark_json()["per_layer"]
    assert {r["name"]: (r["unit"], r["better"]) for r in rows} == PER_LAYER


def test_names_and_units_are_well_formed():
    doc = _benchmark_json()
    rows = doc["end_to_end"] + doc["per_layer"] + doc["workloads"]
    names = [r["name"] for r in rows]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(r["unit"]) for r in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
