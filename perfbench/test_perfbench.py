"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import child
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload):
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = run_bench(workload, trace)
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for metric in SPEC[section]:
            printed = result["metrics"][metric["name"]]
            assert printed["unit"] == metric["unit"]
            assert isinstance(printed["value"], float)
        digests[trace] = json.loads(lines[-2])["details"]["first_digests"]
    # The same seed gives the same units, traced or not.
    assert digests[0] == digests[1]


@pytest.fixture(scope="module")
def tl():
    return child.import_turanlab(ROOT)


def _alter_slack(k, report):
    if k == 0:
        agg = next(a for a in report["checks"].values() if a["top_k"])
        agg["top_k"][0]["slack"] += 1e-3
        agg["min_slack"] = agg["top_k"][0]["slack"]


def _alter_equalities(k, report):
    if k == 0:
        next(iter(report["checks"].values()))["equalities"] += 1


@pytest.mark.parametrize("workload", ["enum7_connected", "g6_n8to10"])
def test_altered_slack_counts_as_error(tl, tmp_path, workload):
    clean = child.run_loop(tl, workload, 3, 0.05, False, str(tmp_path), tiny=True)
    assert clean["failed"] == 0
    out = child.run_loop(tl, workload, 3, 0.05, False, str(tmp_path), tiny=True, tamper=_alter_slack)
    assert out["failed"] == 1 and out["attempted"] >= 1
    assert any("unit 0" in p and "re-evaluated" in p for p in out["problems"])


def test_digest_mismatch_counts_as_error(tl, tmp_path):
    clean = child.run_loop(tl, "gnp1000", 3, 0.05, False, str(tmp_path), tiny=True)
    pins = clean["digests"][:1]
    out = child.run_loop(tl, "gnp1000", 3, 0.05, False, str(tmp_path), tiny=True, pins=pins,
                         tamper=_alter_equalities)
    assert out["failed"] == 1
    assert any("pinned reference" in p for p in out["problems"])


def test_missing_layer_is_reported_not_fatal(tl, tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("graph.gone", "turanlab.scanner", "no_such_name"),))
    out = child.run_loop(tl, "g6_n8to10", 3, 0.05, True, str(tmp_path), tiny=True)
    assert out["failed"] == 0
    assert out["missing_layers"] == ["graph.gone"]
    assert "graph.gone.self_us_per_graph" not in out["layers"]
    assert "graph.from_graph6.self_us_per_graph" in out["layers"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert code != 0
    assert not any(line.startswith('{"correct"') for line in lines)
