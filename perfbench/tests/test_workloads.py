"""Fast tests of the benchmark itself: tiny workloads, planted wrong answers.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from befs import cli, client, inspection  # noqa: E402
from befs.client import PolicyMode  # noqa: E402
from befs.inspection import Classification  # noqa: E402
from befs.suites import ProfileKind  # noqa: E402

import spans  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402
from befs import fleetsim  # noqa: E402
from workloads import EnforceLoopback, MeasureMemory, ReportLog  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def loopback(tmp_path):
    workload = EnforceLoopback(3, tmp_path, size=20)
    workload.set_up()
    yield workload
    workload.close()


def test_measure_memory_is_clean_then_counts_a_wrong_class(tmp_path, monkeypatch):
    workload = MeasureMemory(3, tmp_path, size=40)
    workload.set_up()
    clean = workload.run_round()
    assert (clean.attempted, clean.failed) == (40, 0)

    real = inspection.classify_steps

    def wrong(h1, h2, h3):
        cls, prior_ae, lose_ae = real(h1, h2, h3)
        if cls is Classification.STABLE_NO_FS_SUPPORT:
            cls = Classification.STABLE_SUPPORTS_FS_AE
        return cls, prior_ae, lose_ae

    monkeypatch.setattr(inspection, "classify_steps", wrong)
    planted = workload.run_round()
    assert 0 < planted.failed < planted.attempted


def test_measure_memory_fails_every_address_on_a_corrupt_store(tmp_path, monkeypatch):
    workload = MeasureMemory(3, tmp_path, size=40)
    workload.set_up()
    real_main = cli.main

    def main_then_corrupt(argv):
        code = real_main(argv)
        with open(workload.store, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        return code

    monkeypatch.setattr(cli, "main", main_then_corrupt)
    done = workload.run_round()
    assert done.failed == done.attempted == 40


def test_enforce_loopback_is_clean_then_counts_a_wrong_ladder(loopback, monkeypatch):
    clean = loopback.run_round()
    assert (clean.attempted, clean.failed) == (60, 0)
    # BEFS that tries the wide offer first keeps non-FS picks from servers
    # that do support FS.
    monkeypatch.setitem(client.LADDERS, PolicyMode.BEFS,
                        (ProfileKind.DEFAULT, ProfileKind.FS_ONLY))
    planted = loopback.run_round()
    assert planted.failed > 0


def test_report_log_is_clean_then_counts_wrong_tables(tmp_path, monkeypatch):
    workload = ReportLog(3, tmp_path, size=40, campaigns=2)
    workload.set_up()
    clean = workload.run_round()
    assert (clean.attempted, clean.failed) == (2, 0)

    real = cli.aggregate

    def drop_one(scans, inspections, meta, **kw):
        return real(scans, inspections[1:], meta, **kw)

    monkeypatch.setattr(cli, "aggregate", drop_one)
    assert workload.run_round().failed == 2
    monkeypatch.setattr(cli, "aggregate", real)
    with open(tmp_path / "store.jsonl", "a", encoding="utf-8") as fh:
        fh.write("{torn line\n")
    assert workload.run_round().failed == 2


def test_tracer_restores_bindings_and_yields_every_per_layer_metric(loopback):
    before = (client.connect, client.handshake_attempt, inspection.handshake_attempt)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert client.handshake_attempt is inspection.handshake_attempt
        assert client.handshake_attempt is not before[1]
        loopback.run_round()
    finally:
        tracer.uninstall()
    assert (client.connect, client.handshake_attempt, inspection.handshake_attempt) == before
    metrics = spans.layer_metrics(tracer.spans, 0.0, 0.004)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert [u for _, u in metrics.values()] == [m["unit"] for m in SPEC["per_layer"]]
    assert metrics["client.attempts_per_connect.default"][0] == 1.0
    assert metrics["handshake.exchange.socket.us_per_call"][0] > 0
    roots = {s[0] for s in tracer.spans if s[3] is None}
    assert "fleetsim.answer_offer" in roots  # served on the harness loop thread


def test_result_line_names_every_end_to_end_metric():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "enforce_loopback",
         "--seed", "2", "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report_log", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fleets_have_the_papers_random_ip_shares(seed):
    spec = {"size": 1000, "seed": seed, "mix": workloads.MIX}
    fleet = fleetsim.generate_fleet(fleetsim.fleet_spec_from_dict(spec))
    non_selectors, fs_among = workloads.fleet_shares(fleet)
    assert abs(non_selectors - workloads.NON_SELECTORS) < 0.015
    assert abs(fs_among - workloads.FS_AMONG_NON_SELECTORS) < 0.03


def _result(rate: float, failed: int = 0) -> dict:
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"items_per_s": {"value": rate, "unit": "1/s"}}}


def test_steadiness_needs_clean_runs_and_agreement_either_way():
    metrics = {"items_per_s": {"name": "items_per_s", "better": "higher", "bound": 0.1}}
    first = [_result(r) for r in (100, 101, 99, 100, 102)]
    assert steady.compare([first, first], metrics)[1]
    faster = [_result(1.4 * r["metrics"]["items_per_s"]["value"]) for r in first]
    assert not steady.compare([first, faster], metrics)[1]
    failing = first[:-1] + [_result(100, failed=1)]
    assert not steady.compare([first, failing], metrics)[1]
    spread = [_result(r) for r in (60, 80, 100, 120, 140)]
    assert not steady.compare([spread, spread], metrics)[1]
