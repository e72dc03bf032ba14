"""Tests of the benchmark itself, on workloads cut down to a few trials.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import specgame.equilibria as eq  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRIALS = 40
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# metrics that count work or outcomes, so they must repeat exactly
EXACT = {
    name for name in (m["name"] for m in SPEC["per_layer"])
    if name.endswith((".calls", ".calls_per_trial", "root_found_ratio", "ops_failed_frac",
                      "transfer_bytes_per_trial", "write_trial_csv.bytes_per_trial"))
    or ".kind." in name or name.startswith(("equilibria.nash.", "equilibria.stackelberg.",
                                            "equilibria.social."))
}


def bench(tmp_path, name, trace, seed=3):
    return run.run(WORKLOADS[name].resized(TRIALS), seed, 0.0, trace, tmp_path / name)


def _shares_always(original):
    def nash_solve(inst):
        return dataclasses.replace(original(inst), orthogonalized=False)
    return nash_solve


def _inflates_leader(original):
    def stackelberg_solve(inst):
        o = original(inst)
        leader = dataclasses.replace(o.users[0], utility=10.0 * o.users[0].utility)
        return dataclasses.replace(o, users=(leader, o.users[1]))
    return stackelberg_solve


@pytest.mark.parametrize(
    "solver, corrupt, symptom",
    [
        ("nash_solve", _shares_always, "nash p_no_orth"),
        ("stackelberg_solve", _inflates_leader, "social welfare below"),
    ],
)
def test_corrupted_solver_fails_the_output_check(tmp_path, monkeypatch, solver, corrupt, symptom):
    monkeypatch.setattr(eq, solver, corrupt(getattr(eq, solver)))
    report = bench(tmp_path, "iid_main", trace=False)
    assert not report.summary()["correct"]
    assert any(symptom in p for p in report.problems), report.problems


def test_seed_code_passes_the_output_check(tmp_path):
    report = bench(tmp_path, "iid_main", trace=False)
    assert report.problems == []
    assert report.summary()["failed"] == 0
    assert sorted(report.metrics) == sorted(m["name"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", ["contested_rs", "iid_pool2"])
def test_traced_counts_repeat_exactly(tmp_path, name):
    first = bench(tmp_path / "a", name, trace=True)
    second = bench(tmp_path / "b", name, trace=True)
    assert first.problems == [] and second.problems == []
    assert sorted(first.metrics) == sorted(m["name"] for m in SPEC["per_layer"])
    exact = {n: first.metrics[n] for n in EXACT}
    assert exact == {n: second.metrics[n] for n in EXACT}
    assert first.summary()["attempted"] == second.summary()["attempted"] > 0


def test_traced_layers_account_for_wall_time(tmp_path):
    m = bench(tmp_path, "contested_rs", trace=True).metrics
    parts = sum(m[f"layer.{layer}.self_us_per_trial"][0] for layer in
                ("channel", "efficiency", "game", "equilibria", "sweep"))
    parts += m["layer.remainder_us_per_trial"][0]
    assert parts == pytest.approx(m["layer.wall_us_per_trial"][0], rel=1e-9)
    assert m["equilibria.stackelberg.kind.StackelbergEpsilon"][0] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "iid_main", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
