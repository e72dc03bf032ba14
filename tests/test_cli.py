"""End-to-end CLI runs through a subprocess, matching the printed surfaces."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

# the child interpreter imports the package from this checkout, like the tests
SRC = str(Path(__file__).resolve().parent.parent / "src")

INSTANCE = {
    "sigma2": 1.0,
    "rates": [1.0, 1.0],
    "gains": [[3.0, 1.0], [1.0, 2.0]],
    "efficiency": {"model": "exponential", "M": 100},
}
SIGMOID = {
    "sigma2": 1.0,
    "gains": [[100.0, 1.0], [100.0, 1.0]],
    "efficiency": {"model": "rational_sigmoid"},
}


def run_cli(*args):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "specgame", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )


def write(tmp_path, obj, name):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def kv(stdout):
    out = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            out[key.strip()] = val.strip()
    return out


class TestSolve:
    def test_stackelberg_keyvalue(self, tmp_path):
        res = run_cli("solve", "--config", write(tmp_path, INSTANCE, "a.json"),
                      "--mode", "stackelberg")
        assert res.returncode == 0
        assert "[stackelberg]" in res.stdout
        fields = kv(res.stdout)
        assert fields["kind"] == "StackelbergExact"
        assert fields["orthogonalized"] == "true"
        assert fields["user1.carrier"] == "1"
        assert fields["user1.power"] == "2.15820013"
        assert fields["user1.sinr"] == "6.47460038"
        assert fields["user1.utility"] == "0.397084913"
        assert fields["user2.carrier"] == "2"
        assert fields["user2.power"] == "3.23730019"
        assert fields["user2.utility"] == "0.264723275"
        assert fields["welfare"] == "0.661808188"

    def test_default_mode_solves_all_three(self, tmp_path):
        res = run_cli("solve", "--config", write(tmp_path, INSTANCE, "a.json"))
        assert res.returncode == 0
        for block in ("[nash]", "[stackelberg]", "[social]"):
            assert block in res.stdout
        assert res.stdout.index("[nash]") < res.stdout.index("[stackelberg]")
        assert res.stdout.index("[stackelberg]") < res.stdout.index("[social]")

    def test_csv_format(self, tmp_path):
        res = run_cli("solve", "--config", write(tmp_path, INSTANCE, "a.json"),
                      "--mode", "stackelberg", "--format", "csv")
        lines = res.stdout.splitlines()
        assert lines[0] == "mode,kind,orthogonalized,user,carrier,power,sinr,utility"
        assert lines[1] == "stackelberg,StackelbergExact,true,1,1,2.15820013,6.47460038,0.397084913"
        assert lines[2] == "stackelberg,StackelbergExact,true,2,2,3.23730019,6.47460038,0.264723275"

    def test_candidate_block_printed_when_best_is_contested(self, tmp_path):
        cfg = dict(INSTANCE, gains=[[8.0, 1.0], [8.0, 1.0]])
        res = run_cli("solve", "--config", write(tmp_path, cfg, "d.json"),
                      "--mode", "stackelberg")
        fields = kv(res.stdout)
        assert fields["candidates.deterrence_sinr"] == "7"
        assert fields["candidates.deter_value"] == "1.04320906"
        assert fields["candidates.retreat_value"] == "0.132361638"
        assert fields["candidates.vanish_value"] == "0"
        assert fields["candidates.best_alone_value"] == "1.0588931"
        assert "note = " in res.stdout

    def test_near_boundary_auto_epsilon(self, tmp_path):
        res = run_cli("solve", "--config", write(tmp_path, SIGMOID, "rs.json"),
                      "--mode", "stackelberg")
        assert res.returncode == 0
        fields = kv(res.stdout)
        assert fields["kind"] == "StackelbergEpsilon"
        assert fields["orthogonalized"] == "false"
        assert fields["epsilon"] == "2.5e-05"
        assert fields["alpha"] == "7.62939453e-08"
        assert fields["user1.utility"] == "24.9999762"
        assert fields["user2.utility"] == "164.037569"

    def test_explicit_epsilon(self, tmp_path):
        res = run_cli("solve", "--config", write(tmp_path, SIGMOID, "rs.json"),
                      "--epsilon", "1e-3")
        assert res.returncode == 0
        fields = kv(res.stdout)
        assert fields["kind"] == "StackelbergEpsilon"
        assert fields["epsilon"] == "0.001"
        assert fields["user1.utility"] == "24.9992371"

    def test_epsilon_rejected_when_exact_exists(self, tmp_path):
        res = run_cli("solve", "--config", write(tmp_path, INSTANCE, "a.json"),
                      "--epsilon", "1e-3")
        assert res.returncode == 3
        assert "exact equilibrium exists" in res.stderr

    def test_epsilon_requires_stackelberg_mode(self, tmp_path):
        res = run_cli("solve", "--config", write(tmp_path, INSTANCE, "a.json"),
                      "--mode", "nash", "--epsilon", "1e-3")
        assert res.returncode == 2
        assert "stackelberg" in res.stderr


class TestSolveErrors:
    def test_missing_file(self):
        res = run_cli("solve", "--config", "/nonexistent/cfg.json")
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    def test_missing_key(self, tmp_path):
        cfg = {k: v for k, v in INSTANCE.items() if k != "sigma2"}
        res = run_cli("solve", "--config", write(tmp_path, cfg, "bad.json"))
        assert res.returncode == 2
        assert "sigma2" in res.stderr

    def test_unknown_key(self, tmp_path):
        res = run_cli("solve", "--config",
                      write(tmp_path, dict(INSTANCE, extra=1), "bad.json"))
        assert res.returncode == 2
        assert "extra" in res.stderr

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"sigma2": 1.0,\n  oops}')
        res = run_cli("solve", "--config", str(path))
        assert res.returncode == 2
        assert "line 2" in res.stderr

    def test_unknown_flag(self, tmp_path):
        res = run_cli("solve", "--config", write(tmp_path, INSTANCE, "a.json"),
                      "--frobnicate")
        assert res.returncode == 2


class TestBounds:
    def test_table_shape_and_single_carrier_row(self):
        res = run_cli("bounds", "--M", "100", "--k-min", "1", "--k-max", "3")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert lines[0] == "K,kind,value"
        assert lines[1] == "1,ProbNoOrthIID,1"
        kinds = [ln.split(",")[1] for ln in lines[1:]]
        assert kinds == (
            ["ProbNoOrthIID"] * 3 + ["ProbNoOrthIdentical"] * 3
            + ["SEBoundIID"] * 3 + ["SEBoundIdentical"] * 3
        )

    def test_direct_gamma_star_matches_solved_one(self):
        direct = run_cli("bounds", "--gamma-star", "6.4", "--k-min", "2", "--k-max", "2")
        solved = run_cli("bounds", "--M", "100", "--k-min", "2", "--k-max", "2")
        val = lambda out: float(out.splitlines()[1].split(",")[2])
        assert val(direct.stdout) == pytest.approx(0.0736961451, rel=1e-9)
        assert val(solved.stdout) == pytest.approx(val(direct.stdout), abs=1e-3)

    def test_se_bound_below_interference_free_limit(self):
        res = run_cli("bounds", "--M", "100", "--k-min", "32", "--k-max", "32")
        rows = [ln.split(",") for ln in res.stdout.splitlines()[1:]]
        se = float(next(r[2] for r in rows if r[1] == "SEBoundIID"))
        assert se < math.log2(1.0 + 6.474600379589404)
        assert se == pytest.approx(math.log2(1.0 + 6.474600379589404), abs=1e-4)

    def test_output_file(self, tmp_path):
        out = tmp_path / "bounds.csv"
        res = run_cli("bounds", "--M", "100", "--k-min", "1", "--k-max", "2",
                      "--out", str(out))
        assert res.returncode == 0
        assert "wrote" in res.stdout
        assert out.read_text().splitlines()[0] == "K,kind,value"

    def test_m_and_gamma_star_are_exclusive(self):
        assert run_cli("bounds", "--M", "100", "--gamma-star", "6.4").returncode == 2
        assert run_cli("bounds").returncode == 2

    def test_bad_k_range(self):
        assert run_cli("bounds", "--M", "100", "--k-min", "0").returncode == 2
        assert run_cli("bounds", "--M", "100", "--k-min", "5", "--k-max", "2").returncode == 2


class TestSweep:
    SWEEP = {"K_list": [2], "trials": 60, "seed": 5}

    def test_writes_aggregate_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--config", write(tmp_path, self.SWEEP, "s.json"),
                      "--out", str(out))
        assert res.returncode == 0
        assert "wrote" in res.stdout and "3 rows" in res.stdout
        lines = out.read_text().splitlines()
        assert lines[0].startswith("K,rho,theta,mode,trials,")
        assert len(lines) == 4

    def test_per_trial_sidecar(self, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli("sweep", "--config", write(tmp_path, self.SWEEP, "s.json"),
                      "--out", str(out), "--per-trial")
        assert res.returncode == 0
        sidecar = tmp_path / "sweep.trials.csv"
        assert sidecar.exists()
        lines = sidecar.read_text().splitlines()
        assert lines[0].startswith("trial,K,rho,theta,mode,kind,")
        assert len(lines) == 1 + 60 * 3

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = write(tmp_path, self.SWEEP, "s.json")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(a)).returncode == 0
        assert run_cli("sweep", "--config", cfg, "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = write(tmp_path, self.SWEEP, "s.json")
        a = tmp_path / "w1.csv"
        b = tmp_path / "w2.csv"
        assert run_cli("sweep", "--config", cfg, "--out", str(a),
                       "--workers", "1").returncode == 0
        assert run_cli("sweep", "--config", cfg, "--out", str(b),
                       "--workers", "2").returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_config_errors(self, tmp_path):
        res = run_cli("sweep", "--config", write(tmp_path, {"trials": 5}, "s.json"),
                      "--out", str(tmp_path / "x.csv"))
        assert res.returncode == 2
        assert "K_list" in res.stderr


class TestVerify:
    def test_small_run_passes(self):
        res = run_cli("verify", "--trials", "300", "--seed", "1")
        assert res.returncode == 0
        assert "PASS" in res.stdout
        assert "FAIL" not in res.stdout
        assert "checks passed" in res.stdout


class TestEntryPoint:
    def test_console_script_installed(self):
        exe = shutil.which("specgame")
        assert exe is not None
        res = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert res.returncode == 0
        for sub in ("solve", "sweep", "bounds", "verify"):
            assert sub in res.stdout
