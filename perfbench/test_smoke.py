"""Smoke test of the benchmark at a tiny size (two drops of four slots).

    python3 -m pytest perfbench/test_smoke.py -q

For every workload it checks that
- every metric of BENCHMARK.json is emitted with its unit, end-to-end
  ones with tracing off and per-layer ones with tracing on, and that
  every output check passes;
- the traced self-times add up to the traced passes' wall time within 5%;
- the persisted metrics.csv and CDF file are byte-identical to what
  ``fdcell run`` writes for the same config and seed.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def clean_env():
    env = {k: v for k, v in os.environ.items() if k != "FDCELL_SEED"}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def bench(workload, trace, seed=3):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
        "--trace", str(trace), "--tiny",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    return request.param, bench(request.param, 0), bench(request.param, 1)


def test_every_metric_emitted_with_unit(runs):
    _, (_, untraced), (_, traced) = runs
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def test_self_times_cover_traced_wall_time(runs):
    _, _, (detail, _) = runs
    wall = sum(p["wall_s"] for p in detail["passes"] if p["traced"])
    assert wall > 0
    assert abs(detail["traced_self_s"] - wall) <= 0.05 * wall


def test_traced_digests_equal_untraced(runs):
    _, (untraced, _), (traced, _) = runs
    assert traced["digests"] == untraced["digests"]


def cli_digests(config, out_dir):
    cmd = [
        sys.executable, "-m", "fdcell.cli", "run",
        "--scenario", config["scenario"], "--variant", config["variant"],
        "--cancellation", config["cancellation_db"], "--slots", str(config["slots"]),
        "--drops", str(config["drops"]), "--seed", str(config["seed"]), "--out", out_dir,
    ]
    subprocess.run(cmd, cwd=ROOT, env=clean_env(), check=True, capture_output=True, timeout=180)
    digests = {}
    for name in os.listdir(out_dir):
        if name == "metrics.csv" or name.startswith("cdf_"):
            with open(os.path.join(out_dir, name), "rb") as f:
                digests[name] = hashlib.sha256(f.read()).hexdigest()
    return digests


def test_outputs_match_fdcell_run(runs, tmp_path):
    _, (detail, _), _ = runs
    ref = detail["reference"]
    assert cli_digests(ref["config"], str(tmp_path / "ref")) == ref["digests"]
    assert cli_digests(detail["config"], str(tmp_path / "timed")) == detail["digests"]


def test_refuses_to_run_without_sources(tmp_path):
    os.makedirs(tmp_path / "perfbench")
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name)) as src, open(tmp_path / "perfbench" / name, "w") as dst:
                dst.write(src.read())
    with open(tmp_path / "BENCHMARK.json", "w") as f:
        json.dump(SPEC, f)
    cmd = SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
