"""Checks of the benchmark itself: metric lists, count determinism, gates."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

_spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

import hostspeed  # noqa: E402  (importable once run.py has loaded)
from workloads import Item  # noqa: E402


def _bench(*args):
    return subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_untraced_run_prints_every_end_to_end_metric():
    result = _result(_bench("--workload", "census_gf", "--seed", "3", "--seconds", "0.1"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 7
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


# A traced run of the first items of a pass, printing its count metrics and
# failures.  The digest of a partial pass cannot match the recorded one, so a
# digest failure is expected.
TRACED_PART = """
import json, sys
sys.path.insert(0, {bench!r})
import run
workload = run.WORKLOADS[{workload!r}]
setup = workload.setup
workload.setup = lambda lib, seed: setup(lib, seed)[:{items}]
log, metrics, details, tracer = run.traced_run(workload, 5)
counts = [name for name, unit in run.PER_LAYER if unit in ("count", "bits")]
print(json.dumps({{"counts": {{n: metrics[n] for n in counts}}, "failed_by": log.failed_by}}))
"""
ITEMS = {"chart_roundtrip": 60, "generic_elim": 40, "betti_strata": 300, "census_gf": 3}


@pytest.mark.parametrize("workload", sorted(ITEMS))
def test_traced_counts_repeat_across_processes(workload):
    code = TRACED_PART.format(bench=BENCH_DIR, workload=workload, items=ITEMS[workload])
    first, second = (
        json.loads(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED=hash_seed), timeout=300,
        ).stdout.strip().splitlines()[-1])
        for hash_seed in ("1", "2"))
    assert first["failed_by"] == second["failed_by"] == {"digest": 1}
    assert first["counts"] == second["counts"]
    assert any(v for n, v in first["counts"].items() if n.endswith(".calls"))


def test_host_speed_scales_by_the_samples_during_and_around_an_interval():
    speed = hostspeed.HostSpeed()
    speed.samples = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 4.0]
    ref = hostspeed.REFERENCE_S
    assert speed.scale(3, 3) == ref / 1.5  # none during it: samples 0-5
    assert speed.scale(4, 6) == ref / 2.0  # two during it: samples 1-7
    assert speed.scale(0, 0) == ref / 1.0  # clipped at the start: samples 0-2
    assert speed.speed() == ref / 2.0


def test_host_speed_samples_on_a_timer_inside_its_block():
    speed = hostspeed.HostSpeed()
    with speed:
        end = time.perf_counter() + 10 * hostspeed.EVERY_S
        while time.perf_counter() < end:
            pass
    taken = len(speed.samples)
    time.sleep(3 * hostspeed.EVERY_S)
    assert taken >= 5 and len(speed.samples) == taken
    assert 0 < speed.spent < 10 * hostspeed.EVERY_S


def test_recorded_digest_matches():
    proc = _bench("--workload", "census_gf", "--seed", "8", "--seconds", "0.1")
    assert _result(proc)["correct"]
    assert " reference match" in proc.stdout


@pytest.mark.parametrize("recorded", [{"census_gf": "f" * 64}, {}])
def test_digest_mismatch_or_missing_reference_counts_as_failure(tmp_path, monkeypatch,
                                                                recorded):
    items = [Item([1, 2], "census", None)]
    log = run.Outcomes()
    log.hashes = ["0" * 64]
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(recorded))
    monkeypatch.setattr(run, "DIGESTS", str(path))
    info = run.check_digest(run.WORKLOADS["census_gf"], items, log)
    assert info["digest_match"] is False
    assert (log.failed, log.failed_by) == (1, {"digest": 1})


def test_exception_is_counted_and_blamed_on_the_called_module():
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    import hbcells  # noqa: F401  (imports every module the library namespace needs)

    class Raising:
        def run_item(self, lib, item):
            return lib.brute_force_ideal_count(4, 2), []  # colength 4 is refused

    lib = run.library({m: sys.modules[f"hbcells.{m}"] for m in run.CALLS})
    log = run.Outcomes()
    run.run_pass(Raising(), lib, [Item([4, 2], "census", None)], log)
    assert (log.attempted, log.failed, log.failed_by) == (1, 1, {"census": 1})


def test_bare_directory_exits_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                           "--workload", "census_gf", "--seed", "1", "--seconds", "1"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
