"""Tests of the benchmark itself: span arithmetic, the percentile rule,
failure accounting, and a reduced-size smoke run of every workload."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import steady  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def spans(*rows):
    """(start, end, parent) rows -> the three arrays ``self_times`` takes."""
    table = np.array(rows, dtype=np.int64)
    return table[:, 0], table[:, 1], table[:, 2]


def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,70]
    start, end, parent = spans((0, 100, -1), (10, 40, 0), (15, 25, 1), (50, 70, 0))
    assert tracing.self_times(start, end, parent).tolist() == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    # Children [10,30] and [20,40] overlap on [20,30]; [90,120] runs past
    # the parent's end at 100.
    start, end, parent = spans((0, 100, -1), (10, 30, 0), (20, 40, 0), (90, 120, 0))
    assert tracing.self_times(start, end, parent)[0] == 100 - 30 - 10


def test_self_times_of_a_traced_tree_add_up_to_the_root():
    tracer = tracing.Tracer()

    def leaf():
        return sum(range(2000))

    leaf_t = tracer.wrap(leaf, "leaf")
    middle_t = tracer.wrap(lambda: leaf_t() + leaf_t(), "middle")
    with tracer.span("root"):
        middle_t()
        leaf_t()
    a = tracer.arrays()
    own = tracing.self_times(a["start"], a["end"], a["parent"])
    root = a["end"][0] - a["start"][0]
    assert own.sum() == root
    assert (own >= 0).all()
    assert [tracer.names[n] for n in a["name"]] == ["root", "middle", "leaf", "leaf", "leaf"]
    assert a["parent"].tolist() == [-1, 0, 1, 1, 0]


def test_install_wraps_sibling_imports_and_uninstall_restores():
    import unlearnlab.model
    import unlearnlab.trainer
    import unlearnlab.unlearn

    original = unlearnlab.model.loss_and_grad
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert unlearnlab.trainer.loss_and_grad is unlearnlab.model.loss_and_grad
        assert unlearnlab.unlearn.loss_and_grad is not original
        assert unlearnlab.unlearn.loss_and_grad.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert unlearnlab.trainer.loss_and_grad is original
    assert unlearnlab.unlearn.loss_and_grad is original


@pytest.mark.parametrize(
    "n, expected",
    [(1, None), (9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
     (10000, 99.9)],
)
def test_tail_percentile_needs_ten_samples_beyond_it(n, expected):
    assert harness.tail_percentile(n) == expected


def test_summary_states_the_sample_count_and_supported_tail():
    small = harness.summarize([3.0, 1.0, 5.0])
    assert small == {"value": 3.0, "mean": 3.0, "median": 3.0, "min": 1.0, "n": 3}
    big = harness.summarize([float(i) for i in range(99)] + [9900.0])
    assert big["n"] == 100 and big["min"] == 0.0 and "p90" in big
    assert big["value"] == big["mean"] == 147.51 and big["median"] == 49.5
    assert harness.summarize([1.0, 2.0, 9.0], "median")["value"] == 2.0


class FakeWorkload:
    """Ops take one clock tick; every third op raises."""

    def __init__(self, clock):
        self.clock = clock

    def op(self, k, rec):
        self.clock.now += 1.0
        rec.stages["eval"].append(0.5)
        if k % 3 == 2:
            raise RuntimeError("boom")
        good = {"fa": 0.0, "ra": 1.0, "ta": 1.0, "mia": 0.5, "kl_to_ref": 0.1,
                "avg_d": 1.0, "gaps": {}}
        rec.reports = {"sfr_on": good, "ga": dict(good, kl_to_ref=0.2)}
        rec.params = {"sfr_on": np.zeros(3)}
        rec.pre_fa = 1.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_fail_frac_counts_raising_ops_and_keeps_their_timings():
    clock = FakeClock()
    records = harness.run_ops(FakeWorkload(clock), 9.0, False, clock=clock)
    assert len(records) == 9
    failed = [r for r in records if r.failures]
    assert [r.index for r in failed] == [2, 5, 8]
    assert all("raised RuntimeError: boom" in r.failures[0] for r in failed)
    assert all(r.wall == 1.0 for r in records)
    e2e = harness.e2e_metrics(0.1, {}, records)
    assert e2e["op_s"]["n"] == 9 and e2e["eval_s"]["n"] == 9
    assert all(r.digest for r in records if not r.failures)


def test_failed_check_counts_as_a_failed_op():
    clock = FakeClock()

    class NoForgetting(FakeWorkload):
        def op(self, k, rec):
            super().op(k, rec)
            rec.pre_fa = 0.0

    records = harness.run_ops(NoForgetting(clock), 2.0, False, clock=clock)
    assert records[0].failed and not records[0].failures
    assert "did not drop below" in records[0].misses[0]


def test_desk_also_requires_sfr_on_kl_below_ft():
    report = {"fa": 0.0, "ra": 1.0, "ta": 1.0, "mia": 0.5, "avg_d": 1.0, "gaps": {}}
    rec = workloads.OpRecord(0, pre_fa=1.0)
    rec.reports = {"sfr_on": dict(report, kl_to_ref=0.1), "ga": dict(report, kl_to_ref=0.2),
                   "ft": dict(report, kl_to_ref=0.1)}
    assert workloads.check_quality(rec) == []
    misses = workloads.check_quality(rec, workloads.Desk.kl_rivals)
    assert len(misses) == 1 and "not below ft KL" in misses[0]


def test_cli_quick_draws_every_seed_per_op_and_keeps_the_rest_of_the_config(tmp_path):
    workload = workloads.CliQuick(5, "full", str(tmp_path))
    committed = workloads.committed_config("blobs_quick.json")
    configs = [workload._config(k, "out") for k in (0, 1)]
    assert configs[0] == workload._config(0, "out")

    def seeds(config):
        return [config[key]["seed"] for key in ("dataset", "split", "model", "train")] + [
            m["seed"] for m in config["unlearn"].values()]

    def without_seeds(value):
        if isinstance(value, dict):
            return {k: without_seeds(v) for k, v in value.items() if k != "seed"}
        return value

    assert seeds(configs[0]) != seeds(configs[1])
    assert not set(seeds(configs[0])) & set(seeds(committed))
    for config in configs:
        assert without_seeds(config) == without_seeds(dict(committed, output_dir="out"))


def test_cli_wide_sends_wides_tables_with_per_op_seeds(tmp_path):
    workload = workloads.CliWide(5, "full", str(tmp_path))
    workload.model_seed = 7
    configs = [workload._config(k, "out") for k in (0, 1)]
    assert configs[0] == workload._config(0, "out")
    assert configs[0]["train"]["seed"] != configs[1]["train"]["seed"]
    assert configs[0]["unlearn"]["sfr_on"]["seed"] != configs[1]["unlearn"]["sfr_on"]["seed"]
    wide = workloads.WIDE["full"]
    for config in configs:
        assert config["model"]["seed"] == 7
        assert dict(config["train"], seed=None) == dict(wide["retrain"], seed=None)
        for method, fields in wide["unlearn"].items():
            assert dict(config["unlearn"][method], seed=None) == dict(fields, seed=None)


@pytest.mark.parametrize(
    "base, new, status",
    [([10, 10.5, 11, 10.2, 10.8], [10.4, 10.6, 10.9, 10.1, 10.7], "ok"),
     ([10, 10.5, 11, 10.2, 10.8], [14, 14.5, 15, 14.2, 14.8], "worse"),
     ([10, 10.5, 11, 10.2, 10.8], [7, 7.5, 8, 7.2, 7.8], "better"),
     ([10, 20, 30, 15, 25], [12, 22, 28, 14, 26], "unresolved"),
     ([10, 20, 30, 15, 25], [1, 2, 3, 1.5, 2.5], "better")],
)
def test_compare_marks_wide_spreads_unresolved(base, new, status):
    assert steady.compare_metric(base, new, 0.25, "lower").endswith(" " + status)


def _bench(tmp_path, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args, "--seed", "3",
         "--seconds", "0.5", "--size", "smoke", "--out-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(tmp_path, workload):
    spec = _spec()
    timed = _bench(tmp_path, "--workload", workload, "--trace", "0")
    assert set(timed) == {"correct", "attempted", "failed", "metrics"}
    assert timed["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in timed["metrics"].items()} == units
    assert all(v["value"] > 0 for v in timed["metrics"].values())

    traced = _bench(tmp_path, "--workload", workload, "--trace", "1")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == units
    assert traced["attempted"] >= 2
    assert os.path.exists(tmp_path / f"spans-{workload}-seed3-trace1.npz")


def test_benchmark_spec_lists_the_harness_metrics():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


def test_benchmark_spec_stays_within_its_format_limits():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and name.fullmatch(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert name.fullmatch(m["name"]) and unit.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
