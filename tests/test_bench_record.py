"""scripts/bench_record.py on synthetic benchmark result files."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

MACHINE = {"nproc": 2, "cpus_usable": 2, "cpu_model": "test cpu", "caches": {"L2-Unified": "1M"}}


def _result(directory, workload, seed, wall, setup=0.2, rss=40.0, attempted=30, failed=0, trace=0):
    metrics = {"wall_ref_ratio": {"value": wall, "unit": "ratio"},
               "setup_s": {"value": setup, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    doc = {"result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics},
           "machine": MACHINE, "versions": {"python": "3", "numpy": "2"}, "seed": seed}
    (directory / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(doc))


def test_records_median_quartiles_runs_and_machine(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    for seed, wall in zip(range(1, 6), (5.0, 1.0, 4.0, 2.0, 3.0)):
        _result(out, "theory_scans", seed, wall, setup=0.1 * seed, failed=int(seed == 2))
    _result(out, "theory_scans", 9, 100.0, trace=1)  # traced files are not end-to-end results
    _result(out, "soliton", 1, 50.0)
    assert bench_record.main(["--label", "t1", "--results", str(out)], root=str(tmp_path)) == 0
    bench = json.loads((tmp_path / "BENCH_t1.json").read_text())
    assert bench["label"] == "t1" and sorted(bench["workloads"]) == ["soliton", "theory_scans"]
    ts = bench["workloads"]["theory_scans"]
    assert ts["metrics"]["wall_ref_ratio"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert ts["metrics"]["setup_s"]["median"] == pytest.approx(0.3)
    assert ts["metrics"]["peak_rss_mb"] == {"median": 40.0, "q1": 40.0, "q3": 40.0, "n": 5}
    assert (ts["benchmark_runs"], ts["runs_attempted"], ts["runs_failed"]) == (5, 150, 1)
    assert ts["seeds"] == [1, 2, 3, 4, 5]
    assert ts["machines"] == [MACHINE] and "parent" not in ts
    assert bench["workloads"]["soliton"]["metrics"]["wall_ref_ratio"] == {
        "median": 50.0, "q1": 50.0, "q3": 50.0, "n": 1}


def test_pairs_the_parent_seed_by_seed(tmp_path):
    change, parent = tmp_path / "change", tmp_path / "parent"
    change.mkdir()
    parent.mkdir()
    for seed in range(10):
        _result(parent, "theory_scans", seed, 50.0 + seed)
        _result(change, "theory_scans", seed, 20.0 + seed if seed else 60.0)
    _result(parent, "theory_scans", 99, 10.0)  # unpaired
    bench = bench_record.record(str(change), "t2", parent=str(parent))
    ts = bench["workloads"]["theory_scans"]
    assert ts["parent"]["benchmark_runs"] == 11
    paired = ts["paired"]["wall_ref_ratio"]
    assert (paired["pairs"], paired["change_lower"], paired["change_higher"]) == (10, 9, 1)
    assert paired["median_gap"] == ts["parent"]["metrics"]["wall_ref_ratio"]["median"] - \
        ts["metrics"]["wall_ref_ratio"]["median"]
    assert paired["parent_iqr"] == 5.0
    assert ts["paired"]["peak_rss_mb"]["change_lower"] == 0


def _traced(directory, workload, seed, metrics):
    doc = {"result": {"correct": True, "attempted": 6, "failed": 0,
                      "metrics": {k: {"value": v, "unit": "count"} for k, v in metrics.items()}},
           "machine": MACHINE, "seed": seed}
    (directory / f"result-{workload}-seed{seed}-trace1.json").write_text(json.dumps(doc))


def test_records_per_layer_medians_of_the_traced_files(tmp_path):
    change, parent = tmp_path / "change", tmp_path / "parent"
    change.mkdir()
    parent.mkdir()
    for seed, calls in zip((3, 1, 2), (7.0, 5.0, 9.0)):
        _traced(change, "drift_dense", seed, {"spectral.fft.calls": calls, "cli.out_bytes": 100.0})
        _traced(parent, "drift_dense", seed,
                {"spectral.fft.calls": 2 * calls, "cli.out_bytes": 100.0})
    _traced(change, "drift_dense", 4, {"spectral.fft.calls": 1.0})  # a metric another file lacks
    _result(change, "drift_dense", 1, 60.0)
    _result(parent, "drift_dense", 1, 62.0)
    _traced(change, "soliton", 8, {"spectral.fft.calls": 40.0})  # traced files only
    assert bench_record.main(["--label", "t3", "--results", str(change), "--parent", str(parent)],
                             root=str(tmp_path)) == 0
    bench = json.loads((tmp_path / "BENCH_t3.json").read_text())
    dd = bench["workloads"]["drift_dense"]
    assert dd["layers"] == {"seeds": [1, 2, 3, 4],
                            "medians": {"cli.out_bytes": 100.0, "spectral.fft.calls": 6.0}}
    assert dd["parent"]["layers"]["medians"] == {"cli.out_bytes": 100.0, "spectral.fft.calls": 14.0}
    # the traced files leave the end-to-end summary and its pairing alone
    assert dd["metrics"]["wall_ref_ratio"]["median"] == 60.0 and dd["benchmark_runs"] == 1
    assert dd["paired"]["wall_ref_ratio"]["change_lower"] == 1
    assert bench["workloads"]["soliton"] == {
        "layers": {"seeds": [8], "medians": {"spectral.fft.calls": 40.0}}}


def test_refuses_an_empty_directory_and_a_bad_label(tmp_path, capsys):
    assert bench_record.main(["--label", "x", "--results", str(tmp_path)], root=str(tmp_path)) == 2
    assert "no result-*-trace0.json files" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        bench_record.main(["--label", "../x", "--results", str(tmp_path)], root=str(tmp_path))
    assert not list(tmp_path.glob("BENCH_*"))
