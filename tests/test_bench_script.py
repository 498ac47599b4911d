"""The summary math of scripts/bench.py, on made-up runs (no benchmark is run)."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_script", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _runs(parent, change, metric="ops_per_s"):
    return [{"parent": {metric: p}, "change": {metric: c}} for p, c in zip(parent, change)]


def test_parse_seeds():
    assert bench.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench.parse_seeds("5") == [5]


def test_iqr_over_median():
    # inclusive quartiles of 1..5 are 2 and 4 around a median of 3
    assert bench.iqr_over_median([5, 1, 3, 2, 4]) == pytest.approx(2 / 3)
    assert bench.iqr_over_median([7.0]) == 0.0


def test_summarize_higher_is_better():
    s = bench.summarize(_runs([1, 2, 3, 4], [2, 2, 4, 3]), "ops_per_s", "higher")
    assert s["parent"]["median"] == 2.5 and s["change"]["median"] == 2.5
    assert (s["pairs"], s["change_won"]) == (4, 2)  # the tie counts for neither side
    assert s["ratio"] == 1.0


def test_summarize_lower_is_better():
    s = bench.summarize(_runs([10, 10, 10], [5, 20, 8], "latency_p50_ms"), "latency_p50_ms", "lower")
    assert s["change_won"] == 2
    assert s["ratio"] == pytest.approx(0.8)
    assert s["parent"]["iqr_over_median"] == 0.0


def test_summarize_paired_ratios():
    # per-pair change/parent ratios 0.5, 2, 0.8: inclusive quartiles 0.65 and
    # 1.4 around a median of 0.8
    s = bench.summarize(_runs([10, 10, 10], [5, 20, 8], "latency_p50_ms"), "latency_p50_ms", "lower")
    assert s["paired_ratio"]["median"] == pytest.approx(0.8)
    assert s["paired_ratio"]["iqr_over_median"] == pytest.approx(0.75 / 0.8)
    # the figures are added beside the per-side ones, which stay as they were
    assert s["parent"] == {"median": 10, "iqr_over_median": 0.0} and s["ratio"] == pytest.approx(0.8)
    # a pair with a zero parent value has no ratio and is left out
    s = bench.summarize(_runs([0, 2, 4], [1, 3, 2]), "ops_per_s", "higher")
    assert s["paired_ratio"]["median"] == pytest.approx(1.0)
    assert bench.summarize(_runs([0], [1]), "ops_per_s", "higher")["paired_ratio"] is None


def test_print_table_shows_paired_ratios(capsys):
    s = bench.summarize(_runs([10, 10, 10], [5, 20, 8], "latency_p50_ms"), "latency_p50_ms", "lower")
    bench.print_table({"workloads": {"suites": {"metrics": {"latency_p50_ms": s}}}})
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[-2:] == ["paired", "IQR/med"]
    assert [float(x) for x in row.split()[-2:]] == pytest.approx([0.8, 0.75 / 0.8], abs=1e-3)


def test_compare_rows():
    def result(median):
        return {"workloads": {"suites": {"metrics": {"ops_per_s": {"change": {"median": median}}}}}}

    assert bench.compare_rows(result(4.0), result(8.0)) == [("suites", "ops_per_s", 4.0, 8.0, 2.0)]
    assert bench.compare_rows({"workloads": {}}, result(8.0)) == []
