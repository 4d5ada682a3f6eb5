"""`scripts/bench_compare.py`'s summary code on canned `perfbench/run.py`
outputs, checked by hand. Nothing here forks a benchmark run."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_compare.py")
spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

DECLARED = [
    {"name": "throughput", "unit": "items/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def run_output(throughput, rss, correct=True) -> str:
    """The stdout of one `run.py --trace 0` run, cut to two metrics."""
    result = {"correct": correct, "attempted": 23, "failed": 0 if correct else 1,
              "metrics": {"throughput": {"value": throughput, "unit": "items/s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return "\n".join([
        "env " + json.dumps({"nproc": 2}),
        "noise " + json.dumps({"repeats_with_steal": 0}),
        "digests " + json.dumps({"workload_seed": 1, "program_seeds": {"22": {}}}),
        "samples " + json.dumps({"cycles": 1, "repeats": 22}),
        json.dumps(result),
    ]) + "\n"


def test_parse_run_output_reads_every_tagged_line_and_the_result():
    parsed = bench_compare.parse_run_output(run_output(100.0, 40.0))
    assert parsed["env"] == {"nproc": 2} and parsed["samples"]["cycles"] == 1
    assert parsed["digests"]["workload_seed"] == 1
    assert parsed["result"]["metrics"]["throughput"]["value"] == 100.0
    assert "result" not in bench_compare.parse_run_output("env {}\nerror: no repeat\n")


def test_summary_of_two_canned_outputs():
    """One pair: the change's medians are its one value, and it wins each
    metric it beats in the metric's `better` direction."""
    base = bench_compare.parse_run_output(run_output(100.0, 40.0))
    change = bench_compare.parse_run_output(run_output(110.0, 41.0))
    table = bench_compare.summarize([(base, change)], DECLARED)
    assert table["throughput"] == {
        "base": {"median": 100.0, "q1": 100.0, "q3": 100.0},
        "change": {"median": 110.0, "q1": 110.0, "q3": 110.0},
        "ratio": 1.1, "wins": 1, "pairs": 1, "better": "higher", "bound": 0.25}
    assert table["peak_rss_mb"]["wins"] == 0  # higher is worse here
    assert table["peak_rss_mb"]["ratio"] == pytest.approx(41.0 / 40.0)
    assert table["peak_rss_mb"]["bound"] == 0.05


def test_summary_quartiles_wins_and_ratio_over_five_pairs():
    base_tp = [100.0, 90.0, 110.0, 95.0, 105.0]  # sorted: 90 95 100 105 110
    change_tp = [104.0, 99.0, 108.0, 100.0, 120.0]  # sorted: 99 100 104 108 120
    pairs = [(bench_compare.parse_run_output(run_output(b, 40.0)),
              bench_compare.parse_run_output(run_output(c, 40.0)))
             for b, c in zip(base_tp, change_tp)]
    table = bench_compare.summarize(pairs, DECLARED)
    row = table["throughput"]
    assert row["base"] == {"median": 100.0, "q1": 95.0, "q3": 105.0}
    assert row["change"] == {"median": 104.0, "q1": 100.0, "q3": 108.0}
    assert row["ratio"] == 1.04
    assert row["wins"] == 4 and row["pairs"] == 5  # 108 < 110 loses the third pair
    assert table["peak_rss_mb"]["wins"] == 0  # ties are not wins


def test_a_pair_with_a_side_that_gave_no_result_is_left_out():
    good = bench_compare.parse_run_output(run_output(100.0, 40.0))
    broken = bench_compare.parse_run_output("env {}\n")
    assert bench_compare.summarize([(good, broken)], DECLARED) == {}
    record = bench_compare.run_record(broken)
    assert record["correct"] is False and record["metrics"] == {}
    record = bench_compare.run_record(bench_compare.parse_run_output(
        run_output(90.0, 40.0, correct=False)))
    assert (record["correct"], record["failed"]) == (False, 1)
    assert "digests" not in record


def test_src_lines_per_module_and_in_total_on_two_trees(tmp_path):
    """Only the `.py` files directly under `src/dbesim` count, line by line,
    a last line without a newline included."""
    trees = {}
    for side, files in {"base": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"},
                        "change": {"a.py": "x = 1\n", "c.py": "\n\n# c\nw = 4"}}.items():
        src = tmp_path / side / "src" / "dbesim"
        (src / "assets").mkdir(parents=True)
        (src / "assets" / "d.py").write_text("ignored\n")
        (src / "notes.txt").write_text("ignored\n")
        for name, text in files.items():
            (src / name).write_text(text)
        trees[side] = bench_compare.src_lines(str(tmp_path / side))
    assert trees["base"] == {"modules": {"a.py": 2, "b.py": 1}, "total": 3}
    assert trees["change"] == {"modules": {"a.py": 1, "c.py": 4}, "total": 5}
