"""`scripts/line_coverage.py`'s line sets and ranges, on a small module of
its own. Nothing here runs the test suite."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "line_coverage.py")
spec = importlib.util.spec_from_file_location("line_coverage", SCRIPT)
line_coverage = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_coverage)

SOURCE = '''\
"""A module."""


def sign(x):
    """The sign of x."""
    if x < 0:
        return -1
    return 1
'''


def test_ranges_joins_consecutive_lines():
    assert line_coverage.ranges([]) == ""
    assert line_coverage.ranges({9, 3, 7, 8}) == "3, 7-9"


def test_the_untaken_branch_is_the_line_not_run(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("mod", path)
    mod = importlib.util.module_from_spec(spec)
    real = os.path.realpath(path)

    def run():
        spec.loader.exec_module(mod)
        assert mod.sign(5) == 1

    hits = line_coverage.trace_lines([real], run)
    assert line_coverage.code_lines(SOURCE, real) - hits[real] == {7}
