"""tools/traffic_lines.py on the tiny workloads and the fast criteria."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import traffic_lines  # noqa: E402


def test_traffic_lines_sees_the_suite_driver_run():
    report = traffic_lines.unrun(traffic_lines.trace(tiny=True, suite="1,10"))
    count, missed = report["acceptance.py"]
    assert "run_suite" not in missed
    assert "_check_2" in missed and "_check_1" not in missed  # only 1 and 10 ran
    assert 0 < sum(map(len, missed.values())) < count


def test_executable_lines_leave_out_raise_statements_and_def_lines_and_name_the_outer_function(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError(\n"
        "            'x'\n"
        "        )\n"
        "    def g():\n"
        "        return 2\n"
        "    return g\n"
        "\n"
        "class C:\n"
        "    y = 2\n"
        "\n"
        "    def m(self):\n"
        "        return 3\n"
    )
    assert traffic_lines.executable_lines(path) == {2: "f", 6: "f", 7: "f", 8: "f", 14: "C.m"}


def test_spans_collapse_consecutive_lines():
    assert traffic_lines._spans([1, 2, 3, 7, 9, 10]) == "1-3, 7, 9-10"
