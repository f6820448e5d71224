"""Which lines of banachgap does no caller run?

    python3 tools/traffic_lines.py

Runs every request of the benchmark's small, large and sweep workloads
once (perfbench/workloads.py, imported as it is), then
``banachgap verify --suite all --seed 1``, with a
line tracer on the calling thread and on every thread started after it,
so the worker pool's chunks count too.  It then prints, per module of
src/banachgap, the executable lines that never ran, grouped by function.

Executable lines are the lines of function bodies that carry bytecode;
module and class bodies run at import and are left out, and so is every
line of a ``raise`` statement, since an error path runs on bad input only.
Run from anywhere; the package is imported from ./src.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402

from banachgap import cli  # noqa: E402

PACKAGE = Path(cli.__file__).parent
WORKLOAD_SEED = 1


def _code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def _owners(body: list[ast.stmt], prefix: str = "") -> dict[int, str]:
    """Line -> name of the outermost function (qualified by its classes)
    whose source spans it."""
    owners: dict[int, str] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owners.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), prefix + node.name))
        elif isinstance(node, ast.ClassDef):
            owners.update(_owners(node.body, f"{prefix}{node.name}."))
    return owners


def executable_lines(path: Path) -> dict[int, str]:
    """Line -> name of the outermost function that holds it, for each line
    of a function body that carries bytecode, outside a raise statement.
    A function's first line (its def or decorator) is left out: only the
    function's entry is attributed to it."""
    source = path.read_text()
    tree = ast.parse(source)
    raising = {
        line
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        for line in range(node.lineno, node.end_lineno + 1)
    }
    owners = _owners(tree.body)
    lines: dict[int, str] = {}
    for code in _code_objects(compile(source, str(path), "exec")):
        if not code.co_flags & inspect.CO_OPTIMIZED:
            continue  # a module or class body
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno and line not in raising:
                lines.setdefault(line, owners.get(line, code.co_name))
    return lines


def trace(tiny: bool = False, suite: str = "all") -> set[tuple[str, int]]:
    """(file, line) of every line of the package that the workloads'
    requests and ``verify --suite SUITE`` ran; ``tiny`` builds the
    workloads at their test size, for a quick run."""
    seen: set[tuple[str, int]] = set()
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    before, before_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(calls)
    sys.settrace(calls)
    try:
        workloads.warm_up()
        for name in ("small", "large", "sweep"):
            for req in workloads.build(name, WORKLOAD_SEED, tiny=tiny).requests:
                req.run()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["verify", "--suite", suite, "--seed", "1"])
    finally:
        sys.settrace(before)
        threading.settrace(before_threads)
    return seen


def unrun(seen: set[tuple[str, int]]) -> dict[str, tuple[int, dict[str, list[int]]]]:
    """Module file name -> (executable line count, function -> lines that
    never ran)."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missed: dict[str, list[int]] = {}
        for line, func in sorted(lines.items()):
            if (str(path), line) not in seen:
                missed.setdefault(func, []).append(line)
        report[path.name] = (len(lines), missed)
    return report


def _spans(lines: list[int]) -> str:
    """1, 2, 3, 7 -> '1-3, 7'."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    report = unrun(trace())
    total = sum(count for count, _ in report.values())
    missed = sum(len(lines) for _, funcs in report.values() for lines in funcs.values())
    print(f"{total - missed} of {total} executable lines ran; never ran:")
    for module, (count, funcs) in report.items():
        if funcs:
            print(f"{module}: {sum(map(len, funcs.values()))} of {count}")
            for func, lines in funcs.items():
                print(f"  {func}: {_spans(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
