"""Which statements of the qchancap package does a real run never execute?

Runs one round of every benchmark operation in `perfbench/workloads.py` and
every CLI subcommand on bundled channel files (with their error paths) under
a `sys.settrace` line trace, then prints, per module, the statement ranges
that never ran, each with the function or class that holds it.  A form that
shows up here is reached only by tests, if at all.

    python tools/reach.py [--src PATH] [--seed N]

Standard library only (the program it traces needs numpy).  The
header line gives the traced run's wall time; exit status 1
means some op or command raised, and each such failure is listed.
"""

import argparse
import ast
import contextlib
import dis
import io
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cli_runs(tmp: Path) -> list:
    """argv lists covering every subcommand, its CSV output and its errors."""
    out = str(tmp / "report.csv")
    return [
        ["chi", "--channel", "trine.qch"],
        ["chi", "--channel", "identity.qch"],  # no signal set
        ["accinfo", "--channel", "trine.qch"],
        ["accinfo", "--channel", "trine.qch", "--max-rounds", "0"],
        ["c11", "--channel", "trine.qch", "--restarts", "2"],
        ["c11", "--channel", "two_state_pi3.qch", "--restarts", "2", "--format", "csv", "--out", out],
        ["c1inf", "--channel", "amplitude_damping_0.3.qch"],
        ["c1inf", "--channel", "trine.qch", "--max-rounds", "0"],
        ["cea", "--channel", "identity.qch"],
        ["coherent", "--channel", "dephasing_0.25.qch"],
        ["arimoto-blahut", "--channel", "bsc_0.11_classical.qch"],
        ["arimoto-blahut", "--channel", "identity.qch"],  # quantum file
        ["limited-ea", "--channel", "identity.qch", "--B", "0.5"],
        ["oracle", "--channel", "trine.qch", "--name", "accinfo", "--step", "0.01"],
        ["oracle", "--channel", "identity.qch", "--name", "qmi", "--step", "0.1"],
        ["oracle", "--channel", "amplitude_damping_0.3.qch", "--name", "coherent", "--step", "0.1"],
        ["oracle", "--channel", "trine.qch", "--name", "simplex-chi", "--step", "0.05"],
        ["oracle", "--channel", "identity.qch", "--name", "qmi", "--step", "3"],  # no ball point
        ["sweep", "--curve", "fig1", "--steps", "3"],
        ["sweep", "--curve", "fig1", "--steps", "1"],
        ["cea", "--channel", "bsc_0.11_classical.qch"],  # classical file
        ["cea", "--channel", "nowhere.qch"],
        ["cea", "--channel", "identity.qch", "--tol", "nan"],
        ["c11", "--channel", "trine.qch", "--max-rounds", "-1"],
        ["chi", "--channel", "trine.qch", "--bogus", "1"],
        ["--version"],
    ]


def executable_lines(path: Path) -> set:
    """Lines that start a statement in any code object compiled from `path`."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def owners(path: Path) -> list:
    """(first line, last line, qualified name) of every def and class."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                found.append((child.lineno, child.end_lineno, name))
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def owner_of(line: int, spans: list) -> str:
    inner = [s for s in spans if s[0] <= line <= s[1]]
    return max(inner, key=lambda s: s[0])[2] if inner else "<module>"


def ranges(missed: list, executable: list) -> list:
    """Group missed lines into runs with no executed statement between."""
    out = []
    pos = {line: k for k, line in enumerate(executable)}
    for line in missed:
        if out and pos[line] == pos[out[-1][1]] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding qchancap/")
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed")
    args = parser.parse_args(argv)
    package = (Path(args.src) / "qchancap").resolve()
    sys.path[:0] = [str(package.parent), str(ROOT / "perfbench")]

    hit = {}  # file name -> line numbers that ran
    prefix = str(package) + os.sep

    def local(frame, event, _arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hit.setdefault(name, set())
        return local

    started = time.monotonic()
    failures = []
    sys.settrace(trace)
    try:
        import qchancap.cli
        from workloads import WORKLOADS

        for wl in WORKLOADS.values():
            state = wl.setup(args.seed)
            for op in wl.ops(state, args.seed, 0):
                try:
                    op.check(op.run())
                except Exception as err:  # report and go on: reach is the output
                    failures.append(f"{wl.name}/{op.name}: {type(err).__name__}: {err}")
        with tempfile.TemporaryDirectory() as tmp:
            runs = cli_runs(Path(tmp))
            for argv_ in runs:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        qchancap.cli.main(argv_)
                    except Exception as err:
                        failures.append(f"cli {' '.join(argv_)}: {type(err).__name__}: {err}")
    finally:
        sys.settrace(None)

    print(f"# statements never executed under {package.relative_to(package.parents[1])}/ "
          f"(one round of every benchmark op at seed {args.seed}, {len(runs)} CLI runs, "
          f"{time.monotonic() - started:.0f} s traced)")
    for path in sorted(package.glob("*.py")):
        executable = sorted(executable_lines(path))
        missed = [line for line in executable if line not in hit.get(str(path), set())]
        spans = owners(path)
        print(f"{path.name}: {len(missed)} of {len(executable)} statements never ran")
        for first, last in ranges(missed, executable):
            where = f"{first}" if first == last else f"{first}-{last}"
            print(f"  {where:>9}  {owner_of(first, spans)}")
    for line in failures:
        print(f"FAILED {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
