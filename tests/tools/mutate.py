"""Mutation testing of xdiscord modules, one mutant at a time.

    python tests/tools/mutate.py [--root DIR] [--module discord evolution] [--timeout S]
                                 [--workdir DIR] [--list]

Each mutant changes one node of a module's syntax tree:
  - a comparison at its boundary: < and <=, > and >=, == and !=
  - and and or; min and max
  - a float constant below 1e-3 in size (a tolerance, floor or step), times 10 or over 10
  - a raise replaced by pass

The tree under --root (by default the repository that holds this script) is copied once
to --workdir (by default a new temporary directory). For each mutant the module's file in
the copy is replaced by the mutated tree, written back by ast.unparse, and the module's
test files (MODULE_TESTS) run in one pytest process with -x and no cache provider, stopped
after --timeout seconds. A mutant is killed when pytest fails or times out, and survives
when it passes. The unmutated module, written back the same way, must pass first. The
report gives the killed and surviving mutants per module and each survivor's line.

Only the standard library is imported here; pytest runs in a subprocess. The file name
does not match test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MODULE_TESTS = {
    "discord": ("test_discord.py", "test_acceptance.py", "test_golden.py", "test_records.py",
                "test_library_contract.py"),
    "evolution": ("test_evolution.py", "test_acceptance.py", "test_golden.py",
                  "test_records.py", "test_library_contract.py"),
}
_COPIED = ("src", "tests", "pyproject.toml", "README.md")
_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And}
_SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
            ast.NotEq: "!=", ast.And: "and", ast.Or: "or"}
_SMALL = 1e-3


def mutations(tree: ast.Module) -> list:
    """(line, label, apply) of each mutation site of tree, in ast.walk order; apply()
    makes the mutant in place. A tree parsed from the same source lists the same sites."""
    sites = []

    def swap(node, field, index=None):
        old = getattr(node, field) if index is None else getattr(node, field)[index]
        new = _SWAPS[type(old)]()

        def apply():
            if index is None:
                setattr(node, field, new)
            else:
                getattr(node, field)[index] = new

        sites.append((node.lineno, f"{_SYMBOLS[type(old)]} -> {_SYMBOLS[type(new)]}", apply))

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _SWAPS:
                    swap(node, "ops", i)
        elif isinstance(node, ast.BoolOp):
            swap(node, "op")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("min", "max")):
            new = "max" if node.func.id == "min" else "min"
            sites.append((node.lineno, f"{node.func.id} -> {new}",
                          lambda node=node, new=new: setattr(node.func, "id", new)))
        elif (isinstance(node, ast.Constant) and type(node.value) is float
              and 0.0 < abs(node.value) < _SMALL):
            for factor, shown in ((10.0, "* 10"), (0.1, "/ 10")):
                sites.append((node.lineno, f"{node.value!r} {shown}",
                              lambda node=node, factor=factor:
                              setattr(node, "value", node.value * factor)))
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if not isinstance(block, list):
                continue
            for i, stmt in enumerate(block):
                if isinstance(stmt, ast.Raise):
                    sites.append((stmt.lineno, "raise -> pass",
                                  lambda block=block, i=i: block.__setitem__(
                                      i, ast.copy_location(ast.Pass(), block[i]))))
    return sites


def run_tests(workdir: Path, module: str, timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for the module's test files in workdir."""
    files = [str(Path("tests") / name) for name in MODULE_TESTS[module]]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(workdir / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files],
        cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    try:
        return "passed" if proc.wait(timeout=timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def mutate_module(root: Path, workdir: Path, module: str, timeout: float) -> list:
    """(index, line, label, outcome) of each mutant of src/xdiscord/<module>.py."""
    source = (root / "src" / "xdiscord" / f"{module}.py").read_text()
    target = workdir / "src" / "xdiscord" / f"{module}.py"
    lines = source.splitlines()
    target.write_text(ast.unparse(ast.parse(source)) + "\n")
    try:
        if run_tests(workdir, module, timeout) != "passed":
            raise SystemExit(f"{module}: the unmutated module fails its tests")
        results = []
        for k in range(len(mutations(ast.parse(source)))):
            tree = ast.parse(source)
            line, label, apply = mutations(tree)[k]
            apply()
            target.write_text(ast.unparse(tree) + "\n")
            started = time.monotonic()
            outcome = run_tests(workdir, module, timeout)
            results.append((k, line, label, outcome))
            print(f"{module} #{k:<4} line {line:<4} {label:<22} {outcome:<8} "
                  f"{time.monotonic() - started:5.1f} s  {lines[line - 1].strip()[:60]}",
                  flush=True)
        return results
    finally:
        target.write_text(source)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[2])
    parser.add_argument("--module", nargs="+", choices=sorted(MODULE_TESTS),
                        default=sorted(MODULE_TESTS))
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--list", action="store_true", help="list the mutants, run nothing")
    args = parser.parse_args(argv)
    if args.list:
        for module in args.module:
            source = (args.root / "src" / "xdiscord" / f"{module}.py").read_text()
            for k, (line, label, _) in enumerate(mutations(ast.parse(source))):
                print(f"{module} #{k:<4} line {line:<4} {label}")
        return 0
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="mutate-"))
    workdir.mkdir(parents=True, exist_ok=True)
    for name in _COPIED:
        source, target = args.root / name, workdir / name
        if source.is_dir():
            shutil.copytree(source, target, dirs_exist_ok=True,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, target)
    report = []
    for module in args.module:
        results = mutate_module(args.root, workdir, module, args.timeout)
        survivors = [r for r in results if r[3] == "passed"]
        report.append(f"{module}: {len(results)} mutants, {len(results) - len(survivors)} "
                      f"killed, {len(survivors)} survived")
        report.extend(f"  survivor #{k} line {line}: {label}" for k, line, label, _ in survivors)
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
