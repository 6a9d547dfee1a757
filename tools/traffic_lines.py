"""The statement lines of mixcert that its shipped traffic never runs.

    PYTHONPATH=src python tools/traffic_lines.py

imports mixcert from PYTHONPATH and runs, in this process and under
`sys.settrace`, the traffic that ships with this checkout:
- every `mixcert` run of the byte gate (`output_digests.cli_runs`), through
  `harness.main`; at --jobs 2 only the parent process is traced;
- every workload of perfbench/workloads.py (`WORKLOADS`) at the reference
  seed, one pass each followed by its `check`, as it stands;
- every script in demos/.
Outputs go to a temporary directory and printed text is discarded. Then it
prints one line per function of the mixcert package that has a statement no
run reached: "<file>:<first line> <function>: <unreached statement lines>",
or "never called" in place of the lines. A statement is reached when a line
event fires on any of its own lines (a compound statement's own lines are
its header, up to its first inner statement). Docstrings and `try:`,
`global` and `nonlocal` lines carry no code and are not listed. It takes no
flags.
"""
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile

from output_digests import DEMO_DIR, ROOT, cli_runs

BENCH_DIR = os.path.join(ROOT, "perfbench")
NO_CODE = (ast.Try, ast.Global, ast.Nonlocal)
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def run_traffic(out_dir: str) -> None:
    """The shipped traffic, with every printed line discarded."""
    from mixcert import harness

    for argv in cli_runs(out_dir):
        if harness.main(argv) != 0:
            raise RuntimeError(f"mixcert {' '.join(argv)} failed")
    sys.path.insert(0, BENCH_DIR)
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        work = workload(workloads.REFERENCE_SEED, out_dir)
        if work.check(work.run()) != 0:
            raise RuntimeError(f"perfbench {name} failed its check")
    for name in sorted(os.listdir(DEMO_DIR)):
        if name.endswith(".py"):
            runpy.run_path(os.path.join(DEMO_DIR, name), run_name="__main__")


def trace(package_dir: str) -> dict:
    """{file name: the lines that fired a line event} over run_traffic."""
    reached = {}
    inside = {}  # code file name -> whether it is a module of the package

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = os.path.dirname(os.path.abspath(filename)) == package_dir
        if not inside[filename]:
            return None
        reached.setdefault(filename, set())
        return local

    with tempfile.TemporaryDirectory() as out_dir, \
            contextlib.redirect_stdout(io.StringIO()):
        sys.settrace(on_call)
        try:
            run_traffic(out_dir)
        finally:
            sys.settrace(None)
    return {os.path.basename(name): lines for name, lines in reached.items()}


def statements(body: list):
    """(statement, its own lines) for every statement of a function body,
    nested blocks included, nested functions and classes not."""
    for i, node in enumerate(body):
        if i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        inner = [child for field in ("body", "orelse", "finalbody", "handlers")
                 for child in getattr(node, field, ())]
        if not isinstance(node, NO_CODE + SCOPES):
            last = min(child.lineno for child in inner) - 1 if inner else node.end_lineno
            yield node, range(node.lineno, last + 1)
        if not isinstance(node, SCOPES):
            yield from statements(inner)


def functions(node, prefix=""):
    """(qualified name, node) for every function under an AST node, methods
    and nested functions included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, SCOPES):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from functions(child, name + ".")
        else:
            yield from functions(child, prefix)


def main() -> int:
    import mixcert

    package_dir = os.path.dirname(os.path.abspath(mixcert.__file__))
    reached = trace(package_dir)
    for name in sorted(os.listdir(package_dir)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package_dir, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        lines = reached.get(name, set())
        for qualname, node in functions(tree):
            stmts = list(statements(node.body))
            missed = [stmt.lineno for stmt, own in stmts if not lines.intersection(own)]
            if not missed:
                continue
            what = "never called" if len(missed) == len(stmts) else " ".join(map(str, missed))
            print(f"{name}:{node.lineno} {qualname}: {what}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
