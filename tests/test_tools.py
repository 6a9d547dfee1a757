"""The two tools that judge a change: the byte gate, tools/output_digests.py,
and the shipped-traffic tracer, tools/traffic_lines.py. Each runs here with
recorders in place of the runs it starts, so no test digests or traces."""

import ast
import os
import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

from mixcert import harness

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(name for name in os.listdir(ROOT / "demos") if name.endswith(".py"))

SOURCE = '''\
def outer(x):
    """A docstring."""
    try:
        y = (x +
             1)
    finally:
        pass
    if (y and
            x):
        return y
    else:
        y = 2

    def inner():
        return 3

    class Box:
        def method(self):
            return 4
    return inner
'''


@pytest.fixture
def tools(monkeypatch):
    """(output_digests, traffic_lines, workloads), imported as the tools
    import them: from tools/ and perfbench/ on sys.path."""
    for name in ("tools", "perfbench"):
        monkeypatch.syspath_prepend(str(ROOT / name))
    import output_digests
    import traffic_lines
    import workloads
    return output_digests, traffic_lines, workloads


class TestByteGate:
    @pytest.mark.parametrize("argv", [[], ["src"], ["src", "out", "more"],
                                      ["--rings", "src", "out"]])
    def test_wrong_argument_count_is_usage(self, tools, argv, monkeypatch, capsys):
        output_digests = tools[0]
        monkeypatch.setattr(output_digests.subprocess, "run", None)
        assert output_digests.main(argv) == 2
        assert "SRC OUT" in capsys.readouterr().err

    def test_non_empty_out_is_refused(self, tools, tmp_path, monkeypatch, capsys):
        output_digests = tools[0]
        monkeypatch.setattr(output_digests.subprocess, "run", None)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "stale.json").write_text("{}")
        assert output_digests.main([str(tmp_path / "src"), str(tmp_path / "out")]) == 2
        assert "is not empty" in capsys.readouterr().err

    def test_section_flags_run_each_section_once_in_order(self, tools, monkeypatch):
        output_digests = tools[0]
        flags = list(output_digests.SECTIONS)
        ran = []
        monkeypatch.setattr(output_digests, "SECTIONS",
                            {flag: lambda flag=flag: ran.append(flag) for flag in flags})
        for argv in [[flag] for flag in flags] + [flags[::-1], flags[1::2]]:
            ran.clear()
            assert output_digests.main(argv) == 0
            assert ran == argv

    def test_full_run_starts_each_cli_run_each_demo_and_one_section_process(
            self, tools, tmp_path, monkeypatch, capsys):
        output_digests = tools[0]
        started = []

        def run(args, **kwargs):
            started.append(args[1:])
            return SimpleNamespace(stdout=b"")

        monkeypatch.setattr(output_digests.subprocess, "run", run)
        out = str(tmp_path / "out")
        assert output_digests.main([str(tmp_path / "src"), out]) == 0
        runs = [["-m", "mixcert", *argv] for argv in output_digests.cli_runs(out)]
        demos = [[os.path.join(output_digests.DEMO_DIR, name)] for name in DEMOS]
        sections = [[os.path.abspath(output_digests.__file__), *output_digests.SECTIONS]]
        assert started == runs + demos + sections
        assert len(runs) == len(output_digests.CONFIGS) * len(output_digests.RUNS)
        assert capsys.readouterr().out.count("  demos/") == len(DEMOS)


class TestTrafficLines:
    def test_runs_every_gate_run_every_workload_and_every_demo(self, tools, tmp_path,
                                                               monkeypatch):
        output_digests, traffic_lines, workloads = tools
        names = list(workloads.WORKLOADS)
        calls = []

        def recorder(name):
            class Workload:
                def __init__(self, seed, work_dir):
                    assert seed == workloads.REFERENCE_SEED
                    calls.append(("set up", name))

                def run(self):
                    calls.append(("run", name))
                    return name

                def check(self, outputs):
                    calls.append(("check", outputs))
                    return 0
            return Workload

        monkeypatch.setattr(harness, "main", lambda argv: calls.append(("cli", argv)) or 0)
        monkeypatch.setattr(workloads, "WORKLOADS", {name: recorder(name) for name in names})
        monkeypatch.setattr(runpy, "run_path",
                            lambda path, run_name: calls.append(("demo", path)))
        traffic_lines.run_traffic(str(tmp_path))
        expected = [("cli", argv) for argv in output_digests.cli_runs(str(tmp_path))]
        expected += [(step, name) for name in names for step in ("set up", "run", "check")]
        expected += [("demo", os.path.join(output_digests.DEMO_DIR, name)) for name in DEMOS]
        assert calls == expected

    def test_statements_own_only_their_code_lines(self, tools):
        traffic_lines = tools[1]
        outer = ast.parse(SOURCE).body[0]
        owned = {stmt.lineno: list(own) for stmt, own in traffic_lines.statements(outer.body)}
        # no docstring (2), `try:` (3), nested def (14) or class (17); the
        # `if` owns its two header lines, not its branches
        assert owned == {4: [4, 5], 7: [7], 8: [8, 9], 10: [10], 12: [12], 20: [20]}

    def test_functions_get_qualified_names(self, tools):
        traffic_lines = tools[1]
        assert [name for name, _ in traffic_lines.functions(ast.parse(SOURCE))] \
            == ["outer", "outer.inner", "outer.Box.method"]
