"""Smoke tests: the examples and the CLI actually run end to end.

Each example is executed in-process (import + main()) with its output
captured, so a broken example fails the suite rather than rotting.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"
SRC_DIR = pathlib.Path(__file__).parent.parent / "src" / "repro"


def _run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = _run_example("quickstart", capsys)
        assert "attested enclave measurement" in out
        assert "Hello, world!" in out

    def test_dropbox_shard(self, capsys):
        out = _run_example("dropbox_shard", capsys)
        assert "recovered all" in out
        assert "file intact" in out

    @pytest.mark.slow
    def test_cover_traffic(self, capsys):
        out = _run_example("cover_traffic", capsys)
        assert "never goes quiet" in out

    @pytest.mark.slow
    def test_browser_defense(self, capsys):
        out = _run_example("browser_defense", capsys)
        assert "unmodified Tor" in out and "accuracy" in out.lower()

    @pytest.mark.slow
    def test_hidden_service_loadbalancer(self, capsys):
        out = _run_example("hidden_service_loadbalancer", capsys)
        assert "mean download" in out


class TestCli:
    def test_list(self, capsys):
        from repro.cli import SCENARIOS, main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out and "fingerprint" in out
        # Every registered scenario appears with its one-line summary.
        for name, fn in SCENARIOS.items():
            summary = fn.__doc__.strip().splitlines()[0]
            line = next(ln for ln in out.splitlines()
                        if ln.startswith(name + " "))
            assert summary in line

    def test_list_names_exactly_the_kept_scenarios(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        names = [line.split()[0]
                 for line in capsys.readouterr().out.splitlines()]
        assert names == ["chaos-soak", "fingerprint", "perf-report",
                         "quickstart", "trace-report", "workload-report"]

    def test_workers_is_a_usage_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["workload-report", "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_quickstart_scenario(self, capsys):
        from repro.cli import main

        assert main(["quickstart", "--seed", "5"]) == 0
        assert "function said" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["no-such-scenario"])


class TestLayering:
    def test_no_module_loads_code_from_benchmarks(self):
        """The package runs installed: nothing in it may load a file by
        path or name ``benchmarks`` as a directory to reach into."""
        offenders = []
        for path in sorted(SRC_DIR.rglob("*.py")):
            where = path.relative_to(SRC_DIR.parent)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", getattr(func, "id", None))
                    if name == "spec_from_file_location":
                        offenders.append(f"{where}:{node.lineno} {name}")
                    operands = node.args
                elif isinstance(node, ast.BinOp) \
                        and isinstance(node.op, ast.Div):
                    operands = [node.left, node.right]
                else:
                    continue
                for operand in operands:
                    if isinstance(operand, ast.Constant) \
                            and isinstance(operand.value, str) \
                            and "benchmarks" in \
                            pathlib.PurePosixPath(operand.value).parts:
                        offenders.append(f"{where}:{operand.lineno} "
                                         f"{operand.value!r}")
        assert offenders == []
