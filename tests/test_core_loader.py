"""The function loader: restricted namespace, import allowlist, entry
resolution."""

import pytest

from repro.core.loader import (
    SAFE_MODULES,
    LoaderError,
    build_function_namespace,
)


class _FakeApi:
    """Just enough api surface for namespace tests."""

    def __init__(self):
        self.sent = []

    def send(self, data):
        self.sent.append(data)


def _exec(code: str):
    api = _FakeApi()
    namespace = build_function_namespace(api)
    exec(compile(code, "<test>", "exec"), namespace)
    return api, namespace


class TestNamespace:
    def test_api_is_available(self):
        api, namespace = _exec("def f():\n    api.send(b'x')\n")
        namespace["f"]()
        assert api.sent == [b"x"]

    def test_safe_builtins_work(self):
        _api, namespace = _exec(
            "def f():\n"
            "    return sorted([len('ab'), max(1, 2), sum([1, 2])])\n")
        assert namespace["f"]() == [2, 2, 3]

    def test_open_absent(self):
        _api, namespace = _exec("def f():\n    return open\n")
        with pytest.raises(NameError):
            namespace["f"]()

    def test_eval_exec_absent(self):
        for name in ("eval", "exec", "compile", "globals", "vars",
                     "getattr", "setattr"):
            _api, namespace = _exec(f"def f():\n    return {name}\n")
            with pytest.raises(NameError):
                namespace["f"]()

    def test_safe_import_allows_whitelist(self):
        for module in ("zlib", "json", "hashlib", "math"):
            assert module in SAFE_MODULES
            _api, namespace = _exec(f"import {module}\nvalue = {module}\n")
            assert namespace["value"] is not None

    def test_unsafe_import_blocked(self):
        for module in ("os", "sys", "subprocess", "socket", "builtins",
                       "importlib", "ctypes"):
            with pytest.raises(ImportError):
                _exec(f"import {module}\n")

    def test_from_import_blocked(self):
        with pytest.raises(ImportError):
            _exec("from os import path\n")

    def test_submodule_of_unsafe_blocked(self):
        with pytest.raises(ImportError):
            _exec("import os.path\n")


class TestRuntimeLoading:
    def _runtime(self, code, entry="main", name="t"):
        from repro.core.loader import FunctionRuntime
        from repro.core.manifest import FunctionManifest

        class _FakeInstance:
            api = _FakeApi()

        manifest = FunctionManifest.create(name, entry, {"send"})
        return FunctionRuntime(_FakeInstance(), code, manifest)

    def test_load_finds_entry(self):
        runtime = self._runtime("def main():\n    return 1\n    yield\n")
        runtime.load()
        with pytest.raises(StopIteration) as done:
            next(runtime.entry())
        assert done.value.value == 1

    def test_plain_entry_rejected(self):
        # Its api calls would be un-iterated generators: refuse it at load.
        runtime = self._runtime("def main():\n    api.send(b'x')\n")
        with pytest.raises(LoaderError, match="generator function"):
            runtime.load()
        assert runtime.entry is None

    def test_missing_entry_rejected(self):
        runtime = self._runtime("x = 5\n")
        with pytest.raises(LoaderError):
            runtime.load()

    def test_non_callable_entry_rejected(self):
        runtime = self._runtime("main = 42\n")
        with pytest.raises(LoaderError):
            runtime.load()

    def test_syntax_error_reported(self):
        # On every load: a failed compile must not be remembered as a hit.
        for _ in range(2):
            runtime = self._runtime("def main(:\n")
            with pytest.raises(LoaderError):
                runtime.load()

    COUNTER_SOURCE = (
        "count = 0\n"
        "def main():\n"
        "    global count\n"
        "    count += 1\n"
        "    return count\n"
        "    yield\n")

    def test_same_source_shares_code_not_namespace(self):
        """The code object is compiled once per process; a global mutated
        in one instance is unseen by the other."""
        first = self._runtime(self.COUNTER_SOURCE)
        second = self._runtime(self.COUNTER_SOURCE)
        first.load()
        second.load()
        assert first.entry.__code__ is second.entry.__code__
        assert first.namespace is not second.namespace
        for _ in range(3):
            with pytest.raises(StopIteration):
                next(first.entry())
        assert first.namespace["count"] == 3
        assert second.namespace["count"] == 0
        assert first.namespace["api"] is not second.namespace["api"]

    def test_same_source_other_name_keeps_its_filename(self):
        """The suite's layer mapping and tracebacks read the manifest name
        out of ``<function:NAME>``."""
        first = self._runtime(self.COUNTER_SOURCE, name="alpha")
        second = self._runtime(self.COUNTER_SOURCE, name="beta")
        first.load()
        second.load()
        assert first.entry.__code__.co_filename == "<function:alpha>"
        assert second.entry.__code__.co_filename == "<function:beta>"

    def test_module_body_crash_reported(self):
        runtime = self._runtime("raise ValueError('boom at import')\n")
        with pytest.raises(LoaderError):
            runtime.load()

    def test_paper_appendix_a_shape_loads(self):
        """The paper's Appendix A listing (adapted to our api) compiles
        and defines its entry."""
        from repro.functions.browser import BROWSER_SOURCE

        runtime = self._runtime(BROWSER_SOURCE, entry="browser")
        runtime.load()
        assert callable(runtime.entry)
