"""Static checks on every uploaded function artifact.

These protect the property that makes the functions credible: each SOURCE
string must load in the restricted namespace, define its manifest's entry
point, and request no more API calls than its manifest declares (the
manifest is what the operator's policy judges, so an undeclared call would
be a lie that gets the function killed at runtime anyway).  A function
catches failures by their ``api`` names, never broadly.
"""

import ast
import re

import pytest

from repro.chain.deploy import ChainStageFunction
from repro.chain.template import ComponentSpec
from repro.core.apispec import ALL_API_CALLS
from repro.core.loader import build_function_namespace
from repro.core.policy import MiddleboxNodePolicy
from repro.functions.avoidance import AvoidanceFunction
from repro.functions.browser import BrowserFunction
from repro.functions.cover import CoverFunction
from repro.functions.ddos_defense import DdosDefenseFunction
from repro.functions.dropbox import DropboxFunction
from repro.functions.kvstore import KvStoreFunction
from repro.functions.loadbalancer import LoadBalancerFunction
from repro.functions.measure import MeasureFunction
from repro.functions.multipath import MultipathFunction
from repro.functions.policyquery import PolicyQueryFunction
from repro.functions.shard import ShardFunction

ARTIFACTS = [
    ("browser", BrowserFunction.SOURCE, BrowserFunction.manifest()),
    ("cover", CoverFunction.SOURCE, CoverFunction.manifest()),
    ("cover-drop", CoverFunction.DROP_SOURCE, CoverFunction.drop_manifest()),
    ("dropbox", DropboxFunction.SOURCE, DropboxFunction.manifest()),
    ("shard", ShardFunction.SOURCE, ShardFunction.manifest()),
    ("loadbalancer", LoadBalancerFunction.SOURCE,
     LoadBalancerFunction.manifest()),
    ("lb-replica", LoadBalancerFunction.REPLICA_SOURCE,
     LoadBalancerFunction.replica_manifest()),
    ("policy-query", PolicyQueryFunction.SOURCE,
     PolicyQueryFunction.manifest()),
    ("multipath", MultipathFunction.SOURCE, MultipathFunction.manifest()),
    ("avoidance", AvoidanceFunction.SOURCE, AvoidanceFunction.manifest()),
    ("ddos-defense", DdosDefenseFunction.SOURCE,
     DdosDefenseFunction.manifest()),
    ("kvstore", KvStoreFunction.SOURCE, KvStoreFunction.manifest()),
    ("measure", MeasureFunction.SOURCE, MeasureFunction.manifest()),
    ("chain-stage", ChainStageFunction.SOURCE,
     ChainStageFunction.manifest(ComponentSpec(name="stage"))),
]


def broad_catches(source: str) -> list[str]:
    """Each handler that catches broadly or sorts what it caught by repr()."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = [] if node.type is None else (
            node.type.elts if isinstance(node.type, ast.Tuple)
            else [node.type])
        names = {getattr(kind, "id", None) for kind in caught}
        if not caught or names & {"Exception", "BaseException"}:
            found.append(f"line {node.lineno}: " + (
                f"except {ast.unparse(node.type)}" if caught
                else "bare except"))
        for inner in ast.walk(node):
            if (node.name and isinstance(inner, ast.Call)
                    and getattr(inner.func, "id", None) == "repr"
                    and any(getattr(arg, "id", None) == node.name
                            for arg in inner.args)):
                found.append(f"line {inner.lineno}: repr({node.name})")
    return found


class _RecordingApi:
    """A stub api that records attribute access paths."""

    def __init__(self):
        self.storage = self
        self.stem = self


@pytest.mark.parametrize("name,source,manifest",
                         ARTIFACTS, ids=[a[0] for a in ARTIFACTS])
class TestFunctionArtifacts:
    def test_loads_in_restricted_namespace(self, name, source, manifest):
        namespace = build_function_namespace(_RecordingApi())
        exec(compile(source, f"<{name}>", "exec"), namespace)
        assert callable(namespace.get(manifest.entry)), \
            f"{name}: entry {manifest.entry!r} missing"

    def test_manifest_covers_api_calls_in_source(self, name, source,
                                                 manifest):
        """Every ``api.X`` / ``api.storage.X`` / ``api.stem.X`` reference
        in the source must be declared in the manifest."""
        used = set()
        for match in re.finditer(r"api\.(storage|stem)\.([a-z_]+)", source):
            group, method = match.groups()
            if group == "storage":
                used.add(f"storage.{method}")
            else:
                used.add(f"stem.{method}")
        plain = re.findall(r"api\.([a-z_]+)\(", source)
        alias = {
            "random_bytes": "random",
            "http_session": "http_get",
            "remote_invoke_nowait": "remote_invoke",
            "invocation_token": None,
        }
        for method in plain:
            if method in ("storage", "stem"):
                continue
            mapped = alias.get(method, method)
            if mapped is not None:
                used.add(mapped)
        stem_alias = {
            "stem.wait_introduction": "stem.hs_wait_introduction",
            "stem.complete_rendezvous": "stem.hs_complete_rendezvous",
            "stem.fetch_begin": "stem.fetch",
            "stem.fetch_join": "stem.fetch",
        }
        used = {stem_alias.get(call, call) for call in used}
        used &= ALL_API_CALLS | set(stem_alias.values())
        undeclared = used - set(manifest.api_calls)
        assert not undeclared, f"{name}: undeclared api calls {undeclared}"

    def test_manifest_accepted_by_open_policy(self, name, source, manifest):
        assert MiddleboxNodePolicy.open_policy().permits(manifest)

    def test_catches_by_name(self, name, source, manifest):
        """``api.Error`` and its members are what a function may catch; a
        broad catch would swallow the sandbox's kill with the rest."""
        assert broad_catches(source) == []

    def test_source_imports_only_safe_modules(self, name, source, manifest):
        from repro.core.loader import SAFE_MODULES

        for match in re.finditer(r"^import (\w+)", source, re.MULTILINE):
            assert match.group(1) in SAFE_MODULES, \
                f"{name} imports {match.group(1)}"
