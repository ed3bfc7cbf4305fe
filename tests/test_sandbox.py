"""The OS sandbox substrate: memfs, cgroups, seccomp, iptables, containers."""

import pytest
from hypothesis import given, strategies as st

from repro.sandbox.cgroups import CGroup, ResourceExceeded
from repro.sandbox.container import Container, ContainerError, ContainerState
from repro.sandbox.iptables import IptablesRuleset, NetworkBlocked
from repro.sandbox.memfs import FsError, MemFS
from repro.sandbox.seccomp import ALL_SYSCALLS, SeccompPolicy, SeccompViolation
from repro.tor.exitpolicy import ExitPolicy


class TestMemFS:
    def test_write_read(self):
        fs = MemFS()
        fs.write_file("/a/b.txt", b"data")
        assert fs.read_file("/a/b.txt") == b"data"
        assert fs.exists("/a") and fs.is_dir("/a")

    def test_missing_file(self):
        with pytest.raises(FsError):
            MemFS().read_file("/nope")

    def test_delete_releases_bytes(self):
        fs = MemFS()
        fs.write_file("/f", b"12345")
        assert fs.bytes_used == 5
        fs.delete("/f")
        assert fs.bytes_used == 0
        with pytest.raises(FsError):
            fs.delete("/f")

    def test_overwrite_accounts_delta(self):
        fs = MemFS()
        fs.write_file("/f", b"12345")
        fs.write_file("/f", b"12")
        assert fs.bytes_used == 2

    def test_listdir(self):
        fs = MemFS()
        fs.write_file("/d/one", b"1")
        fs.write_file("/d/sub/two", b"2")
        assert fs.listdir("/d") == ["one", "sub"]
        with pytest.raises(FsError):
            fs.listdir("/missing")

    def test_walk_files(self):
        fs = MemFS()
        fs.write_file("/d/one", b"1")
        fs.write_file("/d/sub/two", b"2")
        fs.write_file("/other", b"3")
        assert fs.walk_files("/d") == ["/d/one", "/d/sub/two"]

    def test_write_over_directory_rejected(self):
        fs = MemFS()
        fs.write_file("/d/x", b"1")
        with pytest.raises(FsError):
            fs.write_file("/d", b"clobber")

    @given(st.text(alphabet="abc/._", min_size=1, max_size=30))
    def test_path_normalization_never_escapes(self, weird):
        fs = MemFS()
        view = fs.chroot("/jail")
        try:
            view.write_file(weird, b"x")
        except FsError:
            return
        for path in fs.walk_files("/"):
            assert path.startswith("/jail/")


class TestChroot:
    def test_dotdot_cannot_escape(self):
        fs = MemFS()
        fs.write_file("/host-secret", b"root stuff")
        view = fs.chroot("/jail")
        view.write_file("/../../host-secret", b"overwritten?")
        assert fs.read_file("/host-secret") == b"root stuff"
        assert view.read_file("/host-secret") == b"overwritten?"

    def test_views_are_disjoint(self):
        fs = MemFS()
        a, b = fs.chroot("/a"), fs.chroot("/b")
        a.write_file("/f", b"A")
        assert not b.exists("/f")

    def test_purge(self):
        fs = MemFS()
        view = fs.chroot("/jail")
        view.write_file("/x", b"1")
        view.write_file("/y/z", b"2")
        view.purge()
        assert view.walk_files("/") == []
        assert fs.bytes_used == 0

    def test_bytes_used(self):
        fs = MemFS()
        view = fs.chroot("/jail")
        view.write_file("/x", b"123")
        assert view.bytes_used == 3


class TestCGroups:
    def test_limit_enforced(self):
        group = CGroup("g", memory=100)
        group.charge("memory", 90)
        with pytest.raises(ResourceExceeded):
            group.charge("memory", 20)
        assert group.usage["memory"] == 90  # failed charge has no effect

    def test_hierarchy_parent_limit(self):
        parent = CGroup("parent", memory=100)
        child_a = parent.child("a", memory=80)
        child_b = parent.child("b", memory=80)
        child_a.charge("memory", 60)
        with pytest.raises(ResourceExceeded) as excinfo:
            child_b.charge("memory", 60)   # child fine, parent would burst
        assert excinfo.value.group is parent

    def test_release_propagates(self):
        parent = CGroup("parent", memory=100)
        child = parent.child("c")
        child.charge("memory", 40)
        child.charge("memory", -40)
        assert parent.usage["memory"] == 0

    def test_release_all_on_teardown(self):
        parent = CGroup("parent", memory=100)
        child = parent.child("c")
        child.charge("memory", 70)
        child.release_all()
        assert parent.usage["memory"] == 0
        assert child not in parent.children

    def test_peak_tracking(self):
        group = CGroup("g")
        group.charge("memory", 50)
        group.charge("memory", -30)
        assert group.peak["memory"] == 50

    def test_headroom(self):
        parent = CGroup("parent", memory=100)
        child = parent.child("c", memory=90)
        parent.charge("memory", 50)
        assert child.headroom("memory") == 50
        assert child.headroom("cpu_ms") is None

    def test_unknown_resource_rejected(self):
        with pytest.raises(ValueError):
            CGroup("g", widgets=5)
        with pytest.raises(ValueError):
            CGroup("g").charge("widgets", 5)

    def test_usage_never_negative(self):
        group = CGroup("g")
        group.charge("memory", -50)
        assert group.usage["memory"] == 0


class TestSeccomp:
    def test_allowlist(self):
        policy = SeccompPolicy({"read", "write"})
        policy.check("read")
        with pytest.raises(SeccompViolation):
            policy.check("fork")
        assert policy.violation_count == 1

    def test_default_policy_blocks_fork_execve(self):
        policy = SeccompPolicy.default_function_policy()
        for syscall in ALL_SYSCALLS - {"fork", "execve"}:
            policy.check(syscall)
        for syscall in ("fork", "execve"):
            with pytest.raises(SeccompViolation):
                policy.check(syscall)

    def test_intersect(self):
        a = SeccompPolicy({"read", "write", "socket"})
        b = SeccompPolicy({"write", "socket", "connect"})
        assert a.intersect(b).allowed == {"write", "socket"}

    def test_unknown_syscall_rejected(self):
        with pytest.raises(ValueError):
            SeccompPolicy({"ptrace"})

    def test_check_all(self):
        policy = SeccompPolicy({"read"})
        with pytest.raises(SeccompViolation):
            policy.check_all(["read", "write"])


class TestIptables:
    def test_compiled_from_exit_policy(self):
        rules = IptablesRuleset.from_exit_policy(
            ExitPolicy.web_only(), "10.0.0.9")
        assert rules.allows("1.1.1.1", 443)
        with pytest.raises(NetworkBlocked):
            rules.check("1.1.1.1", 25)
        assert rules.denied_count == 1

    def test_loopback_exception(self):
        rules = IptablesRuleset.from_exit_policy(
            ExitPolicy.reject_all(), "10.0.0.9", loopback_ports=(9100,))
        assert rules.allows("10.0.0.9", 9100)
        assert not rules.allows("10.0.0.9", 9101)
        assert not rules.allows("10.0.0.8", 9100)

    def test_render_mentions_rules(self):
        rules = IptablesRuleset.from_exit_policy(
            ExitPolicy.web_only(), "10.0.0.9", loopback_ports=(9100,))
        text = rules.render()
        assert "9100" in text and "DROP" in text


class TestContainer:
    def _container(self, memory=1000, disk=500):
        fs = MemFS()
        parent = CGroup("bento", memory=10_000, disk=5_000)
        rules = IptablesRuleset.from_exit_policy(ExitPolicy.accept_all(), "h")
        return Container("c1", fs, parent, SeccompPolicy.allow_all(), rules,
                         memory_limit=memory, disk_limit=disk)

    def test_lifecycle(self):
        container = self._container()
        assert container.state is ContainerState.CREATED
        container.start(base_memory=100)
        assert container.running and container.memory_used == 100
        container.kill("done")
        assert container.state is ContainerState.TERMINATED
        assert container.kill_reason == "done"

    def test_double_start_rejected(self):
        container = self._container()
        container.start(base_memory=10)
        with pytest.raises(ContainerError):
            container.start(base_memory=10)

    def test_memory_overrun_kills(self):
        container = self._container(memory=200)
        container.start(base_memory=100)
        with pytest.raises(ResourceExceeded):
            container.charge_memory(150)
        assert container.state is ContainerState.TERMINATED
        assert "memory" in container.kill_reason

    def test_disk_quota(self):
        container = self._container(disk=10)
        container.start(base_memory=1)
        container.fs_write("/ok", b"12345")
        with pytest.raises(ResourceExceeded):
            container.fs_write("/big", b"x" * 20)
        container.fs_delete("/ok")
        assert container.disk_used == 0

    def test_kill_releases_resources_and_files(self):
        container = self._container()
        parent = container.cgroup.parent
        container.start(base_memory=500)
        container.fs_write("/data", b"x" * 100)
        container.kill()
        assert parent.usage["memory"] == 0
        assert parent.usage["disk"] == 0

    def test_terminated_container_rejects_use(self):
        container = self._container()
        container.start(base_memory=1)
        container.kill()
        with pytest.raises(ContainerError):
            container.fs_write("/f", b"x")
