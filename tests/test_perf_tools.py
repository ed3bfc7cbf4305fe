"""Backfill coverage for the perf report and profiling helpers."""

from __future__ import annotations

import cProfile

import pytest

from repro.obs.metrics import REGISTRY
from repro.perf.counters import counters
from repro.perf.profiling import (
    active_profile,
    install_profile,
    profile_to_text,
    uninstall_profile,
)
from repro.perf.report import render_report
from repro.perf.timing import reset_sections, section_times, timed_section


class TestRenderReport:
    def test_lists_every_counter(self):
        counters.reset()
        REGISTRY.counter("perf_hash_calls").value += 1234
        report = render_report()
        assert report.splitlines()[0] == "perf counters"
        for field in counters.snapshot():
            assert field in report
        assert "1,234" in report  # thousands-separated values

    def test_includes_timed_sections_when_present(self):
        reset_sections()
        report = render_report()
        assert "timed sections" not in report
        with timed_section("build"):
            pass
        report = render_report()
        assert "timed sections" in report
        assert "build" in report


class TestTimedSections:
    def test_sections_accumulate_and_reset(self):
        reset_sections()
        with timed_section("work"):
            pass
        first = section_times["work"]
        with timed_section("work"):
            pass
        assert section_times["work"] >= first
        reset_sections()
        assert section_times == {}

    def test_section_records_on_exception(self):
        reset_sections()
        with pytest.raises(RuntimeError):
            with timed_section("broken"):
                raise RuntimeError("boom")
        assert "broken" in section_times


class TestProfiling:
    def teardown_method(self):
        uninstall_profile()

    def test_no_profile_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        uninstall_profile()
        assert active_profile() is None
        assert "no profile installed" in profile_to_text()

    def test_env_var_installs_on_first_use(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        uninstall_profile()
        profile = active_profile()
        assert profile is not None
        assert active_profile() is profile  # installed once, then reused

    def test_install_and_uninstall_roundtrip(self):
        mine = cProfile.Profile()
        assert install_profile(mine) is mine
        assert active_profile() is mine
        assert uninstall_profile() is mine
        assert uninstall_profile() is None

    def test_profile_to_text_renders_stats(self):
        profile = install_profile()
        profile.enable()
        sum(range(1000))
        profile.disable()
        text = profile_to_text(limit=5)
        assert "cumulative" in text
        assert "function calls" in text

    def test_simulator_feeds_installed_profile(self):
        from repro.netsim.simulator import Simulator

        profile = install_profile()
        sim = Simulator(seed="profiling")
        sim.schedule(1.0, lambda: None)
        sim.run()
        text = profile_to_text(profile)
        assert "function calls" in text
