"""Unit tests for the trace recorder."""

import pytest

from repro.sim.trace import TraceRecord, TraceRecorder


class TestTraceRecord:
    def test_field_access_via_attributes(self):
        record = TraceRecord(10, "dispatch", task="CALC00", cpu=0)
        assert record.task == "CALC00"
        assert record.cpu == 0

    def test_missing_field_raises_attribute_error(self):
        record = TraceRecord(10, "dispatch")
        with pytest.raises(AttributeError):
            record.nope

    def test_equality(self):
        a = TraceRecord(1, "x", k=1)
        b = TraceRecord(1, "x", k=1)
        c = TraceRecord(1, "x", k=2)
        assert a == b
        assert a != c

    def test_equality_with_other_types(self):
        assert TraceRecord(1, "x").__eq__(42) is NotImplemented

    @pytest.mark.parametrize("name", ["time", "category", "fields"])
    def test_reserved_field_names_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            TraceRecord(1, "x", **{name: 0})
        recorder = TraceRecorder()
        with pytest.raises(ValueError, match=name):
            recorder.record(1, "x", **{name: 0})
        assert len(recorder) == 0


class TestTraceRecorder:
    def test_record_and_iterate(self):
        recorder = TraceRecorder()
        recorder.record(1, "a", v=1)
        recorder.record(2, "b", v=2)
        assert len(recorder) == 2
        assert [r.category for r in recorder] == ["a", "b"]

    def test_by_category(self):
        recorder = TraceRecorder()
        recorder.record(1, "a")
        recorder.record(2, "b")
        recorder.record(3, "a")
        assert [r.time for r in recorder.by_category("a")] == [1, 3]

    def test_categories(self):
        recorder = TraceRecorder()
        recorder.record(1, "a")
        recorder.record(2, "b")
        assert recorder.categories() == {"a", "b"}

    def test_last_overall_and_by_category(self):
        recorder = TraceRecorder()
        recorder.record(1, "a")
        recorder.record(2, "b")
        assert recorder.last().category == "b"
        assert recorder.last("a").time == 1
        assert recorder.last("zzz") is None

    def test_last_empty_returns_none(self):
        assert TraceRecorder().last() is None

    def test_disable_enable(self):
        recorder = TraceRecorder()
        recorder.record(1, "kept")
        recorder.disable()
        recorder.record(2, "dropped")
        recorder.enable()
        recorder.record(3, "kept")
        assert [r.time for r in recorder] == [1, 3]
        assert recorder.enabled

    def test_clear(self):
        recorder = TraceRecorder()
        recorder.record(1, "a")
        recorder.clear()
        assert len(recorder) == 0
