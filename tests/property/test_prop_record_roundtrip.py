"""Property-based tests: slotted records behave like plain dicts.

The hot-path overhaul put ``__slots__`` on the record types the
platform serializes -- :class:`~repro.sim.trace.TraceRecord` and the
component entries :mod:`repro.core.snapshot` ships between nodes --
and tuple-ized the event heap behind them.  None of those types may
rely on ``__dict__`` anymore, so these properties pin the observable
contract: a slotted trace record is indistinguishable from the
dict-based model it replaced (a field named after one of its slots is
rejected, since it would shadow that slot), and a snapshot entry
round-trips through JSON (the cluster wire format) without losing a
property or a state.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import UtilizationBoundPolicy
from repro.core.snapshot import export_state, restore_state
from repro.platform import build_platform
from repro.rtos.kernel import KernelConfig
from repro.rtos.latency import NullLatencyModel
from repro.sim.engine import MSEC
from repro.sim.trace import RESERVED_FIELDS, TraceRecord, TraceRecorder

from conftest import deploy, make_descriptor_xml

field_names = st.one_of(
    st.sampled_from(sorted(RESERVED_FIELDS)),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1,
            max_size=8))
field_values = st.one_of(st.integers(-10**9, 10**9), st.booleans(),
                         st.text(max_size=12), st.none())
records = st.lists(
    st.tuples(st.integers(0, 10**12),
              st.sampled_from(["dispatch", "release", "admit",
                               "deadline_miss"]),
              st.dictionaries(field_names, field_values, max_size=4)),
    max_size=30)


def as_dict(record):
    """The old dict shape of one trace record."""
    return {"time": record.time, "category": record.category,
            **record.fields}


class TestTraceRecordModel:
    @settings(max_examples=60, deadline=None)
    @given(records)
    def test_recorder_matches_dict_reference(self, items):
        recorder = TraceRecorder()
        reference = []  # the pre-__slots__ model: a list of dicts
        for time, category, fields in items:
            if RESERVED_FIELDS.intersection(fields):
                with pytest.raises(ValueError, match="reserved"):
                    recorder.record(time, category, **fields)
                continue
            recorder.record(time, category, **fields)
            reference.append({"time": time, "category": category,
                              **fields})
        assert [as_dict(r) for r in recorder] == reference
        for category in {r["category"] for r in reference}:
            assert [as_dict(r) for r in recorder.by_category(category)] \
                == [r for r in reference if r["category"] == category]
        assert recorder.categories() \
            == {r["category"] for r in reference}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**12),
           st.text(min_size=1, max_size=10),
           st.dictionaries(field_names, field_values, max_size=4))
    @example(0, "0", {"fields": None})
    def test_record_equality_and_attr_access(self, time, category,
                                             fields):
        if RESERVED_FIELDS.intersection(fields):
            # a field named after a slot would shadow it (or collide
            # with the constructor's own arguments)
            with pytest.raises(ValueError, match="reserved"):
                TraceRecord(time, category, **fields)
            return
        record = TraceRecord(time, category, **fields)
        twin = TraceRecord(time, category, **dict(fields))
        assert record == twin
        assert record.fields == fields
        for name, value in fields.items():
            assert getattr(record, name) == value
        changed = TraceRecord(time + 1, category, **fields)
        assert record != changed


# ----------------------------------------------------------------------
# snapshot entries through the JSON wire format
# ----------------------------------------------------------------------
PORT = ("WIREPR", "RTAI.SHM", "Integer", 2)


def fresh_platform():
    platform = build_platform(
        seed=17,
        kernel_config=KernelConfig(latency_model=NullLatencyModel()),
        internal_policy=UtilizationBoundPolicy(cap=1.0))
    platform.start_timer(1 * MSEC)
    return platform


class TestSnapshotRoundTrip:
    @settings(max_examples=15, deadline=None)
    @given(gain=st.integers(-10_000, 10_000),
           level=st.integers(0, 1_000_000))
    def test_entries_survive_json_and_restore(self, gain, level):
        source = fresh_platform()
        deploy(source, make_descriptor_xml("PROVPR", cpuusage=0.2,
                                           outports=[PORT]))
        deploy(source, make_descriptor_xml(
            "CONSPR", cpuusage=0.1, frequency=250, priority=3,
            inports=[PORT],
            properties=[("gain", "Integer", "1"),
                        ("level", "Integer", "0")]))
        container = source.drcr.component("CONSPR").container
        container.set_property("gain", gain)
        container.set_property("level", level)
        source.run_for(10 * MSEC)

        state = export_state(source.drcr)
        # The export must already be plain data: a JSON round-trip
        # (the cluster wire format) reproduces it exactly.
        wire = json.loads(json.dumps(state))
        assert wire == state

        target = fresh_platform()
        report = restore_state(target.drcr, wire)
        assert sorted(report["restored"]) == ["CONSPR", "PROVPR"]
        target.run_for(10 * MSEC)

        again = export_state(target.drcr)
        by_name = {e["name"]: e for e in again["components"]}
        for entry in state["components"]:
            restored = by_name[entry["name"]]
            assert restored["descriptor_xml"] == entry["descriptor_xml"]
            assert restored["state"] == entry["state"]
        # Operator-set values came back exactly (implementation-driven
        # keys like synthetic.sequence keep counting on the target, so
        # only the declared properties are compared verbatim).
        restored_props = by_name["CONSPR"]["properties"]
        assert restored_props["gain"] == gain
        assert restored_props["level"] == level
