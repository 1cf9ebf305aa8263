"""Tests for the MPI runtime audit layer (RouterAudit / MpiSanitizer).

Covers the pieces the integration suites only exercise implicitly:
the unmatched-triple arithmetic, the report text, and the sanitizer's
strict/non-strict exit behavior — including that a body exception is
never masked by an audit failure.
"""

from collections import Counter

import pytest

from repro.analysis import MpiAuditReport, MpiSanitizer, RouterAudit
from repro.exceptions import SanitizerError
from repro.mpi.router import MessageRouter


# ----------------------------------------------------------------------
# RouterAudit arithmetic
# ----------------------------------------------------------------------
class TestRouterAudit:
    def test_unmatched_is_posted_minus_collected(self):
        audit = RouterAudit(
            world_size=2,
            posted=Counter({(0, 1, 7): 3, (1, 0, 7): 1}),
            collected=Counter({(0, 1, 7): 1, (1, 0, 7): 1}),
        )
        assert audit.unmatched() == [((0, 1, 7), 2)]
        assert audit.messages_posted == 4

    def test_over_collection_never_goes_negative(self):
        audit = RouterAudit(
            world_size=2,
            posted=Counter({(0, 1, 7): 1}),
            collected=Counter({(0, 1, 7): 2}),
        )
        assert audit.unmatched() == []

    def test_unmatched_sorted_by_triple(self):
        audit = RouterAudit(
            world_size=4,
            posted=Counter({(2, 3, 9): 1, (0, 1, 5): 1}),
        )
        assert [triple for triple, _ in audit.unmatched()] == [(0, 1, 5), (2, 3, 9)]


# ----------------------------------------------------------------------
# MpiAuditReport formatting
# ----------------------------------------------------------------------
class TestMpiAuditReport:
    def test_clean_report_text(self):
        report = MpiAuditReport(
            audits=[RouterAudit(world_size=2, posted=Counter({(0, 1, 7): 2}),
                                collected=Counter({(0, 1, 7): 2}))]
        )
        assert report.ok
        text = report.format()
        assert text.splitlines()[0] == "mpi audit: 1 world(s), 2 message(s) posted"
        assert "every posted message was collected" in text
        assert "UNMATCHED" not in text

    def test_unmatched_report_lines(self):
        report = MpiAuditReport(
            audits=[
                RouterAudit(world_size=2, posted=Counter({(0, 1, 7): 2})),
                RouterAudit(world_size=2, posted=Counter({(1, 0, 9): 1}),
                            collected=Counter({(1, 0, 9): 1})),
            ]
        )
        assert not report.ok
        text = report.format()
        assert "mpi audit: 2 world(s), 3 message(s) posted" in text
        assert (
            "  UNMATCHED source=0 dest=1 tag=7: 2 message(s) queued but never "
            "collected" in text
        )
        assert "every posted message was collected" not in text

    def test_unmatched_aggregates_across_worlds(self):
        report = MpiAuditReport(
            audits=[
                RouterAudit(world_size=2, posted=Counter({(0, 1, 7): 1})),
                RouterAudit(world_size=2, posted=Counter({(1, 0, 9): 1})),
            ]
        )
        assert report.unmatched == [((0, 1, 7), 1), ((1, 0, 9), 1)]


# ----------------------------------------------------------------------
# MpiSanitizer end-to-end
# ----------------------------------------------------------------------
class TestMpiSanitizer:
    def test_matched_traffic_passes_strict(self):
        with MpiSanitizer() as sanitizer:
            router = MessageRouter(2)
            router.post(0, 1, tag=7, payload="hello")
            payload = router.collect(1, 0, tag=7, timeout=1.0)
        assert payload == "hello"
        assert sanitizer.report.audits[0].collected == Counter({(0, 1, 7): 1})
        assert sanitizer.report.ok

    def test_unmatched_message_raises_in_strict_mode(self):
        with pytest.raises(SanitizerError, match="sent but never"):
            with MpiSanitizer():
                router = MessageRouter(2)
                router.post(0, 1, tag=7, payload="lost")

    def test_non_strict_reports_without_raising(self):
        with MpiSanitizer(strict=False) as sanitizer:
            router = MessageRouter(2)
            router.post(0, 1, tag=7, payload="lost")
        assert not sanitizer.report.ok
        assert sanitizer.report.unmatched == [((0, 1, 7), 1)]
        assert "UNMATCHED source=0 dest=1 tag=7" in sanitizer.report.format()

    def test_body_exception_is_not_masked(self):
        with pytest.raises(ValueError, match="boom"):
            with MpiSanitizer() as sanitizer:
                router = MessageRouter(2)
                router.post(0, 1, tag=7, payload="lost")
                raise ValueError("boom")
        assert not sanitizer.report.ok  # audit kept for post-mortem

    def test_router_class_restored_after_exit(self):
        before = MessageRouter.__dict__["post"]
        with MpiSanitizer(strict=False):
            assert MessageRouter.__dict__["post"] is not before
        assert MessageRouter.__dict__["post"] is before
        # A router created after exit is not audited.
        router = MessageRouter(2)
        router.post(0, 1, tag=7, payload="untracked")
        assert not hasattr(router, "_audit")
