"""Tests for the repro-serve wire protocol: framing and validation."""

import json

import pytest

from repro.campaign.cells import CellSpec
from repro.errors import ProtocolError
from repro.serve import protocol


class TestDecode:
    def test_round_trip(self):
        msg = {"op": "submit", "id": 7, "job": {"benchmark": "xalan"}}
        line = protocol.encode(msg)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        assert protocol.decode(line) == msg

    def test_encode_is_canonical(self):
        a = protocol.encode({"b": 1, "a": 2})
        b = protocol.encode({"a": 2, "b": 1})
        assert a == b == b'{"a":2,"b":1}\n'

    def test_oversized_line_is_413(self):
        line = b'{"op": "ping", "pad": "' + b"x" * 64 + b'"}\n'
        with pytest.raises(ProtocolError) as err:
            protocol.decode(line, max_bytes=32)
        assert err.value.code == 413

    @pytest.mark.parametrize("line", [
        b"not json at all\n",
        b'{"truncated": \n',
        b"\xff\xfe garbage bytes\n",
        b'[1, 2, 3]\n',            # valid JSON, not an object
        b'"just a string"\n',
        b"42\n",
    ])
    def test_malformed_or_non_object_is_400(self, line):
        with pytest.raises(ProtocolError) as err:
            protocol.decode(line)
        assert err.value.code == 400

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError) as err:
            protocol.parse_request({"op": "explode", "id": 1})
        assert err.value.code == 400 and "explode" in str(err.value)

    def test_missing_op_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.parse_request({"id": 1})

    def test_parse_request_returns_id(self):
        assert protocol.parse_request({"op": "ping", "id": 9}) == ("ping", 9)
        assert protocol.parse_request({"op": "ping"}) == ("ping", None)


class TestJobValidation:
    def test_job_to_cell_canonicalizes_like_campaign(self):
        job = {"benchmark": "xalan", "gc": "G1", "heap": "16g",
               "young": "256m", "seed": 3, "iterations": 2}
        cell = protocol.job_to_cell(job)
        want = CellSpec.from_axes("xalan", "G1", "16g", "256m", 3,
                                  iterations=2)
        assert cell == want and cell.digest() == want.digest()

    def test_defaults_applied(self):
        cell = protocol.job_to_cell({"benchmark": "xalan"})
        same = protocol.job_to_cell({"benchmark": "xalan",
                                     "gc": "ParallelOld", "seed": 0})
        assert cell.digest() == same.digest()
        assert cell.iterations == 10

    @pytest.mark.parametrize("job,fragment", [
        ("xalan", "must be a JSON object"),
        ([1], "must be a JSON object"),
        ({}, "missing required field 'benchmark'"),
        ({"benchmark": "xalan", "bogus": 1}, "unknown job field"),
        ({"benchmark": "xalan", "overrides": [1]}, "must be an object"),
        ({"benchmark": "xalan", "gc": "NotAGC"}, "invalid job"),
        ({"benchmark": "xalan", "heap": "one gig"}, "invalid job"),
    ])
    def test_bad_jobs_are_400(self, job, fragment):
        with pytest.raises(ProtocolError) as err:
            protocol.job_to_cell(job)
        assert err.value.code == 400 and fragment in str(err.value)

    @pytest.mark.parametrize("fields,fragment", [
        # Python's json parses NaN; JVMConfig refuses it.
        ({"overrides": json.loads('{"pause_target": NaN}')}, "pause_target"),
        ({"overrides": {"bogus": 1}}, "bogus"),
        ({"young": "2g"}, "young must be in (0, heap]"),
        ({"benchmark": "nosuch"}, "unknown DaCapo benchmark"),
        ({"iterations": 0}, "iterations must be >= 1"),
        ({"overrides": {"n_threads": -1}}, "n_threads must be >= 1"),
        ({"overrides": {"gc_threads": "x"}}, "gc_threads must be >= 1"),
        ({"overrides": {"gc_threads": 0}}, "gc_threads must be >= 1"),
        ({"overrides": {"survivor_ratio": "a"}}, "survivor_ratio must be >= 1"),
        ({"overrides": {"survivor_ratio": 0}}, "survivor_ratio must be >= 1"),
        # These ran, as a number would, under digests of their own.
        ({"overrides": {"n_threads": ""}}, "n_threads must be >= 1"),
        ({"overrides": {"n_threads": True}}, "n_threads must be >= 1"),
        ({"overrides": {"gc_threads": "2"}}, "gc_threads must be >= 1"),
        ({"overrides": {"gc_threads": True}}, "gc_threads must be >= 1"),
        ({"overrides": {"gc_threads": "", "gc_placement": "adaptive"}},
         "gc_threads must be >= 1"),
    ], ids=["nan-pause-target", "unknown-override", "young-over-heap",
            "unknown-benchmark", "no-iterations", "negative-n-threads",
            "gc-threads-not-a-number", "no-gc-threads",
            "survivor-ratio-not-a-number", "no-survivor-ratio",
            "n-threads-empty-string", "n-threads-bool",
            "gc-threads-numeric-string", "gc-threads-bool",
            "gc-threads-empty-string-placed"])
    def test_jobs_the_simulator_refuses_are_400(self, fields, fragment):
        """Each of these passed admission once, and only its run failed:
        the harness crashed the run, or the worker raised and the
        service retried and quarantined the cell."""
        job = {"benchmark": "xalan", "gc": "G1", "heap": "1g", **fields}
        with pytest.raises(ProtocolError) as err:
            protocol.job_to_cell(job)
        assert err.value.code == 400 and fragment in str(err.value)

    def test_valid_jobs_keep_their_digests(self):
        """Validation adds no field to a cell: stores written before it
        keep their hits (digests recorded before jobs were checked)."""
        jobs = {
            "683180bf4616cc77a7934edf8c993dbfcbc8fdfeb03fc6ee894bcc6d81e6f310":
                {"benchmark": "xalan", "gc": "G1", "heap": "1g",
                 "overrides": {"pause_target": 0.1}},
            "7c68fa67bf01bdf0c1c46a28273b4f8a0d7df6e0ae714762687be70c63f1fe54":
                {"benchmark": "lusearch", "gc": "Serial", "heap": "1g",
                 "young": "256m", "iterations": 2},
            # Thread and survivor settings that run, recorded before
            # JVMConfig checked them.
            "bcb52477037139e9ab195dd1de3acc80904ea3e8bc24056631f188a8099fe033":
                {"benchmark": "xalan", "gc": "G1", "heap": "1g",
                 "overrides": {"gc_threads": 2.0, "n_threads": 0}},
            "fd7968a57be0ebf2fd9a82b34926352317d3dc4ef1aed5ce6e63f346db77055a":
                {"benchmark": "lusearch", "gc": "CMS", "heap": "1g",
                 "young": "256m", "iterations": 2,
                 "overrides": {"survivor_ratio": 8.0, "gc_threads": 0,
                               "gc_placement": "adaptive"}},
            # The numbers that refused non-numbers ran as, recorded
            # before thread counts had to be numbers.
            "523a85294cc8446779f1f02950e1cd41ca70918b2883c27379643192fd52abab":
                {"benchmark": "xalan", "gc": "G1", "heap": "1g",
                 "iterations": 2,
                 "overrides": {"n_threads": 1, "gc_threads": 1}},
            "ba0c486e74d6c48cd0eacd3be1021ccba9021fd25c73cb60e37a5168e40542a2":
                {"benchmark": "xalan", "gc": "G1", "heap": "1g",
                 "iterations": 2,
                 "overrides": {"n_threads": 2.0, "gc_threads": 2,
                               "gc_placement": "adaptive"}},
        }
        for digest, job in jobs.items():
            assert protocol.job_to_cell(job).digest() == digest


class TestResponses:
    def test_responses_carry_version_and_id(self):
        for msg in (
            protocol.queued_msg(1, "d" * 64, position=2),
            protocol.result_msg(2, "d" * 64, {}, cached=True, meta={}),
            protocol.failed_msg(3, "d" * 64, {"kind": "timeout"}, meta={}),
            protocol.rejected_msg(4, 429, "full"),
            protocol.error_msg(5, 400, "bad"),
            protocol.stats_msg(6, {}),
            protocol.pong_msg(7),
            protocol.subscribed_msg(8),
            protocol.draining_msg(9),
            protocol.drained_msg(10, {}),
        ):
            assert msg["v"] == protocol.PROTOCOL_VERSION
            assert "id" in msg and "type" in msg
            # Every response must survive the wire.
            assert protocol.decode(protocol.encode(msg)) == msg

    def test_event_has_no_id(self):
        msg = protocol.event_msg({"kind": "queued"})
        assert msg["type"] == "event" and "id" not in msg

    def test_rejection_codes_visible(self):
        msg = protocol.rejected_msg(1, 429, "admission queue full (2 jobs)")
        assert msg["code"] == 429 and "queue full" in msg["reason"]


class TestWireCompat:
    def test_plain_text_protocol(self):
        # The protocol must stay nc-scriptable: a hand-written line parses.
        line = b'{"op":"status","id":"abc"}\n'
        op, rid = protocol.parse_request(protocol.decode(line))
        assert op == "status" and rid == "abc"

    def test_digest_stability_across_paths(self):
        # A job dict and its JSON round trip hit the same cache slot.
        job = {"benchmark": "lusearch", "gc": "CMS", "heap": "2g", "seed": 1}
        direct = protocol.job_to_cell(job)
        wired = protocol.job_to_cell(json.loads(json.dumps(job)))
        assert direct.digest() == wired.digest()
