"""repro.serve.protocol: the NDJSON envelope codec."""

import pytest

from repro.serve.protocol import (OPS, PROTOCOL_VERSION, ProtocolError,
                                  decode_line, encode, error_response,
                                  make_request, make_response,
                                  parse_request, parse_response)


class TestCodec:
    def test_round_trip(self):
        envelope = make_request("analyze", id=3, priority=1,
                                request={"v": 1, "kind": "analyze"})
        assert decode_line(encode(envelope)) == envelope

    def test_one_line_per_envelope(self):
        assert encode(make_request("ping", id=1)).count(b"\n") == 1

    def test_bad_json(self):
        with pytest.raises(ProtocolError, match="bad JSON"):
            decode_line(b"{not json}\n")

    def test_non_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2]\n")

    def test_version_mismatch(self):
        with pytest.raises(ProtocolError, match="unsupported protocol"):
            decode_line(b'{"v": 99, "op": "ping"}\n')

    def test_undecodable_bytes(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_line(b'\xff\xfe{"v": 1}\n')


class TestRequests:
    def test_unknown_op(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            make_request("dance", id=1)
        with pytest.raises(ProtocolError, match="unknown op"):
            parse_request({"v": PROTOCOL_VERSION, "op": "dance"})

    def test_analyze_needs_payload(self):
        with pytest.raises(ProtocolError, match="needs a request"):
            make_request("analyze", id=1)
        with pytest.raises(ProtocolError, match="needs a request"):
            parse_request({"v": PROTOCOL_VERSION, "op": "analyze", "id": 1})

    def test_priority_must_be_int(self):
        envelope = make_request("analyze", id=1, request={"k": 1})
        envelope["priority"] = "high"
        with pytest.raises(ProtocolError, match="priority"):
            parse_request(envelope)

    def test_parse_fields(self):
        envelope = make_request("analyze", id="req-7", priority=2,
                                request={"k": 1})
        req = parse_request(envelope)
        assert (req.op, req.id, req.priority, req.payload) == \
            ("analyze", "req-7", 2, {"k": 1})
        assert req.deadline is None and req.tenant is None

    def test_parse_v2_fields(self):
        envelope = make_request("analyze", id=1, request={"k": 1},
                                deadline=1700000123.5, tenant="ci")
        req = parse_request(envelope)
        assert req.deadline == 1700000123.5
        assert req.tenant == "ci"

    def test_v1_envelopes_are_rejected(self):
        with pytest.raises(ProtocolError, match="unsupported protocol v1"):
            decode_line(b'{"v": 1, "op": "ping", "id": 1}\n')
        with pytest.raises(TypeError):
            make_request("ping", id=1, version=1)
        assert make_request("ping", id=1)["v"] == PROTOCOL_VERSION == 2

    def test_bad_deadline_and_tenant(self):
        base = make_request("ping", id=1)
        with pytest.raises(ProtocolError, match="deadline"):
            parse_request(dict(base, deadline="soon"))
        with pytest.raises(ProtocolError, match="tenant"):
            parse_request(dict(base, tenant=7))

    def test_simple_ops_carry_no_payload(self):
        for op in ("status", "ping", "shutdown"):
            assert op in OPS
            req = parse_request(make_request(op, id=5))
            assert (req.op, req.id, req.payload) == (op, 5, None)
            assert req.priority == 0


class TestResponses:
    def test_ok_response(self):
        response = make_response(4, result={"answer": 42})
        assert parse_response(response) is response
        assert response["ok"] and response["error"] is None
        assert not response["busy"]

    def test_error_response(self):
        response = error_response(4, "boom")
        assert not response["ok"]
        assert response["error"] == "boom"

    def test_busy_response(self):
        assert error_response(4, "full", busy=True)["busy"] is True

    def test_malformed_response(self):
        with pytest.raises(ProtocolError, match="missing"):
            parse_response({"v": PROTOCOL_VERSION})

    def test_error_code_is_v2_only(self):
        v2 = error_response(4, "late", code="deadline_exceeded")
        assert v2["code"] == "deadline_exceeded" and v2["v"] == 2
        assert "code" not in error_response(4, "boom")
        with pytest.raises(TypeError):
            error_response(4, "late", code="deadline_exceeded", version=1)


class TestBoundedLines:
    def test_read_wire_line_eof_and_lines(self):
        import io

        from repro.serve.protocol import read_wire_line

        stream = io.BytesIO(b'{"v":1}\npartial')
        assert read_wire_line(stream) == b'{"v":1}\n'
        assert read_wire_line(stream) == b"partial"  # mid-write tail
        assert read_wire_line(stream) is None

    def test_read_wire_line_oversized(self):
        import io

        from repro.serve.protocol import OversizedLine, read_wire_line

        stream = io.BytesIO(b"x" * 64 + b"\n")
        with pytest.raises(OversizedLine):
            read_wire_line(stream, limit=32)

    def test_decode_rejects_oversized_bytes(self):
        from repro.serve.protocol import MAX_LINE_BYTES, OversizedLine

        with pytest.raises(OversizedLine):
            decode_line(b"x" * (MAX_LINE_BYTES + 1))
