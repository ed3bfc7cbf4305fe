"""Cells, relay payload packing, and exit policies."""

import pytest
from hypothesis import given, strategies as st

from repro.tor.cell import (
    CELL_SIZE,
    RELAY_DATA_SIZE,
    RELAY_PAYLOAD_SIZE,
    Cell,
    CellCommand,
    RelayCellPayload,
    RelayCommand,
)
from repro.tor.exitpolicy import ExitPolicy, ExitPolicyError
from repro.tor.layercrypto import FORWARD, HopCrypto
from repro.tor.ntor import CircuitKeys
from repro.util.errors import ProtocolError


class TestCell:
    def test_payload_padded_to_fixed_size(self):
        cell = Cell(1, CellCommand.CREATE, b"short")
        assert len(cell.payload) == RELAY_PAYLOAD_SIZE
        assert cell.wire_size == CELL_SIZE

    def test_oversize_payload_rejected(self):
        with pytest.raises(ProtocolError):
            Cell(1, CellCommand.RELAY, b"x" * (RELAY_PAYLOAD_SIZE + 1))


class TestRelayCellPayload:
    def test_pack_unpack_roundtrip(self):
        original = RelayCellPayload(command=RelayCommand.DATA, stream_id=7,
                                    data=b"hello")
        parsed = RelayCellPayload.unpack(original.pack(digest=b"\x01\x02\x03\x04"))
        assert parsed.command == RelayCommand.DATA
        assert parsed.stream_id == 7
        assert parsed.data == b"hello"
        assert parsed.digest == b"\x01\x02\x03\x04"

    def test_max_data_fits(self):
        cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=1,
                                data=b"x" * RELAY_DATA_SIZE)
        assert len(cell.pack()) == RELAY_PAYLOAD_SIZE

    def test_oversize_data_rejected(self):
        cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=1,
                                data=b"x" * (RELAY_DATA_SIZE + 1))
        with pytest.raises(ProtocolError):
            cell.pack()

    def test_unpack_rejects_nonzero_recognized(self):
        payload = bytearray(RelayCellPayload(
            command=RelayCommand.DATA, stream_id=1, data=b"d").pack())
        payload[0] = 0xAA
        with pytest.raises(ProtocolError):
            RelayCellPayload.unpack(bytes(payload))

    def test_unpack_rejects_unknown_command(self):
        payload = bytearray(RelayCellPayload(
            command=RelayCommand.DATA, stream_id=1, data=b"d").pack())
        payload[10] = 250
        with pytest.raises(ProtocolError):
            RelayCellPayload.unpack(bytes(payload))

    def test_open_payload_checks_the_recognized_bytes(self):
        keys = CircuitKeys(kf=b"f" * 32, kb=b"b" * 32, df=b"F" * 32,
                           db=b"B" * 32)
        sender, receiver = HopCrypto(keys), HopCrypto(keys)
        good = sender.seal_payload(RelayCellPayload(
            command=RelayCommand.DATA, stream_id=1, data=b"d"), FORWARD)
        assert receiver.open_payload(b"\xff" + good[1:], FORWARD) is None
        assert receiver.open_payload(good[:-1], FORWARD) is None
        assert receiver.open_payload(good, FORWARD).data == b"d"

    @given(st.integers(min_value=0, max_value=65535),
           st.binary(max_size=RELAY_DATA_SIZE))
    def test_roundtrip_property(self, stream_id, data):
        cell = RelayCellPayload(command=RelayCommand.DATA,
                                stream_id=stream_id, data=data)
        parsed = RelayCellPayload.unpack(cell.pack())
        assert (parsed.stream_id, parsed.data) == (stream_id, data)


class TestExitPolicyParsing:
    def test_accept_all(self):
        policy = ExitPolicy.accept_all()
        assert policy.allows("1.2.3.4", 80)
        assert policy.is_exit

    def test_reject_all(self):
        policy = ExitPolicy.reject_all()
        assert not policy.allows("1.2.3.4", 80)
        assert not policy.is_exit

    def test_web_only(self):
        policy = ExitPolicy.web_only()
        assert policy.allows("9.9.9.9", 443)
        assert policy.allows("9.9.9.9", 80)
        assert not policy.allows("9.9.9.9", 25)

    def test_first_match_wins(self):
        policy = ExitPolicy.parse("reject 10.0.0.0/8:*\naccept *:*")
        assert not policy.allows("10.1.2.3", 80)
        assert policy.allows("11.1.2.3", 80)

    def test_port_ranges_and_lists(self):
        policy = ExitPolicy.parse("accept *:80,443,8000-8100")
        assert policy.allows("1.1.1.1", 8050)
        assert policy.allows("1.1.1.1", 443)
        assert not policy.allows("1.1.1.1", 7999)

    def test_host_prefix(self):
        policy = ExitPolicy.parse("accept 192.168.1.0/24:*")
        assert policy.allows("192.168.1.200", 99)
        assert not policy.allows("192.168.2.1", 99)

    def test_single_host(self):
        policy = ExitPolicy.parse("accept 8.8.8.8:53")
        assert policy.allows("8.8.8.8", 53)
        assert not policy.allows("8.8.8.9", 53)

    def test_default_reject(self):
        policy = ExitPolicy.parse("accept *:80")
        assert not policy.allows("1.1.1.1", 81)

    def test_invalid_port_zero(self):
        assert not ExitPolicy.accept_all().allows("1.1.1.1", 0)

    def test_render_roundtrip(self):
        text = "accept 10.0.0.0/8:80,443\nreject *:*"
        policy = ExitPolicy.parse(text)
        assert ExitPolicy.parse(policy.render()) == policy

    @pytest.mark.parametrize("bad", [
        "allow *:*", "accept *", "accept 1.2.3:80", "accept 1.2.3.4.5:80",
        "accept *:0", "accept *:99999", "accept 1.2.3.4/40:80",
        "accept 300.1.1.1:80", "accept *:80-20",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ExitPolicyError):
            ExitPolicy.parse(bad)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(1, 65535))
    def test_accept_all_accepts_everything(self, a, b, port):
        assert ExitPolicy.accept_all().allows(f"{a}.{b}.0.1", port)
