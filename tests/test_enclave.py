"""The SGX/conclave substrate: measurement, EPC, attestation, sealing,
FS Protect, secure channels."""

import pytest

from repro.enclave.attestation import (
    AttestationError,
    AttestationReport,
    IntelAttestationService,
    Quote,
    TCB_STATUS_OK,
    TCB_STATUS_OUT_OF_DATE,
)
from repro.enclave.conclave import Conclave, ConclaveError
from repro.enclave.fsprotect import FSProtect, FSProtectError
from repro.enclave.sealing import SealingError, seal_data, unseal_data
from repro.enclave.sgx import (
    EPC_USABLE_BYTES,
    EnclaveError,
    EnclaveHost,
    EnclaveImage,
)
from repro.netsim.simulator import Simulator
from repro.sandbox.memfs import MemFS
from repro.util.rng import DeterministicRandom

MB = 1024 * 1024


@pytest.fixture()
def sgx():
    sim = Simulator(seed="sgx")
    rng = DeterministicRandom("sgx-tests")
    ias = IntelAttestationService(rng.fork("ias"))
    host = EnclaveHost(sim, ias, rng=rng.fork("host"))
    return sim, rng, ias, host


IMAGE = EnclaveImage(name="img", code=b"runtime-code", version=1)


class TestMeasurement:
    def test_same_image_same_measurement(self):
        again = EnclaveImage(name="img", code=b"runtime-code", version=1)
        assert IMAGE.measurement == again.measurement

    def test_code_change_changes_measurement(self):
        evil = EnclaveImage(name="img", code=b"runtime-code-evil", version=1)
        assert IMAGE.measurement != evil.measurement

    def test_version_change_changes_measurement(self):
        v2 = EnclaveImage(name="img", code=b"runtime-code", version=2)
        assert IMAGE.measurement != v2.measurement


class TestEpcAccounting:
    def test_launch_charges_epc(self, sgx):
        _sim, _rng, _ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=10 * MB)
        assert host.epc_committed == 10 * MB + len(IMAGE.code)
        enclave.terminate()
        assert host.epc_committed == 0

    def test_oversubscription_triggers_paging(self, sgx):
        _sim, _rng, _ias, host = sgx
        host.launch(IMAGE, heap_bytes=EPC_USABLE_BYTES)
        assert host.oversubscribed
        assert host.paging_penalty() > 0

    def test_within_budget_no_penalty(self, sgx):
        _sim, _rng, _ias, host = sgx
        host.launch(IMAGE, heap_bytes=10 * MB)
        assert not host.oversubscribed
        assert host.paging_penalty() == 0.0

    def test_strict_mode_refuses_oversubscription(self, sgx):
        _sim, _rng, _ias, host = sgx
        with pytest.raises(EnclaveError):
            host.launch(IMAGE, heap_bytes=EPC_USABLE_BYTES + 1, strict=True)

    def test_grow(self, sgx):
        _sim, _rng, _ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        before = host.epc_committed
        enclave.grow(MB)
        assert host.epc_committed == before + MB

    def test_terminated_enclave_unusable(self, sgx):
        _sim, _rng, _ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        enclave.terminate()
        with pytest.raises(EnclaveError):
            enclave.quote(b"x")


class TestAttestation:
    def test_quote_verifies_to_ok_report(self, sgx):
        _sim, _rng, ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        report = ias.verify_quote(enclave.quote(b"channel-data"))
        assert report.status == TCB_STATUS_OK
        assert report.verify(ias.public_key,
                             expected_measurement=IMAGE.measurement)

    def test_report_binds_report_data(self, sgx):
        _sim, _rng, ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        report = ias.verify_quote(enclave.quote(b"dh-public-value"))
        assert report.quote.report_data == b"dh-public-value"

    def test_unknown_platform_rejected(self, sgx):
        _sim, rng, ias, _host = sgx
        forged = Quote(platform_id="platform-999", measurement=IMAGE.measurement,
                       tcb_level=2, report_data=b"", signature=b"sig")
        with pytest.raises(AttestationError):
            ias.verify_quote(forged)

    def test_forged_quote_signature_rejected(self, sgx):
        _sim, _rng, ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        quote = enclave.quote(b"x")
        quote.report_data = b"y"     # mutate after signing
        with pytest.raises(AttestationError):
            ias.verify_quote(quote)

    def test_out_of_date_tcb_flagged(self, sgx):
        sim, rng, ias, _host = sgx
        stale_host = EnclaveHost(sim, ias, rng=rng.fork("stale"), tcb_level=1)
        enclave = stale_host.launch(IMAGE, heap_bytes=MB)
        report = ias.verify_quote(enclave.quote(b""))
        assert report.status == TCB_STATUS_OUT_OF_DATE
        # Clients demanding an up-to-date TCB reject it...
        assert not report.verify(ias.public_key)
        # ...until the platform is patched.
        ias.patch_platform(stale_host.platform_id, new_tcb_level=2)
        stale_host.tcb_level = 2
        report2 = ias.verify_quote(enclave.quote(b""))
        assert report2.status == TCB_STATUS_OK

    def test_revoked_platform_rejected(self, sgx):
        _sim, _rng, ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        ias.revoke_platform(host.platform_id)
        with pytest.raises(AttestationError):
            ias.verify_quote(enclave.quote(b""))

    def test_forged_report_signature_rejected(self, sgx):
        _sim, rng, ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        report = ias.verify_quote(enclave.quote(b""))
        wire = report.to_wire()
        wire["status"] = TCB_STATUS_OK
        wire["timestamp"] = 999.0    # tamper
        assert not AttestationReport.from_wire(wire).verify(ias.public_key)

    def test_report_measurement_check(self, sgx):
        _sim, _rng, ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        report = ias.verify_quote(enclave.quote(b""))
        assert not report.verify(ias.public_key,
                                 expected_measurement="deadbeef")


class TestSealing:
    def test_roundtrip(self, sgx):
        _sim, _rng, _ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        key = enclave.sealing_key()
        assert unseal_data(key, seal_data(key, b"state")) == b"state"

    def test_other_enclave_cannot_unseal(self, sgx):
        _sim, _rng, _ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        other = host.launch(EnclaveImage("other", b"other-code"), heap_bytes=MB)
        sealed = seal_data(enclave.sealing_key(), b"secret")
        with pytest.raises(SealingError):
            unseal_data(other.sealing_key(), sealed)

    def test_other_platform_cannot_unseal(self, sgx):
        sim, rng, ias, host = sgx
        enclave = host.launch(IMAGE, heap_bytes=MB)
        host2 = EnclaveHost(sim, ias, rng=rng.fork("host2"))
        enclave2 = host2.launch(IMAGE, heap_bytes=MB)
        sealed = seal_data(enclave.sealing_key(), b"secret")
        with pytest.raises(SealingError):
            unseal_data(enclave2.sealing_key(), sealed)


class TestFsProtect:
    def _fsprotect(self):
        fs = MemFS()
        return FSProtect(fs.chroot("/c"), b"k" * 32)

    def test_roundtrip(self):
        fsp = self._fsprotect()
        fsp.write_file("/doc.txt", b"plaintext")
        assert fsp.read_file("/doc.txt") == b"plaintext"

    def test_path_of_any_length(self):
        fsp = self._fsprotect()
        short, long = "/" + "n" * 20, "/" + "n" * 4000
        fsp.write_file(short, b"same size")
        fsp.write_file(long, b"same size")
        assert fsp.read_file(long) == b"same size"
        # The nonce is not stored: the path's length costs the envelope nothing.
        assert len(fsp.operator_view(long)) == len(fsp.operator_view(short))

    def test_operator_sees_only_ciphertext(self):
        fsp = self._fsprotect()
        fsp.write_file("/doc.txt", b"very identifiable content")
        raw = fsp.operator_view("/doc.txt")
        assert b"very identifiable content" not in raw

    def test_tampering_detected(self):
        fs = MemFS()
        view = fs.chroot("/c")
        fsp = FSProtect(view, b"k" * 32)
        fsp.write_file("/doc", b"data")
        raw = bytearray(view.read_file("/doc"))
        raw[-1] ^= 1
        view.write_file("/doc", bytes(raw))
        with pytest.raises(FSProtectError):
            fsp.read_file("/doc")

    def test_rollback_detected(self):
        fs = MemFS()
        view = fs.chroot("/c")
        fsp = FSProtect(view, b"k" * 32)
        fsp.write_file("/doc", b"v1")
        old = view.read_file("/doc")
        fsp.write_file("/doc", b"v2")
        view.write_file("/doc", old)     # operator replays the old version
        with pytest.raises(FSProtectError):
            fsp.read_file("/doc")

    def test_cross_path_splice_detected(self):
        fs = MemFS()
        view = fs.chroot("/c")
        fsp = FSProtect(view, b"k" * 32)
        fsp.write_file("/a", b"content-a")
        fsp.write_file("/b", b"content-b")
        view.write_file("/b", view.read_file("/a"))
        with pytest.raises(FSProtectError):
            fsp.read_file("/b")

    def test_delete(self):
        fsp = self._fsprotect()
        fsp.write_file("/x", b"1")
        fsp.delete("/x")
        assert not fsp.exists("/x")


class TestConclaveChannel:
    def test_attested_channel_end_to_end(self, sgx):
        sim, rng, ias, host = sgx
        fs = MemFS()
        conclave = Conclave(host, IMAGE, fs.chroot("/cc"), rng.fork("cc"),
                            heap_bytes=4 * MB)
        enclave_pub = conclave.begin_channel()
        report = ias.verify_quote(conclave.quote_for_channel(enclave_pub))
        channel, client_pub = Conclave.client_channel(
            rng.fork("client"), report, ias.public_key, IMAGE.measurement)
        server_channel = conclave.complete_channel(client_pub)
        assert server_channel.open(channel.seal(b"code")) == b"code"
        # and the reverse direction
        assert channel.open(server_channel.seal(b"ack")) == b"ack"

    def test_channel_rejects_wrong_measurement(self, sgx):
        _sim, rng, ias, host = sgx
        fs = MemFS()
        conclave = Conclave(host, IMAGE, fs.chroot("/cc"), rng.fork("cc"),
                            heap_bytes=MB)
        report = ias.verify_quote(
            conclave.quote_for_channel(conclave.begin_channel()))
        with pytest.raises(ConclaveError):
            Conclave.client_channel(rng.fork("c"), report, ias.public_key,
                                    "not-the-measurement")

    def test_channel_tamper_detected(self, sgx):
        _sim, rng, ias, host = sgx
        fs = MemFS()
        conclave = Conclave(host, IMAGE, fs.chroot("/cc"), rng.fork("cc"),
                            heap_bytes=MB)
        report = ias.verify_quote(
            conclave.quote_for_channel(conclave.begin_channel()))
        channel, client_pub = Conclave.client_channel(
            rng.fork("c"), report, ias.public_key, IMAGE.measurement)
        server_channel = conclave.complete_channel(client_pub)
        sealed = bytearray(channel.seal(b"code"))
        sealed[0] ^= 1
        with pytest.raises(ConclaveError):
            server_channel.open(bytes(sealed))

    def test_conclave_memory_includes_overhead(self, sgx):
        _sim, rng, _ias, host = sgx
        from repro.enclave.conclave import CONCLAVE_OVERHEAD_BYTES

        fs = MemFS()
        before = host.epc_committed
        Conclave(host, IMAGE, fs.chroot("/cc"), rng.fork("cc"),
                 heap_bytes=4 * MB)
        assert host.epc_committed - before >= 4 * MB + CONCLAVE_OVERHEAD_BYTES

    def test_terminate_loses_fs_key(self, sgx):
        _sim, rng, _ias, host = sgx
        fs = MemFS()
        conclave = Conclave(host, IMAGE, fs.chroot("/cc"), rng.fork("cc"),
                            heap_bytes=MB)
        conclave.fs.write_file("/f", b"abusive content?")
        conclave.terminate()
        # The ciphertext remains on disk but the key is gone with the
        # enclave: the operator can never produce the plaintext.
        assert conclave.fs.operator_view("/f") != b"abusive content?"
        assert conclave.channel is None
