"""Superblock round trips and corruption detection."""

import json
import struct
import zlib
from dataclasses import asdict

import pytest

from repro.btree import PAGE_BYTES
from repro.errors import RecoveryError
from repro.recovery import SUPERBLOCK_BLOCK, Superblock
from repro.storage import BlockDevice


BLOCK_SIZE = 512


def make_superblock(**overrides):
    fields = dict(
        journal_start=1,
        journal_blocks=63,
        data_region_start=64,
        master_root=4096,
        next_oid=17,
        page_blocks=PAGE_BYTES // BLOCK_SIZE,
        checkpoint_seq=3,
        fulltext_root=4100,
        image_root=4104,
    )
    fields.update(overrides)
    return Superblock(**fields)


def encode_fields(fields):
    """A CRC-valid superblock image carrying an arbitrary field set."""
    payload = json.dumps(fields, sort_keys=True).encode("utf-8")
    return struct.pack(">8sII", b"HFADSB01", len(payload), zlib.crc32(payload)) + payload


class TestRoundTrip:
    def test_bytes_round_trip(self):
        original = make_superblock()
        assert Superblock.from_bytes(original.to_bytes()) == original

    def test_device_round_trip(self):
        device = BlockDevice(num_blocks=128, block_size=BLOCK_SIZE)
        original = make_superblock(master_root=99)
        original.store(device)
        assert Superblock.load(device) == original

    def test_store_overwrites_previous(self):
        device = BlockDevice(num_blocks=128, block_size=BLOCK_SIZE)
        make_superblock(checkpoint_seq=1).store(device)
        make_superblock(checkpoint_seq=2).store(device)
        assert Superblock.load(device).checkpoint_seq == 2


class TestCorruption:
    def test_blank_device_rejected(self):
        device = BlockDevice(num_blocks=128, block_size=BLOCK_SIZE)
        with pytest.raises(RecoveryError, match="superblock"):
            Superblock.load(device)

    def test_bad_magic_rejected(self):
        raw = bytearray(make_superblock().to_bytes())
        raw[0] ^= 0xFF
        with pytest.raises(RecoveryError):
            Superblock.from_bytes(bytes(raw))

    def test_payload_corruption_detected_by_crc(self):
        raw = bytearray(make_superblock().to_bytes())
        raw[-1] ^= 0x01  # flip a bit inside the JSON payload
        with pytest.raises(RecoveryError, match="checksum"):
            Superblock.from_bytes(bytes(raw))

    def test_truncated_payload_detected(self):
        raw = make_superblock().to_bytes()
        with pytest.raises(RecoveryError):
            Superblock.from_bytes(raw[: len(raw) - 4])

    def test_torn_write_on_device_detected(self):
        device = BlockDevice(num_blocks=128, block_size=BLOCK_SIZE)
        make_superblock().store(device)
        raw = bytearray(device.read_block(SUPERBLOCK_BLOCK))
        raw[20] ^= 0x40
        device.write_block(SUPERBLOCK_BLOCK, bytes(raw))
        with pytest.raises(RecoveryError):
            Superblock.load(device)


class TestFormatVersions:
    def test_unknown_field_is_a_recovery_error(self):
        fields = dict(asdict(make_superblock()), future_field=1)
        with pytest.raises(RecoveryError, match="future_field"):
            Superblock.from_bytes(encode_fields(fields))

    def test_missing_field_is_a_recovery_error(self):
        fields = asdict(make_superblock())
        del fields["master_root"]
        with pytest.raises(RecoveryError, match="master_root"):
            Superblock.from_bytes(encode_fields(fields))

    def test_current_format_is_mountable(self):
        make_superblock().require_mountable(BLOCK_SIZE)

    @pytest.mark.parametrize(
        "field", ["page_blocks", "checksum_pages", "fulltext_root", "image_root",
                  "fulltext_format", "osd_format"]
    )
    def test_unserved_format_refused_naming_the_field(self, field):
        with pytest.raises(RecoveryError, match=field):
            make_superblock(**{field: 0}).require_mountable(BLOCK_SIZE)

    def test_only_page_bytes_pages_are_mountable(self):
        # The stamp counts blocks, so what it means depends on the device's.
        one_block = make_superblock(page_blocks=1)
        one_block.require_mountable(PAGE_BYTES)
        with pytest.raises(RecoveryError, match="page_blocks=1 on 512-byte blocks"):
            one_block.require_mountable(BLOCK_SIZE)
        with pytest.raises(RecoveryError, match="16384-byte btree page"):
            make_superblock(page_blocks=4).require_mountable(PAGE_BYTES)

    def test_an_image_with_the_count_rule_stamp_is_a_recovery_error(self):
        # What 16 KB count-split pages' code wrote: page_blocks=4, max_keys=32.
        fields = dict(asdict(make_superblock()), page_blocks=4, max_keys=32)
        with pytest.raises(RecoveryError, match="max_keys"):
            Superblock.from_bytes(encode_fields(fields))

    def test_an_image_without_the_fulltext_stamp_is_a_recovery_error(self):
        # What the per-posting layout's code wrote: every field but the stamp.
        fields = asdict(make_superblock())
        del fields["fulltext_format"]
        with pytest.raises(RecoveryError, match="fulltext_format"):
            Superblock.from_bytes(encode_fields(fields))

    def test_the_per_posting_fulltext_layout_is_refused(self):
        assert make_superblock().fulltext_format == 3
        with pytest.raises(RecoveryError, match="fulltext_format=1"):
            make_superblock(fulltext_format=1).require_mountable(BLOCK_SIZE)

    def test_the_eager_posting_block_layout_is_refused(self):
        # Stamp 2 trees hold no backlog records, but one format is served.
        with pytest.raises(RecoveryError, match="fulltext_format=2"):
            make_superblock(fulltext_format=2).require_mountable(BLOCK_SIZE)

    def test_an_image_with_an_extent_tree_per_object_is_refused_untouched(self):
        # What the tree-per-object layout's code wrote: metadata records
        # carrying ``extent_root`` and a superblock without ``osd_format``.
        # Mounted, it would read every object as zeros (no ``\xffE`` keys);
        # it must be refused before replay writes its journal tail home.
        from repro.core import HFADFileSystem

        device = BlockDevice(num_blocks=1 << 14)
        fs = HFADFileSystem(device=device, btree_on_device=True)
        oids = [fs.create(b"object %d" % number, path=f"/o{number}") for number in range(5)]
        master = fs.objects._master
        with fs.recovery.transaction():  # committed, never written home
            for oid in oids:
                key = oid.to_bytes(8, "big")
                record = dict(json.loads(master.get(key)), extent_root=master.root_id)
                master.put(key, json.dumps(record, sort_keys=True).encode())
        fields = asdict(Superblock.load(device))
        del fields["osd_format"]
        device.write_block(SUPERBLOCK_BLOCK, encode_fields(fields))
        before, writes = device.dump(), device.stats.writes
        with pytest.raises(RecoveryError, match="osd_format"):
            HFADFileSystem.mount(device)
        assert device.stats.writes == writes
        assert device.dump() == before
