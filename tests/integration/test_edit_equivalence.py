"""Property tests tying the two systems' edit semantics to one reference model.

hFAD's ``insert``/``remove_range`` and the baseline's rewrite-based
equivalents must implement the *same* byte-level semantics (only their costs
differ — that is experiment E3).  Hypothesis drives both against a bytearray
model, and compaction must never change observable contents.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HFADFileSystem
from repro.hierarchical import FFSFileSystem


@st.composite
def edit_scripts(draw):
    operations = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["insert", "remove"]))
        offset = draw(st.integers(0, 4000))
        data = draw(st.binary(min_size=1, max_size=600))
        length = draw(st.integers(1, 1500))
        operations.append((kind, offset, data, length))
    return operations


class TestEditEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=3000), edit_scripts())
    def test_hfad_and_ffs_edits_match_the_model(self, initial, script):
        model = bytearray(initial)
        hfad = HFADFileSystem(num_blocks=1 << 15)
        oid = hfad.create(bytes(initial), index_content=False)
        ffs = FFSFileSystem(num_blocks=1 << 15)
        ffs.create("/victim", bytes(initial))
        try:
            for kind, offset, data, length in script:
                if kind == "insert":
                    offset = min(offset, len(model))
                    model[offset:offset] = data
                    hfad.insert(oid, offset, data)
                    ffs.insert_via_rewrite("/victim", offset, data)
                else:
                    end = min(offset + length, len(model))
                    if offset < len(model):
                        del model[offset:end]
                    hfad.truncate(oid, offset, length)
                    ffs.remove_range_via_rewrite("/victim", offset, length)
                assert hfad.read(oid) == bytes(model)
                assert ffs.read("/victim") == bytes(model)
        finally:
            hfad.close()

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=3000), edit_scripts())
    def test_compaction_never_changes_contents(self, initial, script):
        store = HFADFileSystem().objects
        oid = store.create()
        if initial:
            store.write(oid, 0, initial)
        for kind, offset, data, length in script:
            if kind == "insert":
                store.insert(oid, min(offset, store.size(oid)), data)
            else:
                store.remove_range(oid, offset, length)
        before = store.read(oid)
        extents_before = store.extent_count(oid)
        store.compact(oid)
        assert store.read(oid) == before
        assert store.extent_count(oid) <= max(1, extents_before)
        store.check_object(oid)
