"""An object's full-text document, and the queries that read it, analyzed once.

The light stemmer is not idempotent (``meetings`` -> ``meeting`` -> ``meet``,
``buildings`` -> ``building`` -> ``build``), so a query value analyzed twice,
or a stored stem analyzed again, names a term the index never held.  Queries pass
each token as written and the index analyzes it once.  An object's postings
are one document derived from its ground truth: its content when it is
content-indexed, then the value of each durable ``FULLTEXT/...`` name.
"""

import pytest

from repro.core import HFADFileSystem
from repro.semantic import RefinementSession
from repro.serve import Client, ServeConfig, serve_in_thread
from repro.storage import BlockDevice

MEETINGS = b"meetings about buildings"
PHRASES = b"the buildings and the buildings again near ceilings"


@pytest.fixture()
def fs():
    fs = HFADFileSystem()
    yield fs
    fs.close()


class TestQueriesAnalyzeOnce:
    def test_search_text(self, fs):
        oid = fs.create(MEETINGS)
        assert fs.find(("FULLTEXT", "buildings")) == [oid]
        assert fs.search_text("buildings") == [oid]
        assert fs.search_text("meetings buildings") == [oid]
        assert fs.search_text("Ceilings") == []

    def test_cd_text(self, fs):
        oid = fs.create(MEETINGS)
        session = RefinementSession(fs)
        assert session.cd_text("meetings") == [oid]
        assert session.cd_text("the buildings") == [oid]

    def test_search_phrase(self, fs):
        oid = fs.create(PHRASES)
        index = fs.fulltext_index.index
        assert index.search_phrase("near ceilings") == [oid]
        assert index.search_phrase("buildings again") == [oid]
        assert index.search_phrase("ceilings near") == []

    def test_served_search_with_and_without_a_scope(self, fs, tmp_path):
        handle = serve_in_thread(fs, ServeConfig(unix_path=str(tmp_path / "s.sock")))

        def on_loop():
            return handle.server.counters["answered_on_loop"]

        try:
            with Client(handle.address) as client:
                oid = client.create(MEETINGS, owner="margo")
                client.create(b"no match here", owner="margo")
                for scope in (None, "USER/margo"):
                    if scope:
                        client.cd(scope)
                    assert client.search("meetings Buildings") == [oid]
                    answered = on_loop()
                    # The probe asks what the worker asked: the memo answers.
                    assert client.search("meetings Buildings") == [oid]
                    assert on_loop() == answered + 1
        finally:
            handle.stop()


def test_a_singular_ending_in_ss_meets_its_plural(fs):
    # The stemmer keeps a final ``ss``: ``glass`` and ``glasses`` are one
    # term (``glas`` and ``glass`` under the old rules), and so are ``boss``
    # and ``bosses``.
    plural = fs.create(b"glasses")
    singular = fs.create(b"glass")
    assert fs.search_text("glass") == [plural, singular]
    assert fs.search_text("glasses") == [plural, singular]
    bosses = fs.create(b"bosses")
    boss = fs.create(b"the boss")
    assert fs.search_text("boss") == [bosses, boss]
    assert fs.search_text("bosses") == [bosses, boss]


class TestFulltextNames:
    def test_a_keyword_given_at_create_is_found(self, fs):
        oid = fs.create(b"alpha beta", tags=["FULLTEXT/kw"])
        assert fs.find(("FULLTEXT", "kw")) == [oid]
        assert fs.find(("FULLTEXT", "alpha")) == [oid]
        assert fs.fsck()["errors"] == []

    def test_a_keyword_leaves_the_other_terms_alone(self, fs):
        oid = fs.create(PHRASES)
        index = fs.fulltext_index.index
        before = index._read_doc(oid)[1]
        fs.tag(oid, "FULLTEXT", "extra")
        after = index._read_doc(oid)[1]
        assert after == {**before, "extra": (8,)}  # tf and positions kept
        for word in ("ceilings", "buildings", "extra"):
            assert fs.find(("FULLTEXT", word)) == [oid]

    def test_a_keyword_survives_a_content_write_and_untags(self, fs):
        oid = fs.create(b"some content")
        fs.tag(oid, "FULLTEXT", "keyword")
        fs.append(oid, b" more")
        assert fs.find(("FULLTEXT", "keyword")) == [oid]
        assert fs.find(("FULLTEXT", "more")) == [oid]
        assert fs.untag(oid, "FULLTEXT", "keyword") is True
        assert fs.find(("FULLTEXT", "keyword")) == []
        assert "FULLTEXT/keyword" not in fs.objects.names(oid)
        assert fs.untag(oid, "FULLTEXT", "keyword") is False
        assert fs.find(("FULLTEXT", "content")) == [oid]

    def test_a_keyword_outlives_content_indexing(self, fs):
        oid = fs.create(b"indexed words", tags=["FULLTEXT/keyword"])
        fs.disable_content_indexing(oid)
        assert fs.find(("FULLTEXT", "keyword")) == [oid]
        assert fs.find(("FULLTEXT", "words")) == []
        fs.enable_content_indexing(oid)
        assert fs.find(("FULLTEXT", "words")) == [oid]
        fs.untag(oid, "FULLTEXT", "keyword")
        fs.disable_content_indexing(oid)
        assert oid not in fs.fulltext_index.index

    def test_keywords_survive_a_remount(self):
        device = BlockDevice(num_blocks=1 << 14)
        fs = HFADFileSystem(device=device)
        oid = fs.create(b"body text", tags=["FULLTEXT/kw"])
        fs.append(oid, b" tail")
        fs.close()
        mounted = HFADFileSystem.mount(device)
        assert mounted.find(("FULLTEXT", "kw")) == [oid]
        assert mounted.find(("FULLTEXT", "tail")) == [oid]
        mounted.close()

    def test_healthy_and_degraded_answers_agree_on_a_keyword(self):
        device = BlockDevice(num_blocks=1 << 14)
        fs = HFADFileSystem(device=device, query_cache_entries=0)
        tagged = fs.create(b"shared words", tags=["FULLTEXT/keyword"])
        fs.create(b"shared words")
        later = fs.create(b"other words")
        fs.tag(later, "FULLTEXT", "keyword")
        fs.append(later, b" appended")
        healthy = [fs.find(("FULLTEXT", value)) for value in ("keyword", "shared", "appended")]
        assert healthy[0] == [tagged, later]
        fs.checkpoint()
        fs._fulltext_tree.store._consumer.drop_all(write_back=True)
        device.flip_bit(fs._fulltext_tree.root_id, 40)
        assert fs.scrub().quarantined == 1
        before = fs.stats()["integrity"]["degraded_queries"]
        degraded = [fs.find(("FULLTEXT", value)) for value in ("keyword", "shared", "appended")]
        assert fs.stats()["integrity"]["degraded_queries"] == before + 3
        assert degraded == healthy
        fs.close()
