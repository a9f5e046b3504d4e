"""Tests for the POSIX VFS veneer."""

import pytest

from repro.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.posix import PosixVFS
from repro.posix.vfs import O_APPEND, O_CREAT, O_EXCL, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY


@pytest.fixture
def vfs():
    instance = PosixVFS()
    yield instance
    instance.fs.close()


class TestOpenCloseReadWrite:
    def test_create_write_read(self, vfs):
        fd = vfs.open("/hello.txt", O_CREAT | O_WRONLY)
        assert vfs.write(fd, b"hello posix") == 11
        vfs.close(fd)
        fd = vfs.open("/hello.txt", O_RDONLY)
        assert vfs.read(fd) == b"hello posix"
        vfs.close(fd)
        assert vfs.open_descriptors == 0

    def test_open_missing_without_creat(self, vfs):
        with pytest.raises(FileNotFound):
            vfs.open("/nope.txt")

    def test_o_excl(self, vfs):
        vfs.write_file("/exists.txt", b"x")
        with pytest.raises(FileExists):
            vfs.open("/exists.txt", O_CREAT | O_EXCL | O_WRONLY)

    def test_o_trunc(self, vfs):
        vfs.write_file("/t.txt", b"long old contents")
        fd = vfs.open("/t.txt", O_WRONLY | O_TRUNC)
        vfs.write(fd, b"new")
        vfs.close(fd)
        assert vfs.read_file("/t.txt") == b"new"

    def test_o_append(self, vfs):
        vfs.write_file("/log.txt", b"line1\n")
        fd = vfs.open("/log.txt", O_WRONLY | O_APPEND)
        vfs.write(fd, b"line2\n")
        vfs.close(fd)
        assert vfs.read_file("/log.txt") == b"line1\nline2\n"

    def test_read_only_fd_cannot_write(self, vfs):
        vfs.write_file("/r.txt", b"x")
        fd = vfs.open("/r.txt", O_RDONLY)
        with pytest.raises(InvalidArgument):
            vfs.write(fd, b"y")
        vfs.close(fd)

    def test_write_only_fd_cannot_read(self, vfs):
        fd = vfs.open("/w.txt", O_CREAT | O_WRONLY)
        with pytest.raises(InvalidArgument):
            vfs.read(fd)
        vfs.close(fd)

    def test_bad_fd(self, vfs):
        with pytest.raises(BadFileDescriptor):
            vfs.read(99)
        with pytest.raises(BadFileDescriptor):
            vfs.close(99)

    def test_creat_creates_parent_check(self, vfs):
        with pytest.raises(FileNotFound):
            vfs.open("/no/such/dir/file.txt", O_CREAT | O_WRONLY)

    def test_opening_directory_for_write_rejected(self, vfs):
        vfs.mkdir("/dir")
        with pytest.raises(IsADirectory):
            vfs.open("/dir", O_WRONLY)

    def test_pread_pwrite(self, vfs):
        fd = vfs.open("/p.txt", O_CREAT | O_RDWR)
        vfs.pwrite(fd, b"0123456789", 0)
        assert vfs.pread(fd, 4, 3) == b"3456"
        vfs.pwrite(fd, b"XY", 2)
        assert vfs.pread(fd, 10, 0) == b"01XY456789"
        vfs.close(fd)

    def test_lseek(self, vfs):
        fd = vfs.open("/s.txt", O_CREAT | O_RDWR)
        vfs.write(fd, b"0123456789")
        assert vfs.lseek(fd, 2) == 2
        assert vfs.read(fd, 3) == b"234"
        assert vfs.lseek(fd, -2, 2) == 8
        assert vfs.read(fd) == b"89"
        assert vfs.lseek(fd, 1, 1) == 11
        with pytest.raises(InvalidArgument):
            vfs.lseek(fd, -100)
        with pytest.raises(InvalidArgument):
            vfs.lseek(fd, 0, 7)
        vfs.close(fd)

    def test_truncate_and_ftruncate(self, vfs):
        vfs.write_file("/tr.txt", b"0123456789")
        vfs.truncate("/tr.txt", 4)
        assert vfs.read_file("/tr.txt") == b"0123"
        fd = vfs.open("/tr.txt", O_RDWR)
        vfs.ftruncate(fd, 2)
        vfs.close(fd)
        assert vfs.read_file("/tr.txt") == b"01"
        vfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            vfs.truncate("/d", 0)

    def test_truncation_reindexes_the_content(self, vfs):
        vfs.write_file("/words.txt", b"alpha bravo charlie")
        oid = vfs.fs.lookup_path("/words.txt")
        fd = vfs.open("/words.txt", O_RDWR)
        vfs.ftruncate(fd, 5)
        vfs.close(fd)
        assert vfs.fs.search_text("charlie") == []
        assert vfs.fs.search_text("alpha") == [oid]
        vfs.truncate("/words.txt", 2)
        assert vfs.fs.search_text("alpha") == []


class TestDirectories:
    def test_mkdir_and_readdir(self, vfs):
        vfs.mkdir("/home")
        vfs.mkdir("/home/margo")
        vfs.write_file("/home/margo/mail.mbox", b"...")
        entries = vfs.readdir("/home/margo")
        assert [entry.name for entry in entries] == ["mail.mbox"]
        assert not entries[0].is_directory
        home_entries = vfs.readdir("/home")
        assert [entry.name for entry in home_entries] == ["margo"]
        assert home_entries[0].is_directory

    def test_mkdir_existing_rejected(self, vfs):
        vfs.mkdir("/dir")
        with pytest.raises(FileExists):
            vfs.mkdir("/dir")

    def test_mkdir_without_parent_rejected(self, vfs):
        with pytest.raises(FileNotFound):
            vfs.mkdir("/a/b/c")

    def test_makedirs(self, vfs):
        vfs.makedirs("/a/b/c")
        assert vfs.stat("/a/b/c").is_directory
        vfs.makedirs("/a/b/c")  # idempotent

    def test_mkdir_under_file_rejected(self, vfs):
        vfs.write_file("/file", b"x")
        with pytest.raises(NotADirectory):
            vfs.mkdir("/file/sub")

    def test_rmdir(self, vfs):
        vfs.mkdir("/empty")
        vfs.rmdir("/empty")
        assert not vfs.exists("/empty")

    def test_rmdir_non_empty_rejected(self, vfs):
        vfs.mkdir("/full")
        vfs.write_file("/full/file", b"x")
        with pytest.raises(DirectoryNotEmpty):
            vfs.rmdir("/full")

    def test_rmdir_on_file_and_root(self, vfs):
        vfs.write_file("/f", b"x")
        with pytest.raises(NotADirectory):
            vfs.rmdir("/f")
        with pytest.raises(InvalidArgument):
            vfs.rmdir("/")

    def test_readdir_on_file_rejected(self, vfs):
        vfs.write_file("/f", b"x")
        with pytest.raises(NotADirectory):
            vfs.readdir("/f")

    def test_readdir_missing(self, vfs):
        with pytest.raises(FileNotFound):
            vfs.readdir("/missing")


class TestLinkUnlinkRename:
    def test_unlink_removes_file(self, vfs):
        vfs.write_file("/gone.txt", b"x")
        vfs.unlink("/gone.txt")
        assert not vfs.exists("/gone.txt")
        with pytest.raises(FileNotFound):
            vfs.unlink("/gone.txt")

    def test_unlink_directory_rejected(self, vfs):
        vfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            vfs.unlink("/d")

    def test_hard_link_shares_object(self, vfs):
        vfs.write_file("/original.txt", b"shared content")
        vfs.link("/original.txt", "/alias.txt")
        assert vfs.read_file("/alias.txt") == b"shared content"
        assert vfs.stat("/alias.txt").oid == vfs.stat("/original.txt").oid
        assert vfs.stat("/original.txt").nlink == 2
        # Removing one name keeps the object alive under the other.
        vfs.unlink("/original.txt")
        assert vfs.read_file("/alias.txt") == b"shared content"

    def test_link_errors(self, vfs):
        vfs.write_file("/a", b"x")
        vfs.write_file("/b", b"y")
        with pytest.raises(FileExists):
            vfs.link("/a", "/b")
        vfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            vfs.link("/d", "/d2")
        with pytest.raises(FileNotFound):
            vfs.link("/missing", "/m2")

    def test_rename_file(self, vfs):
        vfs.write_file("/old.txt", b"data")
        vfs.rename("/old.txt", "/new.txt")
        assert not vfs.exists("/old.txt")
        assert vfs.read_file("/new.txt") == b"data"

    def test_rename_overwrites_existing_file(self, vfs):
        vfs.write_file("/src", b"new")
        vfs.write_file("/dst", b"old")
        vfs.rename("/src", "/dst")
        assert vfs.read_file("/dst") == b"new"
        assert not vfs.exists("/src")

    def test_rename_directory_subtree(self, vfs):
        vfs.makedirs("/projects/hfad/figures")
        vfs.write_file("/projects/hfad/paper.tex", b"\\documentclass...")
        vfs.write_file("/projects/hfad/figures/arch.pdf", b"%PDF")
        vfs.mkdir("/archive")
        vfs.rename("/projects/hfad", "/archive/hfad")
        assert vfs.read_file("/archive/hfad/paper.tex").startswith(b"\\document")
        assert vfs.exists("/archive/hfad/figures/arch.pdf")
        assert not vfs.exists("/projects/hfad/paper.tex")

    def test_rename_onto_empty_directory(self, vfs):
        vfs.mkdir("/src_dir")
        vfs.mkdir("/dst_dir")
        vfs.rename("/src_dir", "/dst_dir")
        assert vfs.stat("/dst_dir").is_directory

    def test_rename_onto_populated_directory_rejected(self, vfs):
        vfs.mkdir("/src_dir")
        vfs.mkdir("/dst_dir")
        vfs.write_file("/dst_dir/occupant", b"x")
        with pytest.raises(DirectoryNotEmpty):
            vfs.rename("/src_dir", "/dst_dir")

    def test_rename_missing_source(self, vfs):
        with pytest.raises(FileNotFound):
            vfs.rename("/missing", "/elsewhere")


class TestStatAndMetadata:
    def test_stat_fields(self, vfs):
        vfs.write_file("/file.txt", b"12345", owner="margo")
        result = vfs.stat("/file.txt")
        assert result.size == 5
        assert result.owner == "margo"
        assert not result.is_directory
        assert result.nlink == 1
        assert vfs.stat("/").is_directory

    def test_fstat(self, vfs):
        fd = vfs.open("/f.txt", O_CREAT | O_WRONLY)
        vfs.write(fd, b"abc")
        assert vfs.fstat(fd).size == 3
        vfs.close(fd)

    def test_chmod_chown(self, vfs):
        vfs.write_file("/f", b"x")
        vfs.chmod("/f", 0o400)
        vfs.chown("/f", "nick", "students")
        result = vfs.stat("/f")
        assert result.mode == 0o400
        assert (result.owner, result.group) == ("nick", "students")

    def test_stat_missing(self, vfs):
        with pytest.raises(FileNotFound):
            vfs.stat("/missing")


class TestSearchIntegration:
    def test_posix_files_are_searchable_by_content(self, vfs):
        vfs.mkdir("/home")
        vfs.write_file("/home/notes.txt", b"meeting about the hfad budget")
        # POSIX writes go through the same indexing pipeline as native creates.
        oid = vfs.fs.lookup_path("/home/notes.txt")
        assert vfs.fs.search_text("hfad budget") == [oid]

    def test_walk(self, vfs):
        vfs.makedirs("/a/b")
        vfs.write_file("/a/b/c.txt", b"x")
        paths = vfs.walk("/a")
        assert "/a/b/c.txt" in paths
        assert "/a/b" in paths

    def test_wrapping_existing_filesystem(self):
        from repro.core import HFADFileSystem

        with HFADFileSystem() as fs:
            native_oid = fs.create(b"native object", path="/pre-existing")
            vfs = PosixVFS(fs)
            assert vfs.read_file("/pre-existing") == b"native object"
            assert vfs.stat("/pre-existing").oid == native_oid
