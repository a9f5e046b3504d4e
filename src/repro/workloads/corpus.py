"""Synthetic corpora: photos, mail and documents with cross-cutting tags.

Everything is generated from a seeded :class:`random.Random`, so tests and
benchmarks are reproducible.  Content sizes are kept modest (hundreds of
bytes to tens of kilobytes) — the experiments measure index and namespace
behaviour, not raw bandwidth — but the *shape* matches the paper's
motivation: many items, few natural hierarchies, many attributes that cut
across any one directory layout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.filesystem import HFADFileSystem
from repro.hierarchical.ffs import FFSFileSystem
from repro.index.tags import TagValue

PEOPLE = ["margo", "nick", "alice", "bob", "carol", "dave", "erin", "frank"]
PLACES = ["grand-canyon", "paris", "boston", "beach", "yosemite", "kyoto", "home", "office"]
CAMERAS = ["nikon-d90", "canon-5d", "iphone-3gs", "powershot"]
YEARS = [2005, 2006, 2007, 2008, 2009]
PROJECTS = ["hfad", "apollo", "budget", "thesis", "website"]
DOC_TYPES = ["report", "spreadsheet", "slides", "notes"]
MAIL_FOLDERS = ["inbox", "sent", "travel", "receipts", "lists"]

_CAPTION_WORDS = (
    "sunset hike dinner family birthday snow museum conference sailing "
    "wedding garden concert marathon reunion lecture picnic skyline harbor"
).split()

_BODY_WORDS = (
    "budget quarterly review meeting agenda draft revision deadline summary "
    "analysis proposal experiment results architecture design index storage "
    "namespace search hierarchy object tag attribute query performance"
).split()


@dataclass
class SyntheticFile:
    """One corpus item, loadable into either file system."""

    #: canonical path in the hierarchical layout (also its hFAD POSIX name).
    path: str
    content: bytes
    owner: str
    application: str
    #: attribute tags beyond USER/APP (tag, value) pairs.
    tags: List[Tuple[str, str]] = field(default_factory=list)
    #: manual annotations (UDEF values).
    annotations: List[str] = field(default_factory=list)
    #: colour histogram for image items (None otherwise).
    histogram: Optional[List[float]] = None

    @property
    def kind(self) -> str:
        return dict(self.tags).get("KIND", "file")


def _caption(rng: random.Random, people: Sequence[str], place: str, extra: Sequence[str] = ()) -> str:
    words = [rng.choice(_CAPTION_WORDS) for _ in range(rng.randint(4, 9))]
    return " ".join(list(people) + [place] + words + list(extra))


def photo_corpus(count: int = 200, seed: int = 7) -> List[SyntheticFile]:
    """Photos: canonical layout by year/event, attributes that cut across it."""
    rng = random.Random(seed)
    files: List[SyntheticFile] = []
    for index in range(count):
        year = rng.choice(YEARS)
        place = rng.choice(PLACES)
        people = sorted(rng.sample(PEOPLE, rng.randint(1, 3)))
        camera = rng.choice(CAMERAS)
        owner = people[0]
        caption = _caption(rng, people, place)
        # A synthetic "image": caption text (what an EXIF/sidecar indexer sees)
        # plus incompressible-ish payload standing in for pixels.
        payload = caption.encode() + b"\n" + bytes(rng.getrandbits(8) for _ in range(rng.randint(512, 4096)))
        histogram = [rng.random() for _ in range(8)]
        dominant = rng.randrange(8)
        histogram[dominant] += 4.0
        event = f"{place}-{year}"
        path = f"/photos/{year}/{event}/img{index:05d}.jpg"
        tags = [("KIND", "photo"), ("PLACE", place), ("YEAR", str(year)), ("CAMERA", camera)]
        tags.extend(("PERSON", person) for person in people)
        files.append(
            SyntheticFile(
                path=path,
                content=payload,
                owner=owner,
                application="iphoto",
                tags=tags,
                annotations=[place, f"trip-{year}"] if rng.random() < 0.5 else [place],
                histogram=histogram,
            )
        )
    return files


def mail_corpus(count: int = 200, seed: int = 11) -> List[SyntheticFile]:
    """Mail messages filed into folders, with senders and subjects."""
    rng = random.Random(seed)
    files: List[SyntheticFile] = []
    for index in range(count):
        sender = rng.choice(PEOPLE)
        recipient = rng.choice([person for person in PEOPLE if person != sender])
        folder = rng.choice(MAIL_FOLDERS)
        subject_words = [rng.choice(_BODY_WORDS) for _ in range(rng.randint(2, 5))]
        body_words = [rng.choice(_BODY_WORDS) for _ in range(rng.randint(30, 120))]
        content = (
            f"From: {sender}\nTo: {recipient}\nSubject: {' '.join(subject_words)}\n\n"
            + " ".join(body_words)
        ).encode()
        path = f"/home/{recipient}/mail/{folder}/msg{index:05d}.eml"
        files.append(
            SyntheticFile(
                path=path,
                content=content,
                owner=recipient,
                application="mailer",
                tags=[("KIND", "mail"), ("SENDER", sender), ("FOLDER", folder)],
                annotations=["flagged"] if rng.random() < 0.1 else [],
            )
        )
    return files


def document_corpus(count: int = 100, seed: int = 13) -> List[SyntheticFile]:
    """Office documents organized by project, with substantial body text."""
    rng = random.Random(seed)
    files: List[SyntheticFile] = []
    for index in range(count):
        project = rng.choice(PROJECTS)
        doc_type = rng.choice(DOC_TYPES)
        owner = rng.choice(PEOPLE)
        body_words = [rng.choice(_BODY_WORDS) for _ in range(rng.randint(100, 400))]
        content = (f"{project} {doc_type}\n" + " ".join(body_words)).encode()
        path = f"/home/{owner}/documents/{project}/{doc_type}{index:04d}.doc"
        files.append(
            SyntheticFile(
                path=path,
                content=content,
                owner=owner,
                application=rng.choice(["word", "excel", "latex"]),
                tags=[("KIND", "document"), ("PROJECT", project), ("DOCTYPE", doc_type)],
                annotations=["draft"] if rng.random() < 0.3 else [],
            )
        )
    return files


def mixed_corpus(
    photos: int = 150, mails: int = 150, documents: int = 75, seed: int = 17
) -> List[SyntheticFile]:
    """A home-directory-shaped mixture of all three corpora."""
    files = (
        photo_corpus(photos, seed=seed)
        + mail_corpus(mails, seed=seed + 1)
        + document_corpus(documents, seed=seed + 2)
    )
    rng = random.Random(seed + 3)
    rng.shuffle(files)
    return files


# ---------------------------------------------------------------------------
# loading corpora into the two systems
# ---------------------------------------------------------------------------


def load_into_hfad(
    fs: HFADFileSystem, files: Sequence[SyntheticFile], index_content: bool = True
) -> Dict[str, int]:
    """Create every corpus item in hFAD; returns path → object id."""
    oid_by_path: Dict[str, int] = {}
    for item in files:
        oid = fs.create(
            item.content,
            path=item.path,
            owner=item.owner,
            application=item.application,
            annotations=item.annotations,
            tags=[TagValue(tag, value) for tag, value in item.tags],
            index_content=index_content,
        )
        if item.histogram is not None:
            fs.index_image(oid, item.histogram)
        oid_by_path[item.path] = oid
    return oid_by_path


def load_into_ffs(fs: FFSFileSystem, files: Sequence[SyntheticFile]) -> int:
    """Create every corpus item (and its directories) in the FFS baseline."""
    created = 0
    for item in files:
        parent = item.path.rsplit("/", 1)[0] or "/"
        fs.makedirs(parent)
        fs.create(item.path, item.content, owner=item.owner)
        created += 1
    return created
