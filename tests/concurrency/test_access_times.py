"""Access times under concurrent reads and checkpoints.

Reads record access times lazily (relatime) under a shared engine hold, so
they run beside a checkpoint's flush of those times.  The flush must neither
fail on the pending set changing under it nor forget an access recorded
while it ran: after a last checkpoint every read object's time is on the
device, and a mount of that image sees it.
"""

import sys
import threading

from repro.core import HFADFileSystem
from repro.storage import BlockDevice


def test_checkpoints_beside_reads_persist_every_access_time():
    fs = HFADFileSystem(num_blocks=1 << 14)
    oids = [fs.create(b"object %d" % i, index_content=False) for i in range(300)]
    fs.checkpoint()
    passes, checkpoints = 6, [0]
    errors, lost, marker = [], [], [0]
    reading = threading.Event()

    def read_pass() -> list:
        # A created object's time is persisted by its own transaction:
        # every read of the pass after it is later, in read order.
        marker[0] = fs.stat(fs.create(b"", index_content=False)).created_at
        for oid in oids:
            fs.read(oid)
            reading.set()
        return [fs.stat(oid).accessed_at for oid in oids]

    def reader():
        try:
            for _ in range(passes):
                times = read_pass()
                if not marker[0] < times[0] or times != sorted(set(times)):
                    lost.append(times)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def checkpointer():
        reading.wait(10)
        try:
            while thread.is_alive():
                fs.checkpoint()
                checkpoints[0] += 1
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=reader)
        flusher = threading.Thread(target=checkpointer)
        thread.start()
        flusher.start()
        thread.join(120)
        flusher.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive() and not flusher.is_alive()
    assert errors == []
    assert lost == []  # an access time a flush dropped unpersisted
    assert checkpoints[0] >= 1
    fs.checkpoint()
    image = BlockDevice(num_blocks=fs.device.num_blocks)
    image.load(fs.device.dump())
    mounted = HFADFileSystem.mount(image)
    # The last pass read the objects in order, each at a later tick.
    times = [mounted.stat(oid).accessed_at for oid in oids]
    assert marker[0] < times[0]
    assert times == sorted(set(times))
    mounted.close()
    fs.close()
