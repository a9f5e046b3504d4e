import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for entry in (ROOT, os.path.join(ROOT, "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
