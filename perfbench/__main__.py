"""``python -m perfbench ...`` is ``python perfbench/run.py ...``."""

import sys

from perfbench.run import main, pin_hash_seed

pin_hash_seed()
sys.exit(main())
