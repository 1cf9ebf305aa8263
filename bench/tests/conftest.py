"""``pytest bench/tests`` — outside tier-1's ``testpaths`` on purpose."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import env  # noqa: E402

env.pin_threads()
env.use_checkout_sources()
