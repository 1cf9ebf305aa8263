"""Self-contained performance benchmark of the ``repro`` package.

See ``bench/README.md``.  Nothing under ``src/`` imports this package.
"""
