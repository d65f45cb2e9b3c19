"""The repo benchmark; run it with ``python3 perfbench/run.py`` (see README.md)."""
