"""Whole-run benchmark of the Bullet simulator (see ``perfbench/run.py``)."""
