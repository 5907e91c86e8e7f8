"""Layered benchmark of one `countyrt fit` run; see ``perfbench/run.py``."""
