"""Ladder benchmark for lrctower; see README.md."""
