"""End-to-end and per-layer benchmark of the sweep stack (see README.md)."""
