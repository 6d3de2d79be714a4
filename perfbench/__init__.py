"""Closed-loop benchmark for tractable-dyn; see README.md."""
