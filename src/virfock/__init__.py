"""Exact-arithmetic engine for free-field and constrained Virasoro Fock modules."""
