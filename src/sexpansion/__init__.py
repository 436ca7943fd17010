"""Semigroup expansions of Lie algebras, invariant tensor lifting, and
Chern-Simons Lagrangians by exact component expansion."""
