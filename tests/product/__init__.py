"""The 2^N product-basis engine, kept as a small-N test oracle.

`subrad` runs every path on two Tavis-Cummings ladders.  These
modules hold the same physics on the full product basis of N atoms and one
Fock mode, with no symmetry assumed, and the tests compare the two.  They
mirror the package's layout: `hilbert` (basis and states), `model`
(operators), `dynamics` (propagator and readouts), `perturb` (second-order
matrix, exact-vs-slow comparison) and `protocol` (phase gate, dark weight).
"""
