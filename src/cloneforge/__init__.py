"""Optimal cloning of two non-orthogonal qubit states.

The package computes closed-form fidelity/probability bounds for M -> N
cloning of a two-state family, builds the gates and networks that attain
them, simulates those networks by exact projection, and decomposes every
two-qubit gate into CNOTs plus single-qubit rotations.

Conventions (binding everywhere): the family is
cos(theta)|+> +/- sin(theta)|->, with |+> mapped to bit 0 and |-> to bit 1;
qubit 0 is the most significant bit of a basis index; CNOTs are active when
the control is |+>; the heralding ancilla is the last qubit and a run keeps
the branch where it reads |+>.

Names are imported from the submodules: ``bounds`` (the closed forms, which
need only the standard library), ``gates``, ``linalg``, ``networks``,
``verify`` and ``cli``.  Importing the package itself loads none of them, so
the closed forms load without numpy.
"""

__version__ = "0.1.0"
