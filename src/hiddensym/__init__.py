"""Hidden-symmetry verification toolkit for curved spaces.

Symbolic/numeric checks for Killing vectors, Staeckel-Killing,
Killing-Yano and conformal Killing-Yano tensors, Dirac-type operators
and their graded algebras, and mixed 3-Sasakian structures, with the
Euclidean Taub-NUT space built in.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """An input the library cannot serve: exit 2 on the command line."""
