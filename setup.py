"""Legacy setup shim.

The canonical build configuration lives in ``pyproject.toml``; this file
exists so the package can be installed in environments without the ``wheel``
package (offline editable installs fall back to ``setup.py develop``).

NumPy is a required runtime dependency: ``repro.automata.dfa``, the
engine layer, the ``numpy`` block-simulation backend
(``repro.automata.block``) and the Monte-Carlo word draw all import it, so
the library does not import without it.  The pinned range spans the
releases whose ``packbits``/``unpackbits`` ``bitorder`` semantics and
fancy-indexing behaviour the engine relies on, capped below the next major
to guard against API breaks.
"""

from setuptools import setup

setup(
    install_requires=[
        "numpy>=1.22,<3",
    ],
)
