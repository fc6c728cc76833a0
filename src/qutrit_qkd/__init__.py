"""Entanglement-based quantum key distribution with three-level systems.

Modules
-------
linalg     qutrit-pair states, measurement bases, Born-rule probabilities
bell       the three-dimensional Bell parameter S3 and settings optimization
protocol   seeded two-party protocol sessions, sifting, estimation, verdicts
transcript the transcript file of a session's rounds, written and read
reconcile  parity-block error reduction over trit keys
trits      trit arrays, their text form and key files
tritcrypt  27-symbol codec and the digitwise mod-3 one-time pad
cli        command-line front end (``qutrit-qkd``)
"""

from . import bell, linalg, protocol, reconcile, transcript, trits, tritcrypt

__version__ = "0.1.0"
