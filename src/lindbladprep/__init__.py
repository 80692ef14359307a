"""Single-ancilla dissipative ground-state preparation: simulator and checks."""

__version__ = "0.1.0"
