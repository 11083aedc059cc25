"""Online multi-task distillation testbed.

A continuously trained teacher publishes soft labels for selected ranking
tasks into an append-only columnar store; a fleet of students trains on the
same example stream, consuming those labels through snapshot-isolated
reads. Everything is seed-deterministic end to end.
"""

__version__ = "0.1.0"
