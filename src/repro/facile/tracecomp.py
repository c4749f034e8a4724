"""Inert: the trace tier is gone, and nothing here runs.

perfbench/tracing.py still wraps ``TraceManager.promote`` by name, so
the name stays until ROADMAP item 2 removes that reference and this
module with it.
"""


class TraceManager:
    """Nothing constructs this class or calls :meth:`promote`."""

    def promote(self, entry, step: int) -> None:
        """Never called."""
