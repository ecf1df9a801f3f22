"""The pivot backend's name, kept for the benchmark harness.

Its only importer is ``perfbench/run.py``, which records ``active_backend()``
in each run's environment record. The pivot loop itself lives in ``simplex``.
ROADMAP item 3 deletes this module together with that import.
"""


def active_backend() -> str:
    """Name of the pivot implementation, recorded by the benchmark harness."""
    return "numpy"
