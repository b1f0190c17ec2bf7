"""End-to-end host-time benchmark of the ``repro`` facade (``run.py``)."""
