"""Reference implementations that the differential tests hold ``src/`` to.

Each module here keeps the plain, loop-per-item version of a code path
that ``src/`` now computes a faster way.  Every reference must produce
the same output as its ``src/`` counterpart.
"""
