"""Outside-in benchmark harness for the ``repro`` package.

The harness drives the public Python API of ``src/repro`` from a single
process, checks every output, and reports end-to-end metrics (untraced
runs) or per-layer metrics (traced runs).  See ``perfbench/README.md``.
"""
