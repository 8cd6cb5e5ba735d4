"""Empty stub: perfbench/tracer.py imports every module named in its MODULES tuple, this one included, so deleting it would break --trace 1."""
