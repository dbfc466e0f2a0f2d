"""End-to-end and per-layer benchmark of DNN-occu serving (see run.py)."""
