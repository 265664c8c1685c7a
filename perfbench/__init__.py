"""Benchmark of the presto_bloomfilter_ray sketch engine; see run.py."""
