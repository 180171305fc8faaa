"""Empty: the real field <-> psi transform that lived here served no
command, criterion or workload and was deleted.  The module stays only
because `perfbench/tracing.py` imports it by name to trace it; the
change to the benchmark that drops that import deletes this file too.
"""
