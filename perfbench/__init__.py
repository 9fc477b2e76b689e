"""Host-clock fleet benchmark: wall-clock throughput of ``serve()``.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the entry point; see ``perfbench/README.md``.
"""
