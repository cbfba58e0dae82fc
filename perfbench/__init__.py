"""The repository's benchmark: BerlinMOD-Hanoi workloads measured end to
end and, in a separate traced run, layer by layer.  Run with
``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>``; see README.md."""
