"""Table 1 (paper Figs 4–5): avg throughput & memory per category × algorithm.

Usage: spark-submit jobs/table1_throughput_memory.py [--sizes 3 4 5 ...]
"""
import sys

sys.path.insert(0, ".")  # allow running from the repo root without install

from jobs._common import base_parser, config_from, run
from repro.experiments.tables import table1


def main() -> None:
    run("table1", table1, config_from(base_parser(__doc__).parse_args()))


if __name__ == "__main__":
    main()
