"""Table 3 (paper Fig 16): measured throughput & memory vs plan cost.

Usage: spark-submit jobs/table3_cost_validation.py
"""
import sys

sys.path.insert(0, ".")

from jobs._common import base_parser, config_from, run
from repro.experiments.tables import table3


def main() -> None:
    args = base_parser(__doc__).parse_args()
    run("table3", table3, config_from(args, categories=("sequence", "conjunction")))


if __name__ == "__main__":
    main()
