"""Table 2 (paper Figs 6–15): throughput & memory vs pattern size.

Usage: spark-submit jobs/table2_by_size.py --sizes 3 4 5 6 7 [--categories ...]
"""
import sys

sys.path.insert(0, ".")

from jobs._common import base_parser, config_from, run
from repro.experiments.tables import table2
from repro.workloads.generator import CATEGORIES


def main() -> None:
    p = base_parser(__doc__)
    p.add_argument("--categories", nargs="+", default=list(CATEGORIES))
    args = p.parse_args()
    run("table2", table2, config_from(args, categories=tuple(args.categories)))


if __name__ == "__main__":
    main()
