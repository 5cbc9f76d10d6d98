"""Table 6 (paper Fig 19): throughput per event selection strategy.

Runs the event engine (lazy NFA / instance trees via applyInPandas) under
skip-till-any-match, skip-till-next-match, and contiguity.

Usage: spark-submit jobs/table6_selection_strategies.py
"""
import sys

sys.path.insert(0, ".")

from jobs._common import base_parser, config_from, run
from repro.experiments.tables import table6


def main() -> None:
    p = base_parser(__doc__)
    p.add_argument(
        "--strategies", nargs="+", default=["any", "next", "contiguity"]
    )
    args = p.parse_args()
    run(
        "table6", table6, config_from(args, categories=("sequence",)),
        strategies=tuple(args.strategies),
    )


if __name__ == "__main__":
    main()
