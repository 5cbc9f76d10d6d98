"""Table 5 (paper Fig 18): throughput vs latency for α ∈ {0, 0.5, 1}.

Usage: spark-submit jobs/table5_latency.py [--alphas 0 0.5 1]
"""
import sys

sys.path.insert(0, ".")

from jobs._common import base_parser, config_from, run
from repro.experiments.tables import JQPG_ALGS, table5


def main() -> None:
    p = base_parser(__doc__)
    p.add_argument("--alphas", type=float, nargs="+", default=[0.0, 0.5, 1.0])
    args = p.parse_args()
    run(
        "table5", table5, config_from(args, categories=("sequence",), algorithms=JQPG_ALGS),
        alphas=tuple(args.alphas),
    )


if __name__ == "__main__":
    main()
