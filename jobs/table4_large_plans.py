"""Table 4 (paper Fig 17): normalized plan cost & generation time, n = 3..22.

Planner-only — no Spark execution. DP-LD is capped at n = 22 and DP-B /
ZStream by --dp-b-max-n (the paper reports 50 h for DP-B at n = 22).

Usage: python jobs/table4_large_plans.py --plan-sizes 3 6 9 12 16 20 22
"""
import sys

sys.path.insert(0, ".")

from jobs._common import base_parser, config_from, run
from repro.experiments.tables import table4


def main() -> None:
    p = base_parser(__doc__)
    p.add_argument(
        "--plan-sizes", type=int, nargs="+", default=[3, 6, 9, 12, 14, 16, 18, 20, 22]
    )
    args = p.parse_args()
    args.n_symbols = max(args.n_symbols, max(args.plan_sizes) + 2)
    run(
        "table4", table4, config_from(args),
        sizes=tuple(args.plan_sizes), per_size=args.per_size,
    )


if __name__ == "__main__":
    main()
