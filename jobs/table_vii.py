"""Reproduce Table VII: clustering purity on ASF & CA (k-means truth vs
clusters after imputation; "Missing" = discard incomplete tuples) and
5-fold classification F1 on MAM & HEP with real missing values (ibk
with Weka-style missing-distance as the no-imputation baseline).

    spark-submit jobs/table_vii.py [--scale tiny|small|full]
"""
import argparse

from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="full", choices=["tiny", "small", "full"])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    from repro.eval.apps import table_vii
    from repro.eval.harness import SCALES

    spark = get_spark("table_vii")
    try:
        t = table_vii(spark, scale_sizes=SCALES[args.scale], seed=args.seed)
        print(f"\n=== Table VII (scale={args.scale}) ===")
        print(t.to_string(index=False))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
