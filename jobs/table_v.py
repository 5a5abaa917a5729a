"""Reproduce Table V: imputation RMS of IIM vs the 13 baselines over the
7 ground-truth datasets (5% incomplete tuples, 1 random missing
attribute each), plus measured R^2_S / R^2_H.

    spark-submit jobs/table_v.py [--scale tiny|small|full] [--seed 0]
"""
import argparse

from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="full", choices=["tiny", "small", "full"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--datasets", nargs="*", default=None)
    args = ap.parse_args()

    from repro.eval.harness import table_v

    spark = get_spark("table_v")
    try:
        t = table_v(spark, scale=args.scale, seed=args.seed, datasets=args.datasets)
        print(f"\n=== Table V (scale={args.scale}, seed={args.seed}) ===")
        print(t.to_string(index=False))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
