"""Reproduce Table VI: imputation RMS per incomplete attribute A1..A6
over the ASF dataset with 100 incomplete tuples.

    spark-submit jobs/table_vi.py [--scale tiny|small|full]
"""
import argparse

from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", default="full", choices=["tiny", "small", "full"])
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    from repro.eval.harness import table_vi

    spark = get_spark("table_vi")
    try:
        t = table_vi(spark, scale=args.scale, count=args.count, seed=args.seed)
        print(f"\n=== Table VI (ASF, scale={args.scale}) ===")
        print(t.to_string(index=False))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
