"""Reproduce Table III: per-model learning cost, from-scratch vs
incremental, as the number l of learning neighbors grows.

The paper's Table III is a complexity table (U: m^2(l+h) vs m^2 h; V:
m(l+h) vs mh; solve: m^3 + m^2 both). This job measures it empirically:
the wall-clock of sweeping the candidate grid for every tuple with
``prefix_params`` (incremental, Proposition 3) vs
``prefix_params_scratch`` (recompute U/V per grid point), plus the
end-to-end adaptive-learning wall-clock both ways. Scratch cost grows
linearly with the grid cap; incremental cost stays flat — the paper's
"linear to constant" claim.

    spark-submit jobs/table_iii.py [--n 2000] [--h 50]
"""
import argparse
import time

from repro.session import get_spark


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--h", type=int, default=50)
    ap.add_argument("--dataset", default="CA")
    args = ap.parse_args()

    import numpy as np

    from repro.core import linalg
    from repro.core.adaptive import adaptive_learn
    from repro.datasets import attributes, generate

    pdf = generate(args.dataset, n=args.n)
    attrs = attributes(args.dataset)
    F, A_x = attrs[:-1], attrs[-1]
    X = pdf[F].to_numpy(float)
    y = pdf[A_x].to_numpy(float)

    print(f"\n=== Table III (dataset={args.dataset}, n={args.n}, h={args.h}) ===")
    print(f"{'l_max':>8} {'scratch_ms':>12} {'incremental_ms':>15} {'speedup':>8}")
    reps = 20
    for l_max in [100, 200, 400, 800, 1600]:
        l_max = min(l_max, args.n)
        grid = linalg.make_grid(args.n, args.h, l_max)
        t0 = time.perf_counter()
        for i in range(reps):
            linalg.prefix_params_scratch(X, y, grid)
        scratch = (time.perf_counter() - t0) / reps * 1000
        t0 = time.perf_counter()
        for i in range(reps):
            linalg.prefix_params(X, y, grid)
        inc = (time.perf_counter() - t0) / reps * 1000
        print(f"{l_max:>8} {scratch:>12.2f} {inc:>15.2f} {scratch / inc:>8.1f}x")

    spark = get_spark("table_iii")
    try:
        df = spark.createDataFrame(pdf[["row_id"] + attrs])
        for inc in (False, True):
            t0 = time.perf_counter()
            adaptive_learn(
                spark, df, F, A_x, k=10, h=args.h, l_max=None, incremental=inc
            ).count()
            label = "incremental" if inc else "straightforward"
            print(f"adaptive learning ({label}): {time.perf_counter() - t0:.2f}s")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
