"""``python -m repro.experiments <name> [--sf --days --train-days --n-tasks
--seed]``: run one registry entry and write its tables to results/. A flag
not given keeps the entry's own setting, else the ``ExpConfig`` default.
Master and driver memory go in ``PYSPARK_SUBMIT_ARGS``."""
from __future__ import annotations

import argparse
import dataclasses

from repro.experiments.common import ExpConfig, load_ads, spark_session
from repro.experiments.registry import EXPERIMENTS

FLAGS = ("sf", "days", "train_days", "n_tasks", "seed")  # ExpConfig fields


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one FlashP reproduction experiment and write results/<name>.txt.",
    )
    ap.add_argument("name", choices=list(EXPERIMENTS), help="experiment to run")
    for attr in FLAGS:
        default = getattr(ExpConfig, attr)
        ap.add_argument(
            "--" + attr.replace("_", "-"), type=type(default),
            help=f"default {default}, unless the experiment sets its own",
        )
    args = ap.parse_args(argv)

    exp = EXPERIMENTS[args.name]
    given = {a: getattr(args, a) for a in FLAGS if getattr(args, a) is not None}
    cfg = dataclasses.replace(exp.config(ExpConfig()), **given)
    spark = spark_session(f"flashp-{exp.name}")
    spark.sparkContext.setLogLevel("WARN")
    try:
        exp.save(exp.run(load_ads(spark, cfg), cfg))
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
