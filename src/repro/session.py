"""The project's one SparkSession builder, for the test fixture and the
``jobs/`` entry points alike.

Master, driver memory and the local-mode networking settings are
launch-time options, so they go into ``PYSPARK_SUBMIT_ARGS`` before the
first session starts the JVM (an explicitly set ``PYSPARK_SUBMIT_ARGS``
wins). ``SPARK_MASTER`` (default ``local[*]``), ``SPARK_DRIVER_MEM``
(default: Spark's own) and ``SPARK_SHUFFLE_PARTITIONS`` (default 64)
override them. Broadcast joins are disabled so the kNN joins of the
Catalyst reference engine (``repro.core.sql_engine``) run as shuffles
whatever the relation size.
"""
from __future__ import annotations

import os


def get_spark(app: str):
    mem = os.environ.get("SPARK_DRIVER_MEM")
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        + (f"--driver-memory {mem} " if mem else "")
        + "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
