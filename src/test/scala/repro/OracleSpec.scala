package repro

import org.apache.spark.sql.functions._

/** The oracle itself must fail loudly on real mismatches — a checker that
  * cannot reject is worthless.
  */
class OracleSpec extends SparkSpec {

  private lazy val df = {
    import spark.implicits._
    Seq((1L, "a", 2.5), (2L, "b", 3.5), (3L, "a", 1.0)).toDF("k", "tag", "v")
  }

  test("accepts an equivalent aggregation") {
    val agg = df.groupBy("tag").agg(count(lit(1)) as "n", sum("v") as "s")
    Oracle.assertEquivalent(agg,
      "SELECT tag, COUNT(*) AS n, SUM(CAST(v AS DOUBLE)) AS s FROM t GROUP BY tag",
      "t" -> df)
  }

  test("rejects a wrong result") {
    val agg = df.groupBy("tag").agg(count(lit(1)) as "n")
    val ex = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(agg,
        "SELECT tag, COUNT(*) + 1 AS n FROM t GROUP BY tag", "t" -> df)
    }
    assert(ex.getMessage.contains("result mismatch"))
  }

  test("rejects mismatched column sets") {
    val agg = df.groupBy("tag").agg(count(lit(1)) as "n")
    val ex = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(agg, "SELECT tag, COUNT(*) AS m FROM t GROUP BY tag",
        "t" -> df)
    }
    assert(ex.getMessage.contains("column mismatch"))
  }

  test("rejects missing rows") {
    val filtered = df.where(col("k") =!= 2).select(col("k"), col("tag"))
    val ex = intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(filtered, "SELECT CAST(k AS BIGINT) AS k, tag FROM t",
        "t" -> df)
    }
    assert(ex.getMessage.contains("result mismatch"))
  }

  test("canonicalizes doubles across engines") {
    val proj = df.select(col("k").cast("long") as "k", (col("v") * 2) as "d")
    Oracle.assertEquivalent(proj,
      "SELECT CAST(k AS BIGINT) AS k, CAST(v AS DOUBLE) * 2 AS d FROM t", "t" -> df)
  }

  test("loads an empty table") {
    // A filter Spark folds to an empty relation: the written table has no
    // rows, and DuckDB must still find its files and columns.
    val empty = df.where(lit(false))
    Oracle.assertEquivalent(empty.agg(count(lit(1)) as "n", sum("v") as "s"),
      "SELECT COUNT(*) AS n, SUM(v) AS s FROM t", "t" -> empty)
  }
}
