package repro.etl

import java.sql.DriverManager
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.util.DetHash

/** The hash's Spark Column and DuckDB SQL twins draw the scalar values. */
class DetHashSqlSpec extends SparkSpec {

  test("Spark column expression matches the scalar implementation") {
    import spark.implicits._
    val df = spark.range(500).select(
      col("id"),
      DetHashSql.uniformCol(col("id"), col("id") * 3 + 1, lit(9L)) as "u")
    val rows = df.collect()
    rows.foreach { r =>
      val id = r.getLong(0)
      val expected = DetHash.uniform(id, id * 3 + 1, 9)
      assert(math.abs(r.getDouble(1) - expected) < 1e-12, s"id=$id")
    }
  }

  test("DuckDB SQL expression matches the scalar implementation") {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val sql =
        s"SELECT g AS x, ${DetHashSql.uniformSql("g", "g * 3 + 1", "9")} AS u " +
        "FROM generate_series(0, 499) t(g)"
      val rs = conn.createStatement.executeQuery(sql)
      var n = 0
      while (rs.next()) {
        val x = rs.getLong(1)
        val expected = DetHash.uniform(x, x * 3 + 1, 9)
        assert(math.abs(rs.getDouble(2) - expected) < 1e-12, s"x=$x")
        n += 1
      }
      assert(n == 500)
    } finally conn.close()
  }

  test("mixSql handles negative inputs like pmod") {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val rs = conn.createStatement.executeQuery(
        s"SELECT ${DetHashSql.mixSql("-5", "3", "7")} AS h")
      rs.next()
      val h = rs.getLong(1)
      assert(h >= 0 && h < DetHash.M)
      assert(h == DetHash.mix(-5, 3, 7), "floored modulo keeps negatives aligned")
    } finally conn.close()
  }
}
