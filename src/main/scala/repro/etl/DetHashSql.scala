package repro.etl

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.util.DetHash.{A, B, C, M}

/** [[repro.util.DetHash]]'s mix as a Spark Column and as DuckDB SQL text, so
  * `VetlPipeline` and its oracle twin draw the scalar hash's exact values.
  */
object DetHashSql {
  /** Same mix as a Column expression (portable arithmetic only). */
  def mixCol(x: Column, y: Column, z: Column): Column = {
    val a = pmod(pmod(x, lit(M)) * A, lit(M))
    val b = pmod(pmod(y, lit(M)) * B, lit(M))
    val c = pmod(pmod(z, lit(M)) * C, lit(M))
    val s = pmod(a + b + c + lit(12345L), lit(M))
    pmod(s * A + lit(7L), lit(M))
  }

  /** Uniform [0,1) Column from three integer Columns. */
  def uniformCol(x: Column, y: Column, z: Column): Column =
    mixCol(x, y, z).cast("double") / lit(M.toDouble)

  /** SQL text of the mix, for the DuckDB side of oracle checks.
    * `x`,`y`,`z` are SQL expressions yielding integers.
    */
  def mixSql(x: String, y: String, z: String): String = {
    // CAST to BIGINT: DuckDB types bare integer literals as INT32 and raises
    // on multiplication overflow instead of promoting.
    def pm(e: String): String = s"((($e) % $M + $M) % $M)"
    def big(e: String): String = s"CAST(($e) AS BIGINT)"
    val a = pm(s"${pm(big(x))} * $A")
    val b = pm(s"${pm(big(y))} * $B")
    val c = pm(s"${pm(big(z))} * $C")
    val s = pm(s"$a + $b + $c + 12345")
    pm(s"$s * $A + 7")
  }

  def uniformSql(x: String, y: String, z: String): String =
    s"(CAST(${mixSql(x, y, z)} AS DOUBLE) / $M.0)"
}
