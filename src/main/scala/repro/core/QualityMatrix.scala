package repro.core

import org.apache.spark.sql.{Column, SparkSession}
import org.apache.spark.sql.functions._
import repro.workload.{ConfigProfile, Workload}

/** Spark job computing the per-(segment, config) quality and cost matrices.
  *
  * This is the data-parallel heart of the reproduction: one narrow pass over
  * a multi-day segments DataFrame that evaluates the workload's columnar
  * reported-quality/cost model for every configuration at once — the (small)
  * configuration set is a driver-side constant, so each channel is a K-wide
  * array column — collected straight into driver-side arrays for the
  * sequential control loop; qual = weight(d)·report is derived on the driver.
  * Consecutive bit-identical cost rows share one array, so the rows of the
  * returned trace are read-only.
  */
object QualityMatrix {

  /** Build the full [[SegmentTrace]] for `days` days of workload `w`,
    * restricted to configuration set `configs` (usually the filtered Pareto
    * set, plus whatever the caller needs). Column k of every matrix is
    * `configs(k)`.
    */
  def trace(spark: SparkSession, w: Workload, days: Int,
            configs: Vector[ConfigProfile], seed: Long = 7): SegmentTrace = {
    import spark.implicits._
    val (segId, difficulty, load) = (col("segId"), col("difficulty"), col("load"))

    // One K-wide array per channel; entry k has config k's id, cap and unit
    // cost as literals. ρ·affinity is precomputed per (config, regime) on the
    // driver; the columnar report matches the scalar one within 1e-9 (a few ulp).
    def perConfig(f: (ConfigProfile, Column, Column, Column) => Column): Column =
      array(configs.map { p =>
        val cap = lit(if (p.streamCap.isInfinity) 1e9 else p.streamCap)
        val rhoByRegime = (0 until w.NRegimes).map(r => lit(p.rho * w.affinity(p.cfg, r)))
        val rhoEff = element_at(array(rhoByRegime: _*), col("regime") + 1)
        f(p, lit(p.id.toLong), rhoEff, cap)
      }: _*)

    // Whole-stage codegen inlines all K laws into one method (9,916 bytes of
    // bytecode at K = 11). Past HotSpot's 8000-byte JIT limit it would run
    // interpreted, 2-3x slower; with this limit Spark falls back to its
    // per-expression projection, which splits the laws into small methods.
    val hugeMethodLimit = "spark.sql.codegen.hugeMethodLimit"
    val priorLimit = spark.conf.get(hugeMethodLimit)
    spark.conf.set(hugeMethodLimit, 8000L)
    val rows = try w.stream(spark, days, seed)
      .select(segId, col("day"), col("regime"), difficulty, load,
        perConfig((p, _, _, cap) => w.costCol(lit(p.unitCost), cap, load) * w.segSec),
        perConfig((_, id, rho, cap) => w.reportedCol(segId, id, rho, cap, difficulty, load)))
      .as[(Long, Int, Int, Double, Double, Array[Double], Array[Double])]
      .collect()
    finally spark.conf.set(hugeMethodLimit, priorLimit)

    val n = rows.length
    val day  = Array.ofDim[Int](n)
    val reg  = Array.ofDim[Int](n)
    val diff = Array.ofDim[Double](n)
    val ld   = Array.ofDim[Double](n)
    val qual = Array.ofDim[Array[Double]](n)
    val cost = Array.ofDim[Array[Double]](n)
    val rept = Array.ofDim[Array[Double]](n)
    val seen = new java.util.BitSet(n)
    for ((id, d, r, df, l, c, rp) <- rows) {
      require(id >= 0 && id < n && !seen.get(id.toInt),
        s"QualityMatrix.trace: segment ids must be exactly 0 until $n; got $id")
      val i = id.toInt
      seen.set(i)
      day(i) = d; reg(i) = r; diff(i) = df; ld(i) = l
      cost(i) = c; rept(i) = rp
    }
    // qual = weight(d)·report (Workload.quality), one primitive loop per row.
    var j = 0
    while (j < n) {
      val wt = w.qualityWeight(diff(j)); val rp = rept(j)
      val q = new Array[Double](rp.length)
      var k = 0
      while (k < q.length) { q(k) = wt * rp(k); k += 1 }
      qual(j) = q; j += 1
    }
    // The cost law has no per-segment term, so a cost row repeats whenever
    // load repeats (always, on a single stream): one array serves each run
    // of bit-identical rows. qual and report carry per-segment noise.
    for (i <- 1 until n if java.util.Arrays.equals(cost(i), cost(i - 1)))
      cost(i) = cost(i - 1)
    SegmentTrace(w.segSec, day, reg, diff, ld, configs, qual, cost, rept)
  }
}
