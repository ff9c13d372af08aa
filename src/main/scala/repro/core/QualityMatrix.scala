package repro.core

import org.apache.spark.sql.SparkSession
import repro.workload.{ConfigProfile, Workload}

/** The per-(segment, config) quality and cost matrices of a stream.
  *
  * One narrow Spark query collects the stream's columns ([[segments]]); the
  * driver fills the K-wide rows with the workload's scalar law (a few tens of
  * ns a cell) in a parallel loop over segments, qual = weight(d)·report. Each
  * row is written by one task, so the result does not depend on scheduling.
  * Consecutive bit-identical cost rows share one array, so rows are read-only.
  */
object QualityMatrix {

  /** The narrow columns of a stream, indexed by segment id. */
  final case class Segments(day: Array[Int], regime: Array[Int], difficulty: Array[Double],
                            load: Array[Double]) {
    def n: Int = day.length
  }

  /** Collect `days` days of workload `w`'s stream (one narrow Spark query);
    * its segment ids must be exactly `0 until n`.
    */
  def segments(spark: SparkSession, w: Workload, days: Int, seed: Long = 7): Segments = {
    import spark.implicits._
    val rows = w.stream(spark, days, seed)
      .select("segId", "day", "regime", "difficulty", "load")
      .as[(Long, Int, Int, Double, Double)]
      .collect()
    val n = rows.length
    val segs = Segments(new Array[Int](n), new Array[Int](n), new Array[Double](n),
                        new Array[Double](n))
    val seen = new java.util.BitSet(n)
    for ((id, d, r, df, l) <- rows) {
      require(id >= 0 && id < n && !seen.get(id.toInt),
        s"QualityMatrix.segments: segment ids must be exactly 0 until $n; got $id")
      val i = id.toInt
      seen.set(i)
      segs.day(i) = d; segs.regime(i) = r; segs.difficulty(i) = df; segs.load(i) = l
    }
    segs
  }

  /** Build the full [[SegmentTrace]] for `days` days of workload `w`,
    * restricted to configuration set `configs` (usually the filtered Pareto
    * set, plus whatever the caller needs). Column k of every matrix is
    * `configs(k)`.
    */
  def trace(spark: SparkSession, w: Workload, days: Int,
            configs: Vector[ConfigProfile], seed: Long = 7): SegmentTrace =
    trace(w, segments(spark, w, days, seed), configs)

  /** The trace of the collected stream `segs`; it shares `segs`' arrays. */
  def trace(w: Workload, segs: Segments, configs: Vector[ConfigProfile]): SegmentTrace = {
    val (n, nK) = (segs.n, configs.length)
    val rhoEff = Array.tabulate(w.NRegimes, nK)((r, k) => configs(k).rho * w.affinity(configs(k).cfg, r))
    val qual = new Array[Array[Double]](n)
    val rept = new Array[Array[Double]](n)
    java.util.stream.IntStream.range(0, n).parallel().forEach { i =>
      val d = segs.difficulty(i); val l = segs.load(i); val rho = rhoEff(segs.regime(i))
      val wt = w.qualityWeight(d); val dPow = StrictMath.pow(d, w.sevPow)
      val q = new Array[Double](nK); val rp = new Array[Double](nK)
      var k = 0
      while (k < nK) {
        rp(k) = w.reportedCell(configs(k), i.toLong, rho(k), dPow, l)
        q(k) = wt * rp(k)
        k += 1
      }
      qual(i) = q; rept(i) = rp
    }
    // The cost law has no per-segment term, so a cost row repeats whenever
    // load repeats (always, on a single stream): one array serves each run
    // of bit-identical rows. qual and report carry per-segment noise.
    val cost = new Array[Array[Double]](n)
    for (i <- 0 until n) {
      val row = Array.tabulate(nK)(k => w.costPerSec(configs(k), segs.load(i)) * w.segSec)
      cost(i) = if (i > 0 && java.util.Arrays.equals(row, cost(i - 1))) cost(i - 1) else row
    }
    SegmentTrace(w.segSec, segs.day, segs.regime, segs.difficulty, segs.load, configs,
                 qual, cost, rept)
  }
}
