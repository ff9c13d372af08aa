package repro.core

import org.apache.spark.sql.SparkSession
import repro.video.SynthLaw
import repro.workload.{ConfigProfile, Workload}

/** The per-(segment, config) report and cost channels of a stream.
  *
  * The driver synthesizes the stream's columns ([[segments]]) with the
  * content law [[repro.video.SynthLaw]], then fills one flat n·K report
  * array with the workload's scalar law (a few tens of ns a cell) and one
  * weight per segment. Both are parallel loops over segments; each segment's
  * cells are written by one task, so the result does not depend on
  * scheduling. No Spark job runs. Quality is not stored: [[SegmentTrace]]
  * computes qual = weight(d)·report on read. Consecutive bit-identical cost
  * rows share one array, so every array of the trace is read-only. A trace
  * holds K·8 + 8 bytes of report and weight per segment, plus its cost-row
  * pointer.
  */
object QualityMatrix {

  /** The columns of a stream the trace reads, indexed by segment id. */
  final case class Segments(day: Array[Int], regime: Array[Int], difficulty: Array[Double],
                            load: Array[Double]) {
    def n: Int = day.length
  }

  /** Synthesize `days` days of workload `w`'s stream on the driver, one
    * segment per id in `0 until n`.
    */
  def segments(w: Workload, days: Int, seed: Long = 7): Segments = {
    val law = new SynthLaw(w.streamSpec(days, seed))
    val n = law.spec.nSegments.toInt
    val segs = Segments(new Array[Int](n), new Array[Int](n), new Array[Double](n),
                        new Array[Double](n))
    java.util.stream.IntStream.range(0, n).parallel().forEach { i =>
      val s = law(i.toLong)
      segs.day(i) = s.day; segs.regime(i) = s.regime
      segs.difficulty(i) = s.difficulty; segs.load(i) = s.load
    }
    segs
  }

  /** Build the full [[SegmentTrace]] for `days` days of workload `w`,
    * restricted to configuration set `configs` (usually the filtered Pareto
    * set, plus whatever the caller needs). Config index k of every channel is
    * `configs(k)`. `spark` is unused: the trace is built on the driver. The
    * overload stays until `perfbench/`, which calls it, moves onto library
    * entry points (ROADMAP item 1).
    */
  def trace(spark: SparkSession, w: Workload, days: Int,
            configs: Vector[ConfigProfile], seed: Long = 7): SegmentTrace =
    trace(w, segments(w, days, seed), configs)

  /** The trace of the synthesized stream `segs`; it shares `segs`' arrays. */
  def trace(w: Workload, segs: Segments, configs: Vector[ConfigProfile]): SegmentTrace = {
    val (n, nK) = (segs.n, configs.length)
    val rhoEff = Array.tabulate(w.NRegimes, nK)((r, k) => configs(k).rho * w.affinity(configs(k).cfg, r))
    val weight = new Array[Double](n)
    val report = new Array[Double](n * nK)
    java.util.stream.IntStream.range(0, n).parallel().forEach { i =>
      val d = segs.difficulty(i); val l = segs.load(i); val rho = rhoEff(segs.regime(i))
      weight(i) = w.qualityWeight(d)
      val dPow = StrictMath.pow(d, w.sevPow)
      var k = 0
      while (k < nK) {
        report(i * nK + k) = w.reportedCell(configs(k), i.toLong, rho(k), dPow, l)
        k += 1
      }
    }
    // The cost law has no per-segment term, so a cost row repeats whenever
    // load repeats (always, on a single stream): one array serves each run
    // of bit-identical rows. The report carries per-segment noise.
    val cost = new Array[Array[Double]](n)
    for (i <- 0 until n) {
      val row = Array.tabulate(nK)(k => w.costPerSec(configs(k), segs.load(i)) * w.segSec)
      cost(i) = if (i > 0 && java.util.Arrays.equals(row, cost(i - 1))) cost(i - 1) else row
    }
    SegmentTrace(w.segSec, segs.day, segs.regime, segs.difficulty, segs.load, configs,
                 weight, report, cost)
  }
}
