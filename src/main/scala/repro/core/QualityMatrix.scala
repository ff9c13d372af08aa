package repro.core

import org.apache.spark.sql.SparkSession
import repro.video.SynthLaw
import repro.workload.{ConfigProfile, Workload}

/** The per-(segment, config) report and cost channels of a stream.
  *
  * The driver synthesizes the stream's columns ([[segments]]) with the
  * content law [[repro.video.SynthLaw]]. No Spark job runs. No cell is
  * stored: the [[LawTrace]] keeps the four columns, 24 B per segment (plus
  * d^sevPow where sevPow ≠ 1), and evaluates weight(d), report, qual =
  * weight(d)·report and cost from the workload's scalar law on read.
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
            configs: Vector[ConfigProfile], seed: Long = 7): LawTrace =
    trace(w, segments(w, days, seed), configs)

  /** The trace of the synthesized stream `segs`; it shares `segs`' arrays. */
  def trace(w: Workload, segs: Segments, configs: Vector[ConfigProfile]): LawTrace = {
    // StrictMath.pow(d, 1.0) is d bit for bit: no second column unless sevPow ≠ 1.
    val dPow = if (w.sevPow == 1.0) segs.difficulty
               else java.util.Arrays.stream(segs.difficulty).parallel()
                      .map(StrictMath.pow(_, w.sevPow)).toArray
    new LawTrace(w, 0L, segs.day, segs.regime, segs.difficulty, segs.load, configs, dPow)
  }
}
