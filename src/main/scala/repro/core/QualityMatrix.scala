package repro.core

import org.apache.spark.sql.SparkSession
import repro.video.SynthLaw
import repro.workload.{ConfigProfile, Workload}

/** The per-(segment, config) report and cost channels of a stream.
  *
  * The driver synthesizes the stream's columns ([[segments]]) with the
  * content law [[repro.video.SynthLaw]]. No Spark job runs. No cell is
  * stored: the [[LawTrace]] keeps the difficulty and the regime, 9 B per
  * segment (plus d^sevPow where sevPow ≠ 1, and the load where the stream has
  * a load model), and evaluates the day, the load, weight(d), report,
  * qual = weight(d)·report and cost from the law on read.
  */
object QualityMatrix {

  /** The columns of a stream that the content law gives only by
    * synthesizing it, for segment ids `first until first + n`: the regime
    * (one of four, in a byte), the difficulty, and the load where the stream
    * has a load model (`None`: 1.0 on every segment). The day is the law's
    * function of the segment id.
    */
  final case class Segments(first: Long, segSec: Double, regime: Array[Byte],
                            difficulty: Array[Double], load: Option[Array[Double]]) {
    require(regime.length == n && load.forall(_.length == n),
      s"Segments: $n difficulties need as many regimes and loads")
    private[this] val loads = load.orNull

    def n: Int = difficulty.length
    def dayOf(i: Int): Int = SynthLaw.day(first + i, segSec)
    def regimeOf(i: Int): Int = regime(i)
    def loadOf(i: Int): Double = if (loads eq null) 1.0 else loads(i)

    def slice(from: Int, until: Int): Segments =
      Segments(first + from, segSec, regime.slice(from, until), difficulty.slice(from, until),
               load.map(_.slice(from, until)))
  }

  /** Synthesize `days` days of workload `w`'s stream on the driver, one
    * segment per id in `0 until n`.
    */
  def segments(w: Workload, days: Int, seed: Long = 7): Segments = {
    val spec = w.streamSpec(days, seed)
    val law = new SynthLaw(spec)
    val n = spec.nSegments.toInt
    val loads = if (spec.loadSpec.isEmpty) null else new Array[Double](n)
    val segs = Segments(0L, spec.segSec, new Array[Byte](n), new Array[Double](n), Option(loads))
    java.util.stream.IntStream.range(0, n).parallel().forEach { i =>
      val s = law(i.toLong)
      segs.regime(i) = s.regime.toByte
      segs.difficulty(i) = s.difficulty
      if (loads ne null) loads(i) = s.load
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
    new LawTrace(w, segs, configs, dPow)
  }
}
