package repro.video

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.util.DetHash

/** Parameters of the synthetic content process for one video source.
  *
  * The generator reproduces the two structural properties Skyscraper relies
  * on (paper §2.2 "Design challenges"):
  *
  *  1. content falls into a small number of *regimes* (calm / normal / busy /
  *     spike) whose dwell time is tens of seconds — matching the paper's
  *     observed category change every 24–43 s;
  *  2. the *timing* of regimes is hash-random (unpredictable) but their
  *     *frequency* follows a forecastable diurnal curve modulated by a slow
  *     AR(1) day-to-day drift and a weekend factor — so "how often" is
  *     learnable from recent history while "when" is not.
  *
  * Difficulty ∈ [0,1] is the latent hardness of analyzing a segment (object
  * occlusions for COVID/MOT). `load` is the number of concurrent streams
  * (MOSEI); 1.0 for single-stream sources.
  */
final case class StreamSpec(
    name: String,
    days: Int,
    segSec: Double,
    seed: Long               = 7,
    dwellSec: Double         = 40.0,
    // Multi-stream load model (MOSEI); None → constant load of 1.
    loadSpec: Option[LoadSpec] = None,
) {
  def nSegments: Long = (days.toLong * 86400L / segSec.toLong)
}

/** Concurrent-stream count model for the MOSEI workloads: a diurnal mean
  * of 14 live streams, capped at 62 (the paper's maximum).
  *
  * @param spikeHigh     short, tall peaks: every 3 h, a 7-minute burst raises
  *                      load to the cap
  * @param spikeLongFrom/To  a single long plateau (seconds from stream start)
  *                      raising load by 30 streams
  */
final case class LoadSpec(
    spikeHigh: Boolean = false,
    spikeLongFromSec: Double = -1.0,
    spikeLongToSec: Double = -1.0,
)

/** One synthesized video segment: a row of the stream.
  *
  * @param segId      segment index from stream start
  * @param t          seconds from stream start
  * @param day        day index
  * @param hour       hour of day ∈ [0, 24)
  * @param regime     latent content regime (calm, normal, busy, spike)
  * @param difficulty latent analysis hardness ∈ [0,1]
  * @param load       concurrent streams (1.0 for single-stream)
  */
final case class Segment(segId: Long, t: Double, day: Int, hour: Double, regime: Int,
                         difficulty: Double, load: Double)

/** The content law of the stream `spec`: `apply(segId)` synthesizes one
  * segment, a pure function of the id. The driver fills a stream's columns
  * with it (`QualityMatrix.segments`), and the Spark view
  * [[VideoSynth.segments]] maps segment ids through it, so both read the
  * same bits. The operations and their order fix those bits, which the pinned
  * trace digests check.
  */
final class SynthLaw(val spec: StreamSpec) extends Serializable {
  private val amps  = VideoSynth.dayAmplitudes(spec)
  private val bumps = Array(0.0, 0.12, 0.45, 0.65) // difficulty added per regime

  def apply(segId: Long): Segment = {
    val t    = segId.toDouble * spec.segSec
    val day  = (t / 86400.0).toInt
    val hour = (t / 3600.0) % 24.0
    // Activity factor; may exceed 1 on high-amplitude days.
    val activity = VideoSynth.diurnal(hour) * amps(day)

    // Regime draw per dwell block: weights depend on activity (forecastable
    // frequencies), draw depends on a block hash (unpredictable timing).
    // Busy/spike regimes are bursts: their *frequency* rises with daytime
    // activity but they stay the minority even at peak — most daytime
    // content is still analyzable by mid-tier configs (paper Fig. 3).
    val blockId = (t / spec.dwellSec).toLong
    val fA     = math.min(activity, 1.3)
    val wCalm  = math.max(0.05, 1.2 * (1.0 - fA))
    val wNorm  = 0.50
    val wBusy  = 0.02 + 0.13 * fA
    val wSpike = 0.005 + 0.055 * fA
    val total  = wCalm + wNorm + wBusy + wSpike
    val u      = DetHash.uniform(blockId, spec.seed, 1L)
    val regime =
      if (u < wCalm / total) 0
      else if (u < (wCalm + wNorm) / total) 1
      else if (u < (wCalm + wNorm + wBusy) / total) 2
      else 3

    val noise = DetHash.uniform(segId, spec.seed, 2L) - 0.5
    val difficulty = math.max(0.0, math.min(1.0,
      0.05 + 0.30 * activity + bumps(regime) + 0.06 * noise))

    val load = spec.loadSpec match {
      case None => 1.0
      case Some(ls) =>
        val diurnalLoad = 14.0 * (0.45 + 0.75 * activity)
        val high = if (ls.spikeHigh && t % 10800.0 < 420.0) 62.0 else 0.0
        val long =
          if (ls.spikeLongFromSec >= 0 && t >= ls.spikeLongFromSec && t < ls.spikeLongToSec) 30.0
          else 0.0
        val jitter = (DetHash.uniform(blockId, spec.seed, 3L) - 0.5) * 4.0
        val streams = math.max(diurnalLoad + jitter + long, high)
        // Half-up on the decimal form (SQL's round), as the digests were pinned.
        val rounded = java.math.BigDecimal.valueOf(streams)
          .setScale(0, java.math.RoundingMode.HALF_UP).doubleValue
        math.max(1.0, math.min(62.0, rounded))
    }

    Segment(segId, t, day, hour, regime, difficulty, load)
  }
}

/** Synthetic video-stream generator: the content law [[SynthLaw]], one
  * [[Segment]] per id, and a Spark DataFrame view of it for the ETL path.
  */
object VideoSynth {

  /** Driver-side AR(1) day amplitude series (small: one value per day).
    * amp_d = 1 + 0.75·(amp_{d-1}−1) + 0.12·η_d, clamped to [0.6, 1.4], then
    * damped by 0.75 on weekend days.
    */
  def dayAmplitudes(spec: StreamSpec): Array[Double] = {
    val rng = new scala.util.Random(spec.seed * 31 + 17)
    val amps = Array.ofDim[Double](spec.days)
    var prev = 1.0
    for (d <- 0 until spec.days) {
      val a0 = 1.0 + 0.75 * (prev - 1.0) + 0.12 * rng.nextGaussian()
      val a1 = math.max(0.6, math.min(1.4, a0))
      val weekend = if (d % 7 == 5 || d % 7 == 6) 0.75 else 1.0
      amps(d) = a1 * weekend
      prev = a1
    }
    amps
  }

  /** Diurnal activity factor ∈ [0,1]: a daytime hump peaking around 13:00. */
  def diurnal(hour: Double): Double = {
    val x = (hour - 6.0) / 14.0 // active window 06:00–20:00
    if (x >= 0 && x <= 1) math.sin(x * math.Pi) else 0.0
  }

  /** The stream `spec` as a DataFrame with [[Segment]]'s columns, one row per
    * segment id in `0 until spec.nSegments`, each row synthesized by
    * [[SynthLaw]]. A filter on `segId` applies after synthesis.
    */
  def segments(spark: SparkSession, spec: StreamSpec): DataFrame = {
    import spark.implicits._
    val law = new SynthLaw(spec)
    spark.range(spec.nSegments).map(id => law(id)).toDF()
  }
}
