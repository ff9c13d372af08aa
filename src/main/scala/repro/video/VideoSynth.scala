package repro.video

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
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
    regimeBumps: Vector[Double] = Vector(0.0, 0.12, 0.45, 0.65),
    baseDifficulty: Double   = 0.05,
    diurnalAmp: Double       = 0.30,
    weekendFactor: Double    = 0.75,
    dayDriftPhi: Double      = 0.75,
    dayDriftSigma: Double    = 0.12,
    noiseAmp: Double         = 0.06,
    // Multi-stream load model (MOSEI); None → constant load of 1.
    loadSpec: Option[LoadSpec] = None,
) {
  def nSegments: Long = (days.toLong * 86400L / segSec.toLong)
}

/** Concurrent-stream count model for the MOSEI workloads.
  *
  * @param baseStreams   diurnal mean number of live streams
  * @param maxStreams    hard cap (62 in the paper)
  * @param spikeHigh     short, tall peaks: every `highPeriodSec`, a burst of
  *                      `highLenSec` seconds raises load to `maxStreams`
  * @param spikeLongFrom/To  a single long plateau (seconds from stream start)
  *                      raising load by `longExtra`
  */
final case class LoadSpec(
    baseStreams: Double = 14.0,
    maxStreams: Double = 62.0,
    spikeHigh: Boolean = false,
    highPeriodSec: Double = 10800.0,
    highLenSec: Double = 420.0,
    spikeLongFromSec: Double = -1.0,
    spikeLongToSec: Double = -1.0,
    longExtra: Double = 30.0,
)

/** Synthetic video-stream generator (Spark DataFrame of segments).
  *
  * Output schema, one row per video segment:
  * {{{
  *   segId: long        segment index from stream start
  *   t: double          seconds from stream start
  *   day: int           day index
  *   hour: double       hour of day ∈ [0, 24)
  *   regime: int        latent content regime (index into regimeBumps)
  *   difficulty: double latent analysis hardness ∈ [0,1]
  *   load: double       concurrent streams (1.0 for single-stream)
  * }}}
  */
object VideoSynth {

  /** Driver-side AR(1) day amplitude series (small: one value per day).
    * amp_d = 1 + phi·(amp_{d-1}−1) + sigma·η_d, clamped to [0.6, 1.4].
    */
  def dayAmplitudes(spec: StreamSpec): Array[Double] = {
    val rng = new scala.util.Random(spec.seed * 31 + 17)
    val amps = Array.ofDim[Double](spec.days)
    var prev = 1.0
    for (d <- 0 until spec.days) {
      val a0 = 1.0 + spec.dayDriftPhi * (prev - 1.0) + spec.dayDriftSigma * rng.nextGaussian()
      val a1 = math.max(0.6, math.min(1.4, a0))
      val weekend = if (d % 7 == 5 || d % 7 == 6) spec.weekendFactor else 1.0
      amps(d) = a1 * weekend
      prev = a1
    }
    amps
  }

  /** Diurnal activity factor ∈ [0,1]: a daytime hump peaking around 13:00. */
  def diurnalCol(hour: Column): Column = {
    val x = (hour - lit(6.0)) / lit(14.0) // active window 06:00–20:00
    when(x >= 0 && x <= 1, sin(x * math.Pi)).otherwise(lit(0.0))
  }

  /** Generate the segments DataFrame for `spec` (deterministic in the seed). */
  def segments(spark: SparkSession, spec: StreamSpec): DataFrame = {
    val amps     = dayAmplitudes(spec)
    val ampArray = array(amps.toSeq.map(lit(_)): _*)

    val base = spark.range(spec.nSegments).toDF("segId")
      .withColumn("t", col("segId") * spec.segSec)
      .withColumn("day", (col("t") / 86400.0).cast("int"))
      .withColumn("hour", (col("t") / 3600.0) % 24.0)

    val f0 = diurnalCol(col("hour")) * element_at(ampArray, col("day") + 1)
    // Activity factor; may exceed 1 on high-amplitude days.
    val withF = base.withColumn("activity", f0)

    // Regime draw per dwell block: weights depend on activity (forecastable
    // frequencies), draw depends on a block hash (unpredictable timing).
    // Busy/spike regimes are bursts: their *frequency* rises with daytime
    // activity but they stay the minority even at peak — most daytime
    // content is still analyzable by mid-tier configs (paper Fig. 3).
    val blockId = (col("t") / spec.dwellSec).cast("long")
    val fA    = least(col("activity"), lit(1.3))
    val wCalm  = greatest(lit(0.05), lit(1.2) * (lit(1.0) - fA))
    val wNorm  = lit(0.50)
    val wBusy  = lit(0.02) + lit(0.13) * fA
    val wSpike = lit(0.005) + lit(0.055) * fA
    val total  = wCalm + wNorm + wBusy + wSpike
    val u      = DetHash.uniformCol(blockId, lit(spec.seed), lit(1L))
    val regime = when(u < wCalm / total, lit(0))
      .when(u < (wCalm + wNorm) / total, lit(1))
      .when(u < (wCalm + wNorm + wBusy) / total, lit(2))
      .otherwise(lit(3))

    val bumpArr = array(spec.regimeBumps.map(lit(_)): _*)
    val noise   = DetHash.uniformCol(col("segId"), lit(spec.seed), lit(2L)) - lit(0.5)
    val diff = greatest(lit(0.0), least(lit(1.0),
      lit(spec.baseDifficulty) + lit(spec.diurnalAmp) * col("activity") +
        element_at(bumpArr, regime + 1) + lit(spec.noiseAmp) * noise))

    val withRegime = withF
      .withColumn("regime", regime)
      .withColumn("difficulty", diff)

    val load: Column = spec.loadSpec match {
      case None => lit(1.0)
      case Some(ls) =>
        val diurnalLoad = lit(ls.baseStreams) * (lit(0.45) + lit(0.75) * col("activity"))
        val high =
          if (ls.spikeHigh)
            when(pmod(col("t"), lit(ls.highPeriodSec)) < ls.highLenSec,
                 lit(ls.maxStreams)).otherwise(lit(0.0))
          else lit(0.0)
        val long =
          if (ls.spikeLongFromSec >= 0)
            when(col("t") >= ls.spikeLongFromSec && col("t") < ls.spikeLongToSec,
                 lit(ls.longExtra)).otherwise(lit(0.0))
          else lit(0.0)
        val jitter = (DetHash.uniformCol(blockId, lit(spec.seed), lit(3L)) - lit(0.5)) * 4.0
        greatest(lit(1.0), least(lit(ls.maxStreams),
          round(greatest(diurnalLoad + jitter + long, high))))
    }

    withRegime
      .withColumn("load", load)
      .select("segId", "t", "day", "hour", "regime", "difficulty", "load")
  }
}
