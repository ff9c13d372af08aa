package repro.workload

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.util.DetHash
import repro.video.{StreamSpec, VideoSynth}

/** A V-ETL workload: registered knobs plus the analytic cost/quality model
  * that substitutes for real CV UDF execution (see DESIGN.md §2).
  *
  * Cost model: a knob configuration costs `unitCost(cfg)` core·seconds per
  * video-second per analyzed stream. Quality model (shared across workloads):
  *
  * {{{
  *   ρ_eff(k, s)    = ρ_k · affinity(k, regime_s)
  *   coverage(k, s) = min(streamCap_k, load_s) / max(load_s, 1)
  *   report(k, s)   = coverage ·
  *                    clamp(exp(−(1−ρ_eff) · sevScale · d_s^sevPow)
  *                          + 0.04·(u(s,k) − 0.5), 0, 1)
  *   qual(k, s)     = weight(d_s) · report(k, s)
  * }}}
  *
  * `affinity(k, regime)` captures that content *types* need config *types*,
  * not just config budgets: dense-crowd spikes need tiling + per-frame
  * detection, fast busy traffic needs frame rate, etc. This is the paper's
  * core premise — different content categories are best served by different
  * knob configurations (§4.1) — and is what lets content-adaptive switching
  * on a small machine beat ANY static configuration on a much larger one
  * (Table 2: Skyscraper@4 > Static@32).
  *
  * The exponential decay keeps quality strictly monotone in ρ at every
  * difficulty (a linear law with clamping floors all cheap configs to an
  * indistinguishable 0 on hard content, which both breaks hill climbing and
  * is unrealistic — real trackers still catch some objects in rush hour).
  *
  * `weight(d)` models the paper's quality metrics being *mass* metrics
  * (person·seconds tracked, Σ streams analyzed): busy segments carry most of
  * the extractable entities, so failing on them costs far more quality than
  * failing at 3 AM. This is what makes cheap static configurations score low
  * overall (paper Table 2) even though they are fine on easy content.
  *
  * where ρ_k is the configuration's robustness and d_s the segment's latent
  * difficulty. Expensive configs (ρ→1) stay accurate on hard content; cheap
  * configs degrade — exactly the trade-off Skyscraper exploits (paper §1,
  * Fig. 3). The noise term uses the deterministic hash, so every cell is a
  * pure function of (segment, config): [[reportedCell]] is the law's one body,
  * and `QualityMatrix.trace` and [[quality]] both run it.
  */
trait Workload {
  def name: String
  def knobs: Vector[KnobDef]

  /** Full knob grid (exponential in #knobs — filtered in the offline phase). */
  lazy val allConfigs: Vector[KnobConfig] = Knobs.grid(knobs)

  /** core·s of work per video-second per analyzed stream. */
  def unitCost(cfg: KnobConfig): Double

  /** Robustness ∈ [0,1]. */
  def robustness(cfg: KnobConfig): Double

  /** Max concurrent streams analyzed (∞ for single-stream workloads). */
  def streamCap(cfg: KnobConfig): Double = Double.PositiveInfinity

  /** Severity curve parameters: error impact = sevScale · d^sevPow. */
  def sevScale: Double
  def sevPow: Double

  /** Quality mass of a segment as a function of its difficulty ∈ [0,1].
    * Single-stream workloads override this (crowded ⇒ hard AND rich);
    * multi-stream workloads carry their mass in `load` instead.
    */
  def qualityWeight(difficulty: Double): Double = 1.0

  /** Piecewise-linear robustness shaping: maps a raw knob score onto [0,1]
    * with a calibrated active band [lo, hi] and curvature `gamma`. Scores
    * below `lo` are hopeless configs, above `hi` fully robust ones.
    */
  protected final def shapeRho(raw: Double, lo: Double, hi: Double, gamma: Double): Double =
    math.pow(math.min(1.0, math.max(0.0, (raw - lo) / (hi - lo))), gamma)

  /** Config-type ↔ content-type match ∈ (0, 1]; 1 = the config's knobs suit
    * this regime. Multiplies ρ. Default: no type structure.
    */
  def affinity(cfg: KnobConfig, regime: Int): Double = 1.0

  /** Number of content regimes the stream generator emits. */
  final val NRegimes = 4

  /** Video segment length the switcher operates on (paper: 2 s; MOSEI 7 s). */
  def segSec: Double

  /** Raw video bitrate in bytes per second per stream (buffer accounting).
    * 7.8 GB/day ≈ 90 KB/s, as measured in the paper (footnote 2).
    */
  final val bitrateBytesPerSec: Double = 90e3

  /** Compressed (JPEG) bytes per video-second shipped if fully offloaded. */
  final val cloudBytesPerSec: Double = 45e3

  /** Uplink bandwidth cap toward the cloud in bytes/s. */
  final val uplinkBytesPerSec: Double = 1.2e6

  /** Days of unlabeled history for the offline phase / days of test stream. */
  def trainDays: Int
  def testDays: Int

  def streamSpec(days: Int, seed: Long): StreamSpec

  /** Spark view of `days` days of this source, one row per segment (see
    * `VideoSynth.segments`); the offline fit synthesizes on the driver.
    */
  def stream(spark: SparkSession, days: Int, seed: Long = 7): DataFrame =
    VideoSynth.segments(spark, streamSpec(days, seed))

  final def profile(cfg: KnobConfig): ConfigProfile =
    ConfigProfile(cfg, unitCost(cfg), robustness(cfg), streamCap(cfg))

  final lazy val profiles: Vector[ConfigProfile] = allConfigs.map(profile)

  // ---- shared quality/cost model ---------------------------------------

  /** Application quality: the reported quality weighted by content mass. */
  final def quality(p: ConfigProfile, segId: Long, difficulty: Double, load: Double,
                    regime: Int = 0): Double =
    qualityWeight(difficulty) * reported(p, segId, difficulty, load, regime)

  /** Scalar cost (core·s) to process ONE video-second of a segment. */
  final def costPerSec(p: ConfigProfile, load: Double): Double =
    p.unitCost * math.min(p.streamCap, load)

  /** Reported quality (paper §1, §4.2): the certainty/error signal the user
    * code extracts anyway while running the job — the ONLY content signal
    * the knob switcher observes. Unlike the application quality it is not
    * weighted by content mass, so it stays monotone in content difficulty
    * for every config (the property Eq. 5's one-dimension classification
    * needs: "content of different categories will induce different result
    * qualities for all knob configurations").
    */
  final def reported(p: ConfigProfile, segId: Long, difficulty: Double, load: Double,
                     regime: Int = 0): Double =
    reportedCell(p, segId, p.rho * affinity(p.cfg, regime), StrictMath.pow(difficulty, sevPow), load)

  /** The report law's one body, on one (segment, config) cell given
    * `rhoEff` = ρ·affinity and `dPow` = d^sevPow, which a caller filling many
    * cells computes once per (config, regime) and per segment. `StrictMath`:
    * the JDK fixes its bits on every platform (as Spark's `exp`/`pow`), while
    * `Math`'s JIT intrinsics may differ by a few ulp, which pinned digests see.
    */
  final def reportedCell(p: ConfigProfile, segId: Long, rhoEff: Double, dPow: Double,
                         load: Double): Double = {
    val coverage = math.min(p.streamCap, load) / math.max(load, 1.0)
    val u = DetHash.uniform(segId, p.cfg.id.toLong + 101, 17L)
    val q = StrictMath.exp(-(1.0 - rhoEff) * sevScale * dPow) + 0.04 * (u - 0.5)
    coverage * math.max(0.0, math.min(1.0, q))
  }

  /** The `rhoEff` argument of [[reportedCell]] for each of `ps` in each
    * regime, `(regime)(config)`: what a caller filling many cells hoists.
    */
  final def rhoEff(ps: Array[ConfigProfile]): Array[Array[Double]] =
    Array.tabulate(NRegimes, ps.length)((r, c) => ps(c).rho * affinity(ps(c).cfg, r))
}
