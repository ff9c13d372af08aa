package repro.workload

import repro.video.StreamSpec

/** COVID-19 safety-measures workload (paper §5.2, Appendix J).
  *
  * DAG: YOLOv5 pedestrian detector → KCF trackers → homography distancing +
  * mask classifier. Knobs:
  *   - frame rate {30, 15, 10, 5, 1} FPS
  *   - object-detection interval: detector every {1, 5, 30, 60} frames
  *   - tiling {1x1 → 1, 2x2 → 4 tiles}
  *
  * Cost model: per processed frame the detector costs `cDet` core·s per tile
  * (amortized over its interval) and tracking/classification costs `cTrack`.
  * Calibrated so the cheapest config runs anywhere (~0.1 core·s/s), mid
  * configs need 8–16 cores and the top configs exceed a 60-vCPU machine —
  * the regime Table 2 exhibits.
  *
  * Quality metric: person·seconds tracked ⇒ quality mass concentrates in
  * crowded (difficult) segments (`qualityWeight`). Detection frequency is
  * the dominant robustness driver — a detector running every 30 frames
  * misses short-lived pedestrians no matter the resolution.
  */
class Covid extends Workload {
  val name  = "COVID"
  val knobs = Vector(
    KnobDef("fps",      Vector(30, 15, 10, 5, 1)),
    KnobDef("detEvery", Vector(1, 5, 30, 60)),
    KnobDef("tiles",    Vector(1, 4)),
  )

  private val cDet   = 1.6  // YOLO core·s per invocation per tile
  private val cTrack = 0.05 // KCF + homography + mask classifier per frame

  def unitCost(cfg: KnobConfig): Double = {
    val fps = cfg(0); val detEvery = cfg(1); val tiles = cfg(2)
    fps * (cDet * tiles / detEvery + cTrack)
  }

  def robustness(cfg: KnobConfig): Double = {
    val fps = cfg(0); val detEvery = cfg(1); val tiles = cfg(2)
    // Frame rate gates tracking hard: pedestrians crossing the frame are
    // simply missed between 1 fps samples, detector frequency cannot fix it.
    val sFps  = math.pow(fps / 30.0, 0.80)
    val sDet  = math.pow(1.0 / detEvery, 0.30)
    val sTile = if (tiles >= 4) 1.0 else 0.55
    val raw   = 0.35 * sFps + 0.45 * sDet + 0.20 * sTile
    shapeRho(raw, lo = 0.60, hi = 0.90, gamma = 0.5)
  }

  /** Content-type affinities: busy traffic (regime 2) is fast motion —
    * frame rate is what keeps trackers locked on; crowd spikes (regime 3)
    * are dense occlusion of small objects — tiling plus per-frame detection
    * is what resolves them. A config lacking the matching knobs caps out
    * regardless of its budget.
    */
  override def affinity(cfg: KnobConfig, regime: Int): Double = {
    val fps = cfg(0); val detEvery = cfg(1); val tiles = cfg(2)
    regime match {
      case 2 => 0.50 + 0.50 * math.pow(fps / 30.0, 0.5)
      case 3 => (if (tiles >= 4) 1.0 else 0.55) * math.pow(1.0 / detEvery, 0.10)
      case _ => 1.0
    }
  }

  override val sevScale = 2.4
  override val sevPow   = 1.0

  override def qualityWeight(d: Double): Double = 0.05 + 0.95 * math.pow(d, 2.0)

  val segSec    = 2.0
  val trainDays = 16
  val testDays  = 8

  def streamSpec(days: Int, seed: Long): StreamSpec =
    StreamSpec(name = "tokyo-street", days = days, segSec = segSec, seed = seed,
               dwellSec = 42.0)
}

object Covid extends Covid
