package repro.workload

import repro.video.StreamSpec

/** Multi-object-tracking workload with TransMOT (paper §5.2, Appendix J).
  *
  * Knobs:
  *   - frame rate {30, 15, 5, 1} FPS
  *   - tiling {1, 4}
  *   - length of history {1, 2, 3, 5} previous frame-graphs fed to TransMOT
  *   - model size {small=0, medium=1, large=2}
  *
  * Cost: per processed frame, detector+embedding+graph-transformer work
  * scales with model size and tiles, and mildly with history length.
  * Robustness is dominated by the transformer's model size (the paper's
  * "correctly tracked" metric collapses when the small model loses
  * identities in crowds); quality mass follows crowding as in COVID.
  */
class Mot extends Workload {
  val name  = "MOT"
  val knobs = Vector(
    KnobDef("fps",     Vector(30, 15, 5, 1)),
    KnobDef("tiles",   Vector(1, 4)),
    KnobDef("history", Vector(1, 2, 3, 5)),
    KnobDef("model",   Vector(0, 1, 2)),
  )

  private val cBase      = 0.13
  private val modelMult  = Array(1.0, 2.5, 6.0)
  private val crowdModel = Array(0.0, 0.6, 1.0) // model size's share of crowd affinity

  def unitCost(cfg: KnobConfig): Double = {
    val fps = cfg(0); val tiles = cfg(1); val hist = cfg(2); val model = cfg(3).toInt
    fps * cBase * modelMult(model) * tiles * (1.0 + 0.10 * (hist - 1.0))
  }

  def robustness(cfg: KnobConfig): Double = {
    val fps = cfg(0); val tiles = cfg(1); val hist = cfg(2); val model = cfg(3).toInt
    // Frame rate gates TransMOT hard (a 1 fps stream has no usable motion
    // continuity for the graph transformer, however large the model).
    val sFps   = math.pow(fps / 30.0, 0.80)
    val sTile  = if (tiles >= 4) 1.0 else 0.60
    val sHist  = math.pow(hist / 5.0, 0.25)
    val sModel = Array(0.45, 0.75, 1.0)(model)
    val raw    = 0.35 * sFps + 0.12 * sTile + 0.08 * sHist + 0.45 * sModel
    shapeRho(raw, lo = 0.58, hi = 0.92, gamma = 0.5)
  }

  /** Busy intersections (regime 2) are fast motion: frame rate plus a long
    * graph history keep identities; crowd spikes (regime 3) need the large
    * transformer and tiling to separate overlapping pedestrians.
    */
  override def affinity(cfg: KnobConfig, regime: Int): Double = {
    val fps = cfg(0); val tiles = cfg(1); val hist = cfg(2); val model = cfg(3).toInt
    regime match {
      case 2 => (0.50 + 0.50 * math.pow(fps / 30.0, 0.5)) *
                (0.90 + 0.10 * hist / 5.0)
      case 3 => (0.55 + 0.45 * crowdModel(model)) *
                (if (tiles >= 4) 1.0 else 0.80)
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
    StreamSpec(name = "shibuya-intersection", days = days, segSec = segSec,
               seed = seed, dwellSec = 43.0)
}

object Mot extends Mot
