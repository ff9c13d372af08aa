package repro.workload

import repro.video.{LoadSpec, StreamSpec}

/** Multi-modal opinion sentiment (MOSEI) workloads (paper §5.2, Appendix J).
  *
  * Synthetic Twitch-like scenario: the number of concurrent incoming streams
  * follows a diurnal curve with injected spikes. Knobs:
  *   - skipSentences {0..6}: sentiment analysis every (skip+1) sentences
  *   - frameFrac {1/6 … 1}: fraction of each analyzed sentence processed
  *   - model size {small=0, medium=1, large=2}
  *   - nStreams {2, 4, 8, 16, 31, 62}: concurrent streams analyzed
  *
  * Quality = Σ over ingested streams of accuracy ⇒ coverage × accuracy in
  * the shared model (`Workload.quality`): streams beyond `nStreams` are
  * dropped and contribute zero.
  *
  * Two variants stress the two resource levers (paper §5.2):
  *   - HIGH: short peaks to 62 streams — uplink-bandwidth-bound, cloud
  *     bursting cannot absorb them;
  *   - LONG: an 8-hour plateau — the 4 GB buffer alone cannot absorb it.
  */
sealed abstract class Mosei(val variant: String) extends Workload {
  val name  = s"MOSEI-$variant"
  val knobs = Vector(
    KnobDef("skipSentences", Vector(0, 1, 2, 3, 4, 5, 6)),
    KnobDef("frameFrac",     Vector(1.0 / 6, 1.0 / 3, 1.0 / 2, 2.0 / 3, 5.0 / 6, 1.0)),
    KnobDef("model",         Vector(0, 1, 2)),
    KnobDef("nStreams",      Vector(2, 4, 8, 16, 31, 62)),
  )

  private val cBase     = 0.9
  private val modelMult = Array(1.0, 2.0, 4.0)

  private def freq(cfg: KnobConfig): Double = 1.0 / (1.0 + cfg(0))

  def unitCost(cfg: KnobConfig): Double =
    cBase * freq(cfg) * cfg(1) * modelMult(cfg(2).toInt)

  def robustness(cfg: KnobConfig): Double = {
    val sFreq  = math.pow(freq(cfg), 0.40)
    val sFrac  = math.pow(cfg(1), 0.50)
    val sModel = Array(0.50, 0.78, 1.0)(cfg(2).toInt)
    val raw    = 0.35 * sFreq + 0.30 * sFrac + 0.35 * sModel
    math.pow(math.min(1.0, raw), 2.0)
  }

  override def streamCap(cfg: KnobConfig): Double = cfg(3)

  // Sentiment accuracy is dominated by the configuration itself (how much
  // of each sentence is analyzed, model size) and only mildly by content:
  // sevPow 0.3 flattens the difficulty dependence while sevScale 2.5 keeps
  // a wide accuracy spread between cheap and expensive configs — cheap
  // full-coverage configs must NOT look good (paper: Static@4 = 8%).
  override val sevScale = 2.5
  override val sevPow   = 0.3

  val segSec    = 7.0
  val trainDays = 10
  val testDays  = 2

  protected def loadSpec(days: Int): LoadSpec

  def streamSpec(days: Int, seed: Long): StreamSpec =
    StreamSpec(name = s"twitch-$variant", days = days, segSec = segSec, seed = seed,
               dwellSec = 28.0, loadSpec = Some(loadSpec(days)))
}

/** Short, tall peaks: every 3 h the load jumps to 62 streams for ~7 min. */
object MoseiHigh extends Mosei("HIGH") {
  protected def loadSpec(days: Int): LoadSpec =
    LoadSpec(spikeHigh = true)
}

/** One long plateau: +30 streams for 8 hours starting mid-stream. */
object MoseiLong extends Mosei("LONG") {
  protected def loadSpec(days: Int): LoadSpec = {
    // Plateau in the final (test) portion of the stream: from 25% into the
    // last two days, lasting 8 hours.
    val from = math.max(0, days - 2) * 86400.0 + 6.0 * 3600
    LoadSpec(spikeLongFromSec = from, spikeLongToSec = from + 8.0 * 3600)
  }
}
