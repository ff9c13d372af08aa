package repro.sim

import repro.core.SegmentTrace

/** Task placement of a config's UDF DAG: the fraction of its work executed
  * on on-demand cloud workers (paper §3.1 / Appendix A.2). The offline phase
  * keeps the cost/runtime Pareto set; for a parallelizable DAG every offload
  * fraction is Pareto-optimal (more cloud $ ⇔ less local work), so the set
  * is a fraction grid.
  */
final case class Placement(cloudFrac: Double) {
  require(cloudFrac >= 0.0 && cloudFrac <= 1.0)
}

object Placement {
  /** Default Pareto placement set, cheapest (all-local) first. */
  val grid: Vector[Placement] = Vector(0.0, 0.25, 0.5, 0.75, 1.0).map(Placement(_))
}

/** Per-segment decision handed to the simulator. `extraLocalWork` charges
  * additional on-premise core·s to this segment (e.g. Chameleon's profiling
  * overhead).
  */
final case class Decision(cfgIdx: Int, placement: Placement,
                          extraLocalWork: Double = 0.0)

/** What a controller may inspect when deciding (paper §4.2's inputs). */
trait Probe {
  /** Seconds of video currently sitting in the buffer. */
  def lagSec: Double
  /** Bytes currently buffered. */
  def bufferBytes: Double
  def bufferCapBytes: Double
  /** Remaining cloud budget in dollars. */
  def cloudRemaining: Double
  /** Would processing the next segment with (cfg, placement) keep the buffer
    * within capacity (and the upload within bandwidth)?
    */
  def feasible(cfgIdx: Int, p: Placement): Boolean
  /** Cloud dollars that (cfg, placement) would spend on the next segment. */
  def cloudCost(cfgIdx: Int, p: Placement): Double
  /** Profiled work of the next segment under cfg (core·s) — the runtime
    * knowledge the offline phase measured.
    */
  def work(cfgIdx: Int): Double
}

/** A knob-tuning policy driven by the simulator, one decision per segment.
  * `observe` delivers the achieved application quality and the REPORTED
  * quality (certainty) of the segment just processed — the latter is the
  * only content signal Skyscraper's switcher uses (paper §4.2).
  */
trait Controller {
  def choose(probe: Probe, segIdx: Int): Decision
  def observe(segIdx: Int, cfgIdx: Int, qual: Double, report: Double): Unit = ()
}

/** Result of one simulated ingestion run. */
final case class RunResult(
    totalQuality: Double,
    qualityPct: Double,
    cloudDollars: Double,
    workCoreSec: Double,
    maxBufferBytes: Double,
    overflows: Int,
    chosen: Array[Int],
    lagSecEnd: Double,
    maxLagSec: Double,
)

/** Discrete-event cluster simulator (paper Appendix M.1, adapted to segment
  * granularity).
  *
  * Segments arrive in real time (segment i is fully available at
  * `(i+1)·segSec`). The system processes segments in order; local work runs
  * on `cores` parallel cores, offloaded work overlaps with local work but is
  * throttled by the uplink bandwidth. Video that has arrived but is not yet
  * processed occupies the buffer; the controller is responsible for keeping
  * it within capacity (the simulator records violations).
  */
final class ClusterSim(
    trace: SegmentTrace,
    cores: Int,
    bufferCapBytes: Double,
    cloudBudgetDollars: Double,
    cloudPricePerCoreSec: Double,
    bitrateBytesPerSec: Double,
    cloudBytesPerVideoSec: Double,
    uplinkBytesPerSec: Double,
) {
  private val dt = trace.segSec

  // Prefix sums of per-segment video bytes: buffered video is priced at the
  // load it was CAPTURED at, not the current load (a backlog built during a
  // quiet period must not balloon when a 62-stream spike arrives).
  private val bytesPrefix: Array[Double] = {
    val n = trace.nSegments
    val p = Array.ofDim[Double](n + 1)
    var i = 0
    while (i < n) {
      p(i + 1) = p(i) + math.max(1.0, trace.load(i)) * bitrateBytesPerSec * dt
      i += 1
    }
    p
  }

  /** Bytes of video captured up to wall-time `t` (clamped at stream end). */
  private def arrivedBytes(t: Double): Double = {
    val n = trace.nSegments
    val full = math.min(n, math.max(0, (t / dt).toInt))
    val partial =
      if (full >= n) 0.0
      else (t - full * dt) * math.max(1.0, trace.load(full)) * bitrateBytesPerSec
    bytesPrefix(full) + math.max(0.0, partial)
  }

  def run(controller: Controller): RunResult = {
    val n = trace.nSegments
    var finishPrev = 0.0
    var cloudSpent = 0.0
    var work = 0.0
    var totalQ = 0.0
    var maxBuf = 0.0
    var maxLag = 0.0
    var overflows = 0
    val chosen = Array.ofDim[Int](n)
    var lastLag = 0.0

    var i = 0
    while (i < n) {
      val arrivalEnd = (i + 1) * dt
      val start = math.max(finishPrev, arrivalEnd)
      // Captured-but-unprocessed video at processing start (segment i itself
      // is "in the buffer" until processed).
      val lag = math.min(start, n * dt) - i * dt
      val bufBytesNow = arrivedBytes(start) - bytesPrefix(i)

      val probe = new Probe {
        def lagSec: Double = lag
        def bufferBytes: Double = bufBytesNow
        def bufferCapBytes: Double = ClusterSim.this.bufferCapBytes
        def cloudRemaining: Double = cloudBudgetDollars - cloudSpent
        def work(cfgIdx: Int): Double = trace.cost(i, cfgIdx)
        def cloudCost(cfgIdx: Int, p: Placement): Double =
          trace.cost(i, cfgIdx) * p.cloudFrac * cloudPricePerCoreSec
        def feasible(cfgIdx: Int, p: Placement): Boolean = {
          val d = duration(i, cfgIdx, p)
          val finish = start + d
          val bytesAfter = arrivedBytes(finish) - bytesPrefix(i + 1)
          bytesAfter <= ClusterSim.this.bufferCapBytes &&
            cloudCost(cfgIdx, p) <= cloudRemaining + 1e-12
        }
      }

      val dec = controller.choose(probe, i)
      val w = trace.cost(i, dec.cfgIdx) + dec.extraLocalWork
      val d = duration(i, dec.cfgIdx, dec.placement) + dec.extraLocalWork / cores
      val finish = start + d
      val lagAfter = math.max(0.0, math.min(finish, n * dt) - (i + 1) * dt)
      val bufAfter = math.max(0.0, arrivedBytes(finish) - bytesPrefix(i + 1))
      if (bufAfter > bufferCapBytes + 1e-6) overflows += 1
      maxBuf = math.max(maxBuf, math.max(bufAfter, bufBytesNow))
      maxLag = math.max(maxLag, math.max(lagAfter, lag))

      cloudSpent += w * dec.placement.cloudFrac * cloudPricePerCoreSec
      work += w
      val q = trace.qual(i, dec.cfgIdx)
      totalQ += q
      chosen(i) = dec.cfgIdx
      controller.observe(i, dec.cfgIdx, q, trace.report(i, dec.cfgIdx))

      finishPrev = finish
      lastLag = lagAfter
      i += 1
    }

    RunResult(totalQ, totalQ / trace.maxTotalQuality, cloudSpent, work, maxBuf,
              overflows, chosen, lastLag, maxLag)
  }

  /** Wall-clock seconds to process segment `i` with (cfg, placement):
    * local part parallelized over the cores, upload throttled by the uplink;
    * cloud execution overlaps the upload window (Appendix M.1).
    */
  def duration(i: Int, cfgIdx: Int, p: Placement): Double = {
    val w = trace.cost(i, cfgIdx)
    val localTime = (1.0 - p.cloudFrac) * w / cores
    // Upload ships only the streams this config actually analyzes.
    val analyzed =
      math.min(trace.configs(cfgIdx).streamCap, math.max(1.0, trace.load(i)))
    val uploadTime = p.cloudFrac * cloudBytesPerVideoSec * analyzed * dt / uplinkBytesPerSec
    math.max(localTime, uploadTime)
  }
}
