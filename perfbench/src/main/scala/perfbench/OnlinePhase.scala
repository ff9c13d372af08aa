package perfbench

import repro.core.{SegmentTrace, Skyscraper, SkyscraperModel}
import repro.exp.Experiments
import repro.sim._

/** One machine's run of a timed sweep. */
final case class TimedRun(result: RunResult, decideNs: Samples, seconds: Double)

/** Counters of the traced online loop, pooled over machines. */
final class OnlineCounters {
  var decisions, feasibleCalls, feasibleRejects, replans = 0L
  var chooseNs, observeNs, replanNs, replanMaxNs, sweepNs = 0L
  val decideNs = new Samples()
}

/** Times each `choose` call with only a clock read around it. */
final class TimedController(inner: Controller, decideNs: Samples) extends Controller {
  def choose(probe: Probe, segIdx: Int): Decision = {
    val t0 = System.nanoTime()
    val d = inner.choose(probe, segIdx)
    decideNs.add(System.nanoTime() - t0)
    d
  }
  override def observe(segIdx: Int, cfgIdx: Int, qual: Double, report: Double): Unit =
    inner.observe(segIdx, cfgIdx, qual, report)
}

/** Counts decisions, feasibility probes, rejects and replans (through
  * `plansComputed`), and times `choose`, `observe` and replanning.
  */
final class TracedController(inner: Skyscraper.OnlineController, c: OnlineCounters)
    extends Controller {
  private final class CountingProbe(p: Probe) extends Probe {
    def lagSec: Double = p.lagSec
    def bufferBytes: Double = p.bufferBytes
    def bufferCapBytes: Double = p.bufferCapBytes
    def cloudRemaining: Double = p.cloudRemaining
    def feasible(cfgIdx: Int, pl: Placement): Boolean = {
      c.feasibleCalls += 1
      val ok = p.feasible(cfgIdx, pl)
      if (!ok) c.feasibleRejects += 1
      ok
    }
    def cloudCost(cfgIdx: Int, pl: Placement): Double = p.cloudCost(cfgIdx, pl)
    def work(cfgIdx: Int): Double = p.work(cfgIdx)
  }

  def choose(probe: Probe, segIdx: Int): Decision = {
    val plans = inner.plansComputed
    val counting = new CountingProbe(probe)
    val t0 = System.nanoTime()
    val d = inner.choose(counting, segIdx)
    val dt = System.nanoTime() - t0
    c.decisions += 1
    c.decideNs.add(dt)
    if (inner.plansComputed != plans) {
      c.replans += inner.plansComputed - plans
      c.replanNs += dt
      c.replanMaxNs = math.max(c.replanMaxNs, dt)
    } else c.chooseNs += dt
    d
  }

  override def observe(segIdx: Int, cfgIdx: Int, qual: Double, report: Double): Unit = {
    val t0 = System.nanoTime()
    inner.observe(segIdx, cfgIdx, qual, report)
    c.observeNs += System.nanoTime() - t0
  }
}

/** The `online` layer: `Skyscraper.run` over the 5-machine catalogue at
  * Table 2's budget (12 % of the on-premise $), 4 GB buffer.
  */
final class OnlinePhase(model: SkyscraperModel, test: SegmentTrace, val testDays: Int) {
  val machines: Vector[Machine] = Machines.catalogue
  private val price = Machines.cloudPerCoreSec(Machines.cloudRatio)

  def budget(m: Machine): Double = 0.12 * Experiments.onPremDollars(m, testDays)
  def segmentsPerSweep: Long = test.nSegments.toLong * machines.size

  /** The public entry point, machine by machine. */
  def reference(): Vector[RunResult] =
    machines.map(m => Skyscraper.run(model, test, m.vCpus, Experiments.BufferBytes, budget(m)))

  /** `Skyscraper.run`'s simulator and controller for machine `m`, built the
    * same way, with the controller wrapped.
    */
  private def runOn(m: Machine, wrap: Skyscraper.OnlineController => Controller): RunResult = {
    val w = model.workload
    val sim = new ClusterSim(test, m.vCpus, Experiments.BufferBytes, budget(m), price,
      w.bitrateBytesPerSec, w.cloudBytesPerSec, w.uplinkBytesPerSec)
    sim.run(wrap(new Skyscraper.OnlineController(model, m.vCpus, test.nSegments,
                                                 budget(m), price, true)))
  }

  /** One sweep, machine by machine: each run's result, the time of each of
    * its `choose` calls, and its wall time.
    */
  def timedSweep(): Vector[TimedRun] = machines.map { m =>
    val ns = new Samples(test.nSegments)
    val t0 = System.nanoTime()
    val r = runOn(m, new TimedController(_, ns))
    TimedRun(r, ns, (System.nanoTime() - t0) / 1e9)
  }

  def tracedSweep(c: OnlineCounters): Vector[RunResult] = {
    val t0 = System.nanoTime()
    val r = machines.map(runOn(_, new TracedController(_, c)))
    c.sweepNs += System.nanoTime() - t0
    r
  }
}

object OnlinePhase {
  def same(a: RunResult, b: RunResult): Boolean =
    a.totalQuality == b.totalQuality && a.qualityPct == b.qualityPct &&
      a.cloudDollars == b.cloudDollars && a.workCoreSec == b.workCoreSec &&
      a.maxBufferBytes == b.maxBufferBytes && a.overflows == b.overflows &&
      a.lagSecEnd == b.lagSecEnd && a.maxLagSec == b.maxLagSec &&
      java.util.Arrays.equals(a.chosen, b.chosen)

  def sameAll(a: Seq[RunResult], b: Seq[RunResult]): Boolean =
    a.length == b.length && a.zip(b).forall { case (x, y) => same(x, y) }

  /** Table 2 Skyscraper quality % per machine (4, 8, 16, 32, 60 vCPU), keyed
    * by (workload, REPRO_SCALE, seed). COVID at scale 1 / seed 7 is
    * EXPERIMENTS.md's run.
    */
  val expectedQualityPct: Map[(String, Double, Long), Seq[Double]] = Map(
    ("COVID", 1.0, 7L)  -> Seq(62.37, 67.61, 78.46, 91.99, 95.04),
    ("COVID", 0.25, 7L) -> Seq(57.70, 67.60, 72.61, 81.65, 97.15),
    ("MOT", 0.25, 7L)   -> Seq(67.86, 71.93, 82.60, 85.62, 95.18),
  )
}
