package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.exp.Experiments
import repro.sim.{Placement, Probe}
import repro.workload.Covid

/** §5.5 (Fig. 13): decision overheads. The paper reports the knob switcher
  * below 1 ms per decision and the knob planner (forecast pass + LP) below
  * 1 s; both must hold here too, including at inflated problem sizes. Each
  * row times a warm component: the switcher's mean over a long decision
  * loop, the planner's median over repeated calls after as many warm-ups.
  */
class OverheadBench extends AnyFunSuite {

  /** Median wall seconds of `n` calls of `body`, after `n` untimed calls. */
  private def warmMedianSec(n: Int)(body: => Any): Double = {
    for (_ <- 0 until n) body
    val secs = Array.fill(n) {
      val t0 = System.nanoTime()
      body
      (System.nanoTime() - t0) / 1e9
    }
    java.util.Arrays.sort(secs)
    secs(n / 2)
  }

  private object FreeProbe extends Probe {
    def lagSec = 0.0; def bufferBytes = 0.0; def bufferCapBytes = 1e12
    def cloudRemaining = 1e9
    def feasible(c: Int, p: Placement) = true
    def cloudCost(c: Int, p: Placement) = p.cloudFrac
    def work(c: Int) = 1.0
  }

  test("knob switcher decides in well under a millisecond") {
    val (model, _, _) = Experiments.fitted(Covid)
    val sw = new KnobSwitcher(model.cats, model.qualHat, Placement.grid)
    sw.setPlan(KnobPlan(Array.fill(model.cats.n)(
      Array.tabulate(model.configs.length)(k => if (k == 0) 1.0 else 0.0))))
    val n = 20000
    val t0 = System.nanoTime()
    var i = 0
    while (i < n) {
      val d = sw.choose(FreeProbe)
      sw.observe(d.cfgIdx, 0.8)
      i += 1
    }
    val usPerDecision = (System.nanoTime() - t0) / 1e3 / n
    println(f"knob switcher: $usPerDecision%.2f µs per decision (paper: < 1 ms)")
    assert(usPerDecision < 1000.0)
  }

  test("knob planner (forecast + LP) runs in under a second") {
    val (model, _, _) = Experiments.fitted(Covid)
    def replan(): KnobPlan = {
      val r = model.forecaster.predict(model.trainCats, model.trainCats.length)
      KnobPlanner.plan(model.qualHat, model.costHat, r, budgetPerSeg = 8.0 * Covid.segSec)
    }
    val n = 200
    val sec = warmMedianSec(n)(replan())
    println(f"knob planner: ${sec * 1e3}%.3f ms, median of $n warm calls (paper: < 1 s)")
    assert(sec < 1.0)
    assert(replan().alpha.forall(a => math.abs(a.sum - 1.0) < 1e-6))
  }

  test("planner LP stays sub-second at inflated problem sizes") {
    // Paper Fig. 13 sweeps categories × configs; 30 × 30 is far beyond the
    // real workloads (≤ 5 × 8).
    val nC = 30; val nK = 30
    val rng = new scala.util.Random(5)
    val qual = Array.fill(nC, nK)(rng.nextDouble())
    val cost = Array.tabulate(nC, nK)((_, k) => 0.1 + k * 0.5)
    val r = Array.fill(nC)(1.0 / nC)
    val n = 2000
    val sec = warmMedianSec(n)(KnobPlanner.plan(qual, cost, r, budgetPerSeg = 5.0))
    println(f"planner LP at ${nC}x$nK: ${sec * 1e3}%.3f ms, median of $n warm calls")
    assert(sec < 1.0)
    val plan = KnobPlanner.plan(qual, cost, r, budgetPerSeg = 5.0)
    assert(KnobPlannerSpec.expected(plan, cost, r) <= 5.0 + 1e-6)
    val opt = KnobPlannerSpec.lpOptimum(Seq(KnobPlanner.StreamPlanInput(qual, cost, r)), 5.0)
    assert(math.abs(KnobPlannerSpec.expected(plan, qual, r) - opt) < 1e-9)
  }
}
