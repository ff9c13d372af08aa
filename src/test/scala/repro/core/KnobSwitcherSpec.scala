package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.sim.{Decision, Placement, Probe}

class KnobSwitcherSpec extends AnyFunSuite {

  // Two categories × three configs. Category 0 = easy, 1 = hard.
  private val centers = Array(
    Array(0.9, 0.95, 0.99), // easy: everyone fine
    Array(0.2, 0.55, 0.95)) // hard: cheap config collapses
  private def newCats = ContentCategories(centers.map(_.clone()), 0)

  private class StubProbe(works: Array[Double],
                          feasibleFn: (Int, Placement) => Boolean = (_, _) => true,
                          val cloudRemaining: Double = 0.0)
      extends Probe {
    def lagSec = 0.0
    def bufferBytes = 0.0
    def bufferCapBytes = 1e9
    def feasible(cfgIdx: Int, p: Placement): Boolean = feasibleFn(cfgIdx, p)
    def cloudCost(cfgIdx: Int, p: Placement): Double = p.cloudFrac * works(cfgIdx)
    def work(cfgIdx: Int): Double = works(cfgIdx)
  }

  private val works = Array(0.1, 1.0, 10.0)

  test("follows the plan histogram over many segments") {
    val sw = new KnobSwitcher(newCats, centers, Vector(Placement(0.0)))
    sw.setPlan(KnobPlan(Array(Array(0.5, 0.3, 0.2), Array(0.0, 0.0, 1.0))))
    val probe = new StubProbe(works)
    val used = Array.ofDim[Int](3)
    for (_ <- 0 until 1000) {
      val d = sw.choose(probe)
      used(d.cfgIdx) += 1
      // Stay in category 0: report quality near its center for the config.
      sw.observe(d.cfgIdx, centers(0)(d.cfgIdx))
    }
    assert(math.abs(used(0) / 1000.0 - 0.5) < 0.02, used.toList.toString)
    assert(math.abs(used(1) / 1000.0 - 0.3) < 0.02, used.toList.toString)
    assert(math.abs(used(2) / 1000.0 - 0.2) < 0.02, used.toList.toString)
  }

  test("observe re-classifies the category from reported quality (Eq. 5)") {
    val sw = new KnobSwitcher(newCats, centers, Vector(Placement(0.0)))
    sw.setPlan(KnobPlan(Array(Array(1.0, 0.0, 0.0), Array(0.0, 0.0, 1.0))))
    val probe = new StubProbe(works)
    assert(sw.currentCategory == 0)
    val d = sw.choose(probe)
    assert(d.cfgIdx == 0) // easy-category plan says cheap
    // Cheap config reports a collapsed quality → content turned hard.
    sw.observe(d.cfgIdx, 0.22)
    assert(sw.currentCategory == 1)
    val d2 = sw.choose(probe)
    assert(d2.cfgIdx == 2) // hard-category plan says expensive
  }

  test("degrades to a cheaper config when nothing else fits the buffer") {
    val sw = new KnobSwitcher(newCats, centers, Vector(Placement(0.0)))
    sw.setPlan(KnobPlan(Array(Array(0.0, 0.0, 1.0), Array(0.0, 0.0, 1.0))))
    // Config 2 never feasible, others always.
    val probe = new StubProbe(works, (k, _) => k != 2)
    val d = sw.choose(probe)
    assert(d.cfgIdx == 1, s"chose ${d.cfgIdx}") // next-less-qualitative
  }

  test("falls back to cheapest + max offload when nothing is feasible") {
    val sw = new KnobSwitcher(newCats, centers, Vector(Placement(0.0), Placement(1.0)))
    sw.setPlan(KnobPlan(Array(Array(1.0, 0.0, 0.0), Array(1.0, 0.0, 0.0))))
    val probe = new StubProbe(works, (_, _) => false, cloudRemaining = 1.0)
    val d = sw.choose(probe)
    assert(d.cfgIdx == 0)
    assert(d.placement.cloudFrac == 1.0)
  }

  test("the last resort offloads only what the remaining budget pays for") {
    val sw = new KnobSwitcher(newCats, centers,
      Vector(Placement(0.0), Placement(0.5), Placement(1.0)))
    sw.setPlan(KnobPlan(Array(Array(0.0, 0.0, 1.0), Array(0.0, 0.0, 1.0))))
    // Config 0 (work 0.1) is the cheapest: offloading f of it costs 0.1·f.
    def lastResort(remaining: Double) =
      sw.choose(new StubProbe(works, (_, _) => false, remaining))
    assert(lastResort(0.05) == Decision(0, Placement(0.5)))
    assert(lastResort(0.0999) == Decision(0, Placement(0.5)))
    assert(lastResort(0.1) == Decision(0, Placement(1.0)))
    assert(lastResort(0.0) == Decision(0, Placement(0.0)))
    assert(lastResort(-1.0) == Decision(0, Placement(0.0)))
  }

  test("prefers the cheapest (all-local) placement when feasible") {
    val sw = new KnobSwitcher(newCats, centers,
      Vector(Placement(0.0), Placement(0.5), Placement(1.0)))
    sw.setPlan(KnobPlan(Array(Array(1.0, 0.0, 0.0), Array(1.0, 0.0, 0.0))))
    val d = sw.choose(new StubProbe(works))
    assert(d.placement.cloudFrac == 0.0)
  }

  test("equal Eq. 6 deficits go to the lower index, in Double's total order") {
    val sw = new KnobSwitcher(newCats, centers, Vector(Placement(0.0)))
    sw.setPlan(KnobPlan(Array(Array(0.2, 0.4, 0.4), Array(1.0, 0.0, 0.0))))
    assert(sw.choose(new StubProbe(works)).cfgIdx == 1)
    // −0.0 − 0.0 = −0.0 ranks below 0.0 − 0.0 = 0.0, though −0.0 == 0.0.
    sw.setPlan(KnobPlan(Array(Array(-0.0, 0.0, -0.0), Array(1.0, 0.0, 0.0))))
    assert(sw.choose(new StubProbe(works)).cfgIdx == 1)
    sw.setPlan(KnobPlan(Array(Array(-0.0, -0.0, -0.0), Array(1.0, 0.0, 0.0))))
    assert(sw.choose(new StubProbe(works)).cfgIdx == 0)
  }

  test("choose without a plan throws") {
    val sw = new KnobSwitcher(newCats, centers, Vector(Placement(0.0)))
    intercept[IllegalArgumentException](sw.choose(new StubProbe(works)))
  }

  test("usedFrac tracks the empirical histogram") {
    val sw = new KnobSwitcher(newCats, centers, Vector(Placement(0.0)))
    sw.setPlan(KnobPlan(Array(Array(0.7, 0.3, 0.0), Array(1.0, 0.0, 0.0))))
    val probe = new StubProbe(works)
    for (_ <- 0 until 100) {
      val d = sw.choose(probe)
      sw.observe(d.cfgIdx, centers(0)(d.cfgIdx))
    }
    assert(math.abs(sw.usedFrac(0, 0) - 0.7) < 0.05)
    assert(math.abs(sw.usedFrac(0, 1) - 0.3) < 0.05)
  }
}
