package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.workload.{Covid, MoseiHigh, Mot}

class ParetoSpec extends AnyFunSuite {

  // Synthetic content sample spanning easy to hard segments.
  private val sample = (0 until 60).map { i =>
    Pareto.Seg(i.toLong * 97, i / 59.0, 1.0)
  }

  test("cheapest returns the min-cost config") {
    val k = Pareto.cheapest(Covid, 1.0)
    assert(k.unitCost == Covid.profiles.map(_.unitCost).min)
  }

  test("filterConfigs keeps robust configs for hard content despite plateaus") {
    // A hill climb can stall on the zero-robustness plateau at the cheap end
    // of the grid; the exact frontier filterConfigs keeps must still surface
    // high-robustness configs for the hard segments.
    val k = Pareto.filterConfigs(Covid, sample, maxK = 8)
    assert(k.exists(_.rho > 0.8), k.map(_.rho).toString)
    assert(k.exists(_.rho < 0.3), k.map(_.rho).toString)
  }

  test("dominanceFrontier removes dominated configs") {
    val front = Pareto.dominanceFrontier(Covid, Covid.profiles, sample, 1.0)
    // sorted by cost, strictly increasing quality along the frontier
    val costs = front.map(_.unitCost)
    assert(costs == costs.sorted)
    def meanQ(p: repro.workload.ConfigProfile) =
      sample.map(s => Covid.quality(p, s.segId, s.difficulty, s.load)).sum / sample.size
    val quals = front.map(meanQ)
    quals.sliding(2).foreach { case Seq(a, b) => assert(b > a - 1e-12); case _ => }
  }

  test("filterConfigs yields a small set containing the cheapest config") {
    for (w <- Seq(Covid, Mot, MoseiHigh)) {
      val maxLoad = if (w.name.startsWith("MOSEI")) 62.0 else 1.0
      val s = sample.map(x => x.copy(load = maxLoad))
      val k = Pareto.filterConfigs(w, s, maxK = 8)
      assert(k.nonEmpty && k.size <= 14, s"${w.name}: |K|=${k.size}")
      assert(k.map(_.id).contains(Pareto.cheapest(w, maxLoad).id), w.name)
      assert(k.size >= 3, s"${w.name}: need a usable spectrum, got ${k.size}")
      // sorted by nominal cost
      val costs = k.map(Pareto.nominalCost(_, maxLoad))
      assert(costs == costs.sorted)
    }
  }

  test("thin keeps endpoints and bounds the size") {
    val front = Pareto.dominanceFrontier(Covid, Covid.profiles, sample, 1.0)
    val thinned = Pareto.thin(front, 4, _.unitCost)
    assert(thinned.size <= 4)
    assert(thinned.head.id == front.head.id)
    assert(thinned.last.id == front.last.id)
  }
}
