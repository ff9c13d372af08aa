package repro.core

import org.scalatest.funsuite.AnyFunSuite

class KnobPlannerSpec extends AnyFunSuite {

  // 2 categories × 3 configs: easy content (cat 0) is fine for everyone,
  // hard content (cat 1) needs the expensive config.
  private val qualHat = Array(
    Array(0.95, 0.97, 0.98),
    Array(0.20, 0.60, 0.95))
  private val costHat = Array(
    Array(0.1, 2.0, 10.0),
    Array(0.1, 2.0, 10.0))
  private val r = Array(0.5, 0.5)

  test("alphas are normalized, non-negative distributions") {
    val p = KnobPlanner.plan(qualHat, costHat, r, budgetPerSeg = 3.0)
    for (c <- 0 until 2) {
      assert(math.abs(p.alpha(c).sum - 1.0) < 1e-9)
      assert(p.alpha(c).forall(_ >= -1e-12))
    }
  }

  test("plan respects the budget in expectation") {
    for (budget <- Seq(0.2, 1.0, 3.0, 8.0)) {
      val p = KnobPlanner.plan(qualHat, costHat, r, budget)
      val cost = KnobPlanner.expectedCost(p, costHat, r)
      assert(cost <= budget + 1e-7, s"budget=$budget cost=$cost")
    }
  }

  test("huge budget buys the best config everywhere") {
    val p = KnobPlanner.plan(qualHat, costHat, r, budgetPerSeg = 100.0)
    assert(p.alpha(0)(2) > 0.99)
    assert(p.alpha(1)(2) > 0.99)
  }

  test("tiny budget falls back to the cheapest config") {
    val p = KnobPlanner.plan(qualHat, costHat, r, budgetPerSeg = 0.1)
    assert(p.alpha(0)(0) > 0.99)
    assert(p.alpha(1)(0) > 0.99)
  }

  test("mid budget spends on the hard category first") {
    // Budget 5.05: enough to fully upgrade the hard category (0.5·10 = 5
    // plus 0.5·0.1) but nothing more.
    val p = KnobPlanner.plan(qualHat, costHat, r, budgetPerSeg = 5.05)
    assert(p.alpha(1)(2) > 0.95, s"hard-cat top alpha=${p.alpha(1)(2)}")
    assert(p.alpha(0)(0) > 0.9, s"easy cat stays cheap: ${p.alpha(0).toList}")
  }

  test("expected quality is monotone in budget") {
    val quals = Seq(0.2, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0).map { b =>
      val p = KnobPlanner.plan(qualHat, costHat, r, b)
      KnobPlanner.expectedQuality(p, qualHat, r)
    }
    quals.sliding(2).foreach { case Seq(a, b) => assert(b >= a - 1e-9); case _ => }
  }

  test("category frequencies weight the spend") {
    // Hard category almost never appears → budget goes to easy category if
    // it helps; with r ≈ (1, 0) the plan can afford the top config for easy.
    val p = KnobPlanner.plan(qualHat, costHat, Array(0.99, 0.01), budgetPerSeg = 10.0)
    assert(p.alpha(0)(2) > 0.9, p.alpha(0).toList.toString)
  }

  test("infeasible instances degrade to cheapest-config plan") {
    // Cheapest config alone already exceeds the budget → fallback plan.
    val p = KnobPlanner.plan(qualHat, costHat, r, budgetPerSeg = 0.01)
    assert(p.alpha(0)(0) > 0.99 && p.alpha(1)(0) > 0.99)
  }

  test("single category, single config") {
    val p = KnobPlanner.plan(Array(Array(0.5)), Array(Array(1.0)), Array(1.0), 2.0)
    assert(math.abs(p.alpha(0)(0) - 1.0) < 1e-9)
  }

  test("per-category costs are honoured (MOSEI-style)") {
    // Same config is pricier on the busy category; plan must still respect
    // the budget using the right per-category cost.
    val q = Array(Array(0.5, 0.9), Array(0.5, 0.9))
    val c = Array(Array(0.1, 1.0), Array(0.1, 10.0))
    val p = KnobPlanner.plan(q, c, Array(0.5, 0.5), budgetPerSeg = 1.0)
    assert(KnobPlanner.expectedCost(p, c, Array(0.5, 0.5)) <= 1.0 + 1e-9)
    // Upgrading cat 0 (cost 0.5) is cheaper than cat 1 (cost 5) for the same
    // quality gain → cat 0 gets the upgrade first.
    assert(p.alpha(0)(1) > p.alpha(1)(1))
  }

  test("plans are exact at pinned budgets") {
    // Recorded alphas: the infeasible fallback (0.01), interior optima and
    // the per-category (MOSEI-style) costs, compared bit for bit.
    val pinned = Seq(
      0.01 -> Array(Array(1.0, 0.0, 0.0), Array(1.0, 0.0, 0.0)),
      0.5  -> Array(Array(1.0, 0.0, 0.0), Array(0.5789473684210527, 0.4210526315789474, 0.0)),
      3.0  -> Array(Array(1.0, 0.0, 0.0), Array(0.0, 0.5125, 0.4875000000000001)),
      5.05 -> Array(Array(1.0, 0.0, 0.0), Array(0.0, 1.1102230246251565e-16, 0.9999999999999999)),
      8.0  -> Array(Array(0.0, 0.5, 0.5), Array(0.0, 0.0, 1.0)))
    for ((budget, alpha) <- pinned) {
      val got = KnobPlanner.plan(qualHat, costHat, r, budget).alpha
      assert(got.map(_.toSeq).toSeq == alpha.map(_.toSeq).toSeq, s"budget=$budget")
    }

    val q = Array(Array(0.5, 0.9), Array(0.5, 0.9))
    val c = Array(Array(0.1, 1.0), Array(0.1, 10.0))
    val perCategory = Seq(
      1.0 -> Array(Array(0.0, 1.0), Array(0.9090909090909092, 0.09090909090909088)),
      3.0 -> Array(Array(0.0, 1.0), Array(0.505050505050505, 0.494949494949495)))
    for ((budget, alpha) <- perCategory) {
      val got = KnobPlanner.plan(q, c, Array(0.5, 0.5), budget).alpha
      assert(got.map(_.toSeq).toSeq == alpha.map(_.toSeq).toSeq, s"per-category budget=$budget")
    }
  }
}
