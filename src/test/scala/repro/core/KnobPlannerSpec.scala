package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.KnobPlanner.StreamPlanInput

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
      val cost = KnobPlannerSpec.expected(p, costHat, r)
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
      KnobPlannerSpec.expected(p, qualHat, r)
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
    assert(KnobPlannerSpec.expected(p, c, Array(0.5, 0.5)) <= 1.0 + 1e-9)
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
      3.0  -> Array(Array(1.0, 0.0, 0.0), Array(0.0, 0.5125, 0.4875)),
      5.05 -> Array(Array(1.0, 0.0, 0.0), Array(0.0, 0.0, 1.0)),
      8.0  -> Array(Array(0.0, 0.5, 0.5), Array(0.0, 0.0, 1.0)))
    for ((budget, alpha) <- pinned) {
      val got = KnobPlanner.plan(qualHat, costHat, r, budget).alpha
      assert(got.map(_.toSeq).toSeq == alpha.map(_.toSeq).toSeq, s"budget=$budget")
    }

    val q = Array(Array(0.5, 0.9), Array(0.5, 0.9))
    val c = Array(Array(0.1, 1.0), Array(0.1, 10.0))
    val perCategory = Seq(
      1.0 -> Array(Array(0.0, 1.0), Array(0.9090909090909091, 0.0909090909090909)),
      3.0 -> Array(Array(0.0, 1.0), Array(0.505050505050505, 0.494949494949495)))
    for ((budget, alpha) <- perCategory) {
      val got = KnobPlanner.plan(q, c, Array(0.5, 0.5), budget).alpha
      assert(got.map(_.toSeq).toSeq == alpha.map(_.toSeq).toSeq, s"per-category budget=$budget")
    }

    // A category forecast at r = 0 costs and gains nothing, so the LP is
    // indifferent to its row: the plan keeps it on its cheapest config.
    val qz = Array(Array(0.95, 0.97, 0.98), Array(0.60, 0.20, 0.95))
    val cz = Array(Array(0.1, 2.0, 10.0), Array(2.0, 0.1, 10.0))
    val got = KnobPlanner.plan(qz, cz, Array(1.0, 0.0), budgetPerSeg = 3.0).alpha
    assert(got.map(_.toSeq).toSeq == Seq(Seq(0.0, 0.875, 0.125), Seq(0.0, 1.0, 0.0)),
      got.map(_.toSeq).toSeq)
  }

  test("random instances are normalized, in budget and optimal") {
    // 1–3 streams of 1–4 categories × 1–6 configs. ĉ and q̂ are drawn from
    // coarse grids so exact ties occur; some r_c are 0, and a budget below
    // the cheapest configs' cost makes the instance infeasible.
    val grid = (n: Int) => Gen.choose(0, n).map(_.toDouble / n)
    val genStream = for {
      nC <- Gen.choose(1, 4); nK <- Gen.choose(1, 6)
      q <- Gen.listOfN(nC, Gen.listOfN(nK, Gen.oneOf(grid(20), Gen.choose(0.0, 1.0))))
      c <- Gen.listOfN(nC, Gen.listOfN(nK, grid(8).map(_ * 10)))
      w <- Gen.listOfN(nC, Gen.oneOf(Gen.const(0.0), Gen.choose(0.0, 1.0)))
    } yield StreamPlanInput(q.map(_.toArray).toArray, c.map(_.toArray).toArray,
                            w.map(_ / math.max(w.sum, 1e-300)).toArray)
    val genInstance = for {
      streams <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, genStream))
      u <- Gen.choose(-0.3, 1.1)
    } yield {
      def spend(pick: Array[Double] => Double) =
        streams.map(s => s.r.indices.map(c => s.r(c) * pick(s.costHat(c))).sum).sum
      val (lo, hi) = (spend(_.min), spend(_.max))
      (streams, lo + u * (hi - lo), lo)
    }
    var infeasible = 0
    for (seed <- 1 to 3000; (streams, budget, lo) <- genInstance(Gen.Parameters.default, Seed(seed))) {
      val plans = KnobPlanner.planJoint(streams, budget)
      for (p <- plans; a <- p.alpha)
        assert(a.forall(_ >= 0) && math.abs(a.sum - 1.0) < 1e-12, s"seed $seed: ${a.toSeq}")
      val cost = plans.zip(streams).map { case (p, s) => KnobPlannerSpec.expected(p, s.costHat, s.r) }.sum
      val qual = plans.zip(streams).map { case (p, s) => KnobPlannerSpec.expected(p, s.qualHat, s.r) }.sum
      if (budget < lo) {
        infeasible += 1
        for ((p, s) <- plans.zip(streams); c <- s.costHat.indices; cs = s.costHat(c))
          assert(cs.indices.exists(k => p.alpha(c)(k) == 1.0 && cs(k) == cs.min),
                 s"seed $seed: category $c is not on a cheapest config")
      } else {
        assert(cost <= budget + 1e-9, s"seed $seed: cost $cost > budget $budget")
        val opt = KnobPlannerSpec.lpOptimum(streams, budget)
        assert(math.abs(qual - opt) < 1e-9, s"seed $seed: planned $qual, optimum $opt")
      }
    }
    assert(infeasible > 300, s"only $infeasible infeasible instances")
  }
}

object KnobPlannerSpec {

  /** A plan's expected per-segment value of a per-category table `x`,
    * Σ_c r_c · Σ_k α_{k,c} · x(c)(k): its cost for x = ĉ, its quality for x = q̂.
    */
  def expected(plan: KnobPlan, x: Array[Array[Double]], r: Array[Double]): Double =
    (0 until plan.nCategories).map { c =>
      r(c) * (0 until plan.nConfigs).map(k => plan.alpha(c)(k) * x(c)(k)).sum
    }.sum

  /** The planner LP's optimum, by duality. For every λ ≥ 0,
    * D(λ) = λ·B + Σ_g r_g · max_k (q̂_gk − λ·ĉ_gk) bounds it from above. D is
    * convex and piecewise linear, with its kinks at slopes between two
    * configs of one group, so its least value over λ = 0 and those slopes is
    * the optimum of a feasible instance.
    */
  def lpOptimum(streams: Seq[StreamPlanInput], budget: Double): Double = {
    val groups = for (s <- streams; c <- s.r.indices) yield (s.r(c), s.qualHat(c), s.costHat(c))
    def dual(l: Double): Double =
      l * budget + groups.map { case (r, q, c) => r * q.indices.map(k => q(k) - l * c(k)).max }.sum
    val kinks = for ((_, q, c) <- groups; i <- q.indices; j <- q.indices
                     if c(j) > c(i) && q(j) > q(i)) yield (q(j) - q(i)) / (c(j) - c(i))
    (0.0 +: kinks).map(dual).min
  }
}
