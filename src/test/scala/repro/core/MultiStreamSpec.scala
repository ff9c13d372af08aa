package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.KnobPlanner.StreamPlanInput

/** Appendix D: joint knob planning over multiple streams sharing a budget. */
class MultiStreamSpec extends AnyFunSuite {

  private val qual = Array(Array(0.95, 0.97, 0.98), Array(0.20, 0.60, 0.95))
  private val cost = Array(Array(0.1, 2.0, 10.0), Array(0.1, 2.0, 10.0))
  private val r    = Array(0.5, 0.5)
  private def stream = StreamPlanInput(qual.map(_.clone()), cost.map(_.clone()), r.clone())

  private def jointCost(plans: Seq[KnobPlan], streams: Seq[StreamPlanInput]): Double =
    plans.zip(streams).map { case (p, s) => KnobPlannerSpec.expected(p, s.costHat, s.r) }.sum

  test("joint plans respect the shared budget") {
    val streams = Seq(stream, stream, stream)
    for (budget <- Seq(0.5, 3.0, 10.0, 40.0)) {
      val plans = KnobPlanner.planJoint(streams, budget)
      assert(jointCost(plans, streams) <= budget + 1e-6)
      plans.foreach(p => p.alpha.foreach(a => assert(math.abs(a.sum - 1.0) < 1e-9)))
    }
  }

  test("shared credits flow to the stream where they buy the most quality") {
    // Stream A's hard category gains a lot from the top config; stream B's
    // gains almost nothing. Budget suffices for one full upgrade.
    val a = StreamPlanInput(
      Array(Array(0.9, 0.95), Array(0.2, 0.95)),
      Array(Array(0.1, 5.0), Array(0.1, 5.0)), Array(0.5, 0.5))
    val b = StreamPlanInput(
      Array(Array(0.9, 0.95), Array(0.80, 0.85)),
      Array(Array(0.1, 5.0), Array(0.1, 5.0)), Array(0.5, 0.5))
    val plans = KnobPlanner.planJoint(Seq(a, b), budgetPerSeg = 2.7)
    // A's hard category (Δq = 0.75 for cost 2.45) outranks everything else.
    assert(plans(0).alpha(1)(1) > 0.9, plans(0).alpha(1).toList.toString)
    assert(plans(1).alpha(1)(1) < 0.5, plans(1).alpha(1).toList.toString)
  }

  test("joint planning beats independent equal splits of the budget") {
    // One hungry stream and one satisfied stream: a fair 50/50 split wastes
    // the satisfied stream's share; the joint LP reallocates it.
    val hungry = StreamPlanInput(
      Array(Array(0.2, 0.95)), Array(Array(0.1, 8.0)), Array(1.0))
    val happy = StreamPlanInput(
      Array(Array(0.90, 0.92)), Array(Array(0.1, 8.0)), Array(1.0))
    val budget = 8.2
    val joint = KnobPlanner.planJoint(Seq(hungry, happy), budget)
    val jointQ = KnobPlannerSpec.expected(joint(0), hungry.qualHat, hungry.r) +
      KnobPlannerSpec.expected(joint(1), happy.qualHat, happy.r)
    val split = Seq(
      KnobPlanner.plan(hungry.qualHat, hungry.costHat, hungry.r, budget / 2),
      KnobPlanner.plan(happy.qualHat, happy.costHat, happy.r, budget / 2))
    val splitQ = KnobPlannerSpec.expected(split(0), hungry.qualHat, hungry.r) +
      KnobPlannerSpec.expected(split(1), happy.qualHat, happy.r)
    assert(jointQ > splitQ + 0.05, s"joint=$jointQ split=$splitQ")
  }

  test("streams with different config counts coexist in one LP") {
    val small = StreamPlanInput(Array(Array(0.5, 0.9)), Array(Array(0.1, 1.0)), Array(1.0))
    val big = StreamPlanInput(
      Array(Array(0.3, 0.5, 0.7, 0.9)), Array(Array(0.1, 0.5, 1.0, 2.0)), Array(1.0))
    val plans = KnobPlanner.planJoint(Seq(small, big), budgetPerSeg = 1.5)
    assert(plans(0).nConfigs == 2 && plans(1).nConfigs == 4)
    assert(jointCost(plans, Seq(small, big)) <= 1.5 + 1e-6)
  }

  test("infeasible joint budgets degrade to cheapest-config plans") {
    val plans = KnobPlanner.planJoint(Seq(stream, stream), budgetPerSeg = 0.01)
    plans.foreach { p =>
      assert(p.alpha(0)(0) > 0.99 && p.alpha(1)(0) > 0.99)
    }
  }

  test("huge budgets buy the top config for every stream and category") {
    val plans = KnobPlanner.planJoint(Seq(stream, stream), budgetPerSeg = 1000.0)
    plans.foreach { p =>
      assert(p.alpha(0)(2) > 0.99)
      assert(p.alpha(1)(2) > 0.99)
    }
  }

  test("joint objective matches a directly-assembled LP") {
    val streams = Seq(stream, stream)
    val plans = KnobPlanner.planJoint(streams, budgetPerSeg = 6.0)
    val q = plans.zip(streams).map { case (p, s) =>
      KnobPlannerSpec.expected(p, s.qualHat, s.r)
    }.sum
    val opt = KnobPlannerSpec.lpOptimum(streams, 6.0)
    assert(math.abs(q - opt) < 1e-9, s"planner=$q optimum=$opt")
  }
}
