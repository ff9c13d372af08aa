package repro.core

import repro.util.Simplex
import repro.util.Simplex.{Constraint, Eq, Le}

/** A knob plan (paper §4.1): for every content category c, a histogram
  * `alpha(c)(k)` over knob configurations — how often config k should be
  * used on content of category c over the planned interval.
  */
final case class KnobPlan(alpha: Array[Array[Double]]) {
  def nCategories: Int = alpha.length
  def nConfigs: Int    = if (alpha.isEmpty) 0 else alpha(0).length
}

/** The knob planner: solves the paper's linear program (Eq. 2–4)
  *
  * {{{
  *   maximize   Σ_{k,c} α_{k,c} · r_c · q̂(k,c)
  *   subject to Σ_{k,c} α_{k,c} · r_c · ĉ(k,c) ≤ budget
  *              Σ_k α_{k,c} = 1  ∀c,   α ≥ 0
  * }}}
  *
  * ĉ is the profiled per-segment cost. The paper uses a content-independent
  * cost(k); we keep the per-category mean ĉ(k,c) (identical for COVID/MOT,
  * where cost doesn't depend on content; strictly more accurate for MOSEI,
  * where the analyzed stream count varies with the category).
  */
object KnobPlanner {

  /** The one-stream case of [[planJoint]].
    * @param qualHat   q̂(c)(k): category cluster centers (expected quality)
    * @param costHat   ĉ(c)(k): expected core·s per segment
    * @param r         forecasted category frequencies (Σ r = 1)
    * @param budgetPerSeg  core·s available per segment on average over the
    *                      planned interval (on-prem capacity + cloud credits)
    */
  def plan(qualHat: Array[Array[Double]], costHat: Array[Array[Double]],
           r: Array[Double], budgetPerSeg: Double): KnobPlan =
    planJoint(Seq(StreamPlanInput(qualHat, costHat, r)), budgetPerSeg).head

  private def cheapestIdx(costs: Array[Double]): Int = costs.indices.minBy(costs(_))

  /** One stream's planner inputs for the multi-stream setting. */
  final case class StreamPlanInput(qualHat: Array[Array[Double]],
                                   costHat: Array[Array[Double]],
                                   r: Array[Double])

  /** Joint multi-stream knob planning (paper Appendix D, Eq. 7–9): the
    * quality objective and the budget constraint sum over all streams, the
    * per-category normalization applies to every category of every stream.
    * Solved as one LP so cloud credits are allocated where they buy the most
    * joint quality. Returns one [[KnobPlan]] per stream.
    */
  def planJoint(streams: Seq[StreamPlanInput], budgetPerSeg: Double): Seq[KnobPlan] = {
    require(streams.nonEmpty)
    // Variable layout: per stream v, block of |C_v|·|K_v| alphas.
    val offsets = streams.scanLeft(0)((acc, s) => acc + s.qualHat.length * s.qualHat(0).length)
    val nVars = offsets.last
    def idx(v: Int, c: Int, k: Int): Int = offsets(v) + c * streams(v).qualHat(0).length + k

    val obj = Array.ofDim[Double](nVars)
    val budgetRow = Array.ofDim[Double](nVars)
    for (v <- streams.indices; s = streams(v);
         c <- s.qualHat.indices; k <- s.qualHat(0).indices) {
      obj(idx(v, c, k)) = s.r(c) * s.qualHat(c)(k)
      budgetRow(idx(v, c, k)) = s.r(c) * s.costHat(c)(k)
    }
    val normRows = for (v <- streams.indices; c <- streams(v).qualHat.indices) yield {
      val row = Array.ofDim[Double](nVars)
      for (k <- streams(v).qualHat(0).indices) row(idx(v, c, k)) = 1.0
      Constraint(row, Eq, 1.0)
    }

    val res = Simplex.maximize(obj, Constraint(budgetRow, Le, budgetPerSeg) +: normRows)
    streams.indices.map { v =>
      val s = streams(v)
      val nC = s.qualHat.length; val nK = s.qualHat(0).length
      res.status match {
        case Simplex.Optimal =>
          val alpha = Array.tabulate(nC, nK)((c, k) => math.max(0.0, res.x(idx(v, c, k))))
          // Guard against numerical drift: renormalize each category row.
          for (c <- 0 until nC) {
            val sum = alpha(c).sum
            if (sum > 1e-9) for (k <- 0 until nK) alpha(c)(k) /= sum
            else alpha(c)(cheapestIdx(s.costHat(c))) = 1.0
          }
          KnobPlan(alpha)
        case _ =>
          // Infeasible budget: cheapest config everywhere (throughput wins).
          KnobPlan(Array.tabulate(nC, nK)((c, k) =>
            if (k == cheapestIdx(s.costHat(c))) 1.0 else 0.0))
      }
    }
  }

  /** Expected per-segment work of a plan (used by tests and budgeting). */
  def expectedCost(plan: KnobPlan, costHat: Array[Array[Double]], r: Array[Double]): Double =
    (0 until plan.nCategories).map { c =>
      r(c) * (0 until plan.nConfigs).map(k => plan.alpha(c)(k) * costHat(c)(k)).sum
    }.sum

  /** Expected per-segment quality of a plan. */
  def expectedQuality(plan: KnobPlan, qualHat: Array[Array[Double]], r: Array[Double]): Double =
    (0 until plan.nCategories).map { c =>
      r(c) * (0 until plan.nConfigs).map(k => plan.alpha(c)(k) * qualHat(c)(k)).sum
    }.sum
}
