package repro.core

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
  *
  * Each category is a group of configs under one normalization row sharing
  * the budget row: the LP relaxation of a multiple-choice knapsack. A greedy
  * over the groups' upper convex hulls solves it exactly (Sinha & Zoltners,
  * Operations Research 27(3), 1979), in place of the paper's SciPy linprog.
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

  /** One stream's planner inputs for the multi-stream setting. */
  final case class StreamPlanInput(qualHat: Array[Array[Double]],
                                   costHat: Array[Array[Double]],
                                   r: Array[Double])

  /** Joint multi-stream knob planning (paper Appendix D, Eq. 7–9): the
    * quality objective and the budget constraint sum over all streams, the
    * per-category normalization applies to every category of every stream.
    * Solved as one LP so cloud credits are allocated where they buy the most
    * joint quality: every group starts on its cheapest hull config, then
    * the hull steps are bought in order of quality per core·s until the
    * budget runs out. If the cheapest configs alone exceed the budget, the
    * plan keeps them (throughput wins). Returns one [[KnobPlan]] per stream.
    */
  def planJoint(streams: Seq[StreamPlanInput], budgetPerSeg: Double): Seq[KnobPlan] = {
    require(streams.nonEmpty)
    val alphas = streams.map(s => Array.ofDim[Double](s.qualHat.length, s.qualHat(0).length))
    val steps = Array.newBuilder[Step]
    var spent = 0.0
    for ((s, alpha) <- streams.zip(alphas); c <- s.qualHat.indices) {
      val q = s.qualHat(c); val cost = s.costHat(c); val rc = s.r(c)
      val hull = upperHull(q, cost)
      alpha(c)(hull(0)) = 1.0
      spent += rc * cost(hull(0))
      if (rc > 0) for (h <- 1 until hull.length) {
        val (a, b) = (hull(h - 1), hull(h))
        steps += Step(alpha(c), a, b, (q(b) - q(a)) / (cost(b) - cost(a)), rc * (cost(b) - cost(a)))
      }
    }
    // Best slope first (stable, so a group's steps keep their hull order);
    // the step that crosses the budget is bought in part.
    val it = steps.result().sortBy(-_.slope).iterator
    while (spent < budgetPerSeg && it.hasNext) {
      val st = it.next()
      val t = math.min(1.0, (budgetPerSeg - spent) / st.cost)
      st.alpha(st.from) = 1.0 - t
      st.alpha(st.to) = t
      spent += st.cost
    }
    alphas.map(KnobPlan(_))
  }

  /** Upgrading one group (a category of a stream) from config `from` to the
    * next hull config `to`: `slope` = Δq̂/Δĉ, `cost` = r·Δĉ.
    */
  private final case class Step(alpha: Array[Double], from: Int, to: Int,
                                slope: Double, cost: Double)

  /** The configs on the upper convex hull of (ĉ, q̂), cheapest first: in
    * (ĉ, −q̂) order, those whose q̂ strictly improves, then without the
    * points under a chord (compared by cross-multiplication). Along it ĉ and
    * q̂ strictly increase and the slopes strictly decrease.
    */
  private def upperHull(q: Array[Double], cost: Array[Double]): Array[Int] = {
    val hull = scala.collection.mutable.ArrayBuffer[Int]()
    for (k <- q.indices.sortBy(k => (cost(k), -q(k)))
         if hull.isEmpty || q(k) > q(hull.last)) {
      def under(a: Int, b: Int): Boolean = // b is on or under the chord a → k
        (q(b) - q(a)) * (cost(k) - cost(b)) <= (q(k) - q(b)) * (cost(b) - cost(a))
      while (hull.length >= 2 && under(hull(hull.length - 2), hull.last)) hull.remove(hull.length - 1)
      hull += k
    }
    hull.toArray
  }
}
